#include "usi/hash/karp_rabin.hpp"

#include "usi/util/rng.hpp"

namespace usi {
namespace {

using u128 = unsigned __int128;
constexpr u64 kPrime = Mersenne61::kPrime;

/// sum_{j<W} (s[j] + 1) * powers[W-1-j], folded once: every term is below
/// 2^69, so the result is at most p + 2^11 (not fully reduced; BlockStep
/// accepts it).
template <std::size_t W>
u64 BlockSum(const Symbol* s, const u64* powers) {
  u128 sum = 0;
  for (std::size_t j = 0; j < W; ++j) {
    sum += static_cast<u128>(s[j] + 1u) * powers[W - 1 - j];
  }
  return static_cast<u64>(sum & kPrime) + static_cast<u64>(sum >> 61);
}

/// (fp * power + block) mod p with one fold: fp, power < p and
/// block <= p + 2^11 keep the sum below p * 2^61, so its high part is below
/// p and one conditional subtraction finishes the reduction.
u64 BlockStep(u64 fp, u64 power, u64 block) {
  const u128 x = static_cast<u128>(fp) * power + block;
  const u64 s = static_cast<u64>(x & kPrime) + static_cast<u64>(x >> 61);
  return s >= kPrime ? s - kPrime : s;
}

}  // namespace

KarpRabinHasher::KarpRabinHasher(u64 seed) {
  Rng rng(seed);
  // Base uniform in [257, p-2]; staying above the alphabet keeps short
  // strings collision-free even against adversarial inputs.
  SetBase(257 + rng.UniformBelow(Mersenne61::kPrime - 259));
}

KarpRabinHasher KarpRabinHasher::FromBase(u64 base) {
  USI_CHECK(IsValidBase(base));
  KarpRabinHasher hasher;
  hasher.SetBase(base);
  return hasher;
}

void KarpRabinHasher::SetBase(u64 base) {
  base_ = base;
  block_powers_[0] = 1;
  for (std::size_t k = 1; k < 9; ++k) {
    block_powers_[k] = Mersenne61::Mul(block_powers_[k - 1], base);
  }
  powers_ = {1, base};
}

u64 KarpRabinHasher::PowerOfBase(std::size_t k) const {
  while (powers_.size() <= k) {
    powers_.push_back(Mersenne61::Mul(powers_.back(), base_));
  }
  return powers_[k];
}

u64 KarpRabinHasher::Hash(std::span<const Symbol> s) const {
  const Symbol* p = s.data();
  const std::size_t n = s.size();
  u64 fp = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    fp = BlockStep(fp, block_powers_[8], BlockSum<8>(p + i, block_powers_));
  }
  if (i + 4 <= n) {
    fp = BlockStep(fp, block_powers_[4], BlockSum<4>(p + i, block_powers_));
    i += 4;
  }
  for (; i < n; ++i) fp = Append(fp, p[i]);
  return fp;
}

PrefixFingerprints::PrefixFingerprints(const Text& text,
                                       const KarpRabinHasher& hasher)
    : hasher_(&hasher) {
  prefix_.resize(text.size() + 1);
  prefix_[0] = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    prefix_[i + 1] = hasher.Append(prefix_[i], text[i]);
  }
  hasher.PowerOfBase(text.size());  // Pre-grow so Fragment() is O(1).
}

}  // namespace usi

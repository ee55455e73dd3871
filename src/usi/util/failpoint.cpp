#include "usi/util/failpoint.hpp"

#include <map>
#include <mutex>

namespace usi {
namespace failpoint {
namespace {

/// Deterministic splitmix64 step for percent draws.
u64 SplitMix64(u64& state) {
  state += 0x9E3779B97F4A7C15ULL;
  u64 z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

/// Process-wide site registry. Sites are heap-allocated and never freed:
/// the macros cache Site references in function-local statics, so a site's
/// address must stay valid for the process lifetime (the "leak" is bounded
/// by the number of distinct site names, a few dozen).
class Registry {
 public:
  static Registry& Instance() {
    static Registry* instance = new Registry();
    return *instance;
  }

  Site& GetSite(std::string_view name) {
    std::lock_guard<std::mutex> lock(mu_);
    return GetSiteLocked(name);
  }

  Site* FindSite(std::string_view name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sites_.find(name);
    return it == sites_.end() ? nullptr : it->second;
  }

  void DisarmAllSites() {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, site] : sites_) DisarmSite(*site);
  }

  std::vector<std::string> Names() {
    std::vector<std::string> names;
    std::lock_guard<std::mutex> lock(mu_);
    names.reserve(sites_.size());
    for (const auto& [name, site] : sites_) names.push_back(name);
    return names;  // std::map iteration order is already sorted.
  }

  static void ArmSite(Site& site, const Spec& spec) {
    std::lock_guard<std::mutex> lock(site.mu_);
    site.spec_ = spec;
    site.hits_ = 0;
    site.fired_ = 0;
    site.rng_state_ = spec.seed;
    site.action_.store(static_cast<u8>(spec.action),
                       std::memory_order_release);
  }

  static void DisarmSite(Site& site) {
    std::lock_guard<std::mutex> lock(site.mu_);
    site.spec_ = Spec{};
    site.hits_ = 0;
    site.fired_ = 0;
    site.action_.store(static_cast<u8>(Action::kOff),
                       std::memory_order_release);
  }

 private:
  Registry() = default;

  Site& GetSiteLocked(std::string_view name) {
    auto it = sites_.find(name);
    if (it != sites_.end()) return *it->second;
    Site* site = new Site(std::string(name));
    sites_.emplace(site->name(), site);
    return *site;
  }

  std::mutex mu_;  ///< Guards sites_ (the map, not the Sites themselves).
  std::map<std::string, Site*, std::less<>> sites_;
};

Site& Site::Get(std::string_view name) {
  return Registry::Instance().GetSite(name);
}

bool Site::Evaluate() {
  // Fast path: a disarmed site is one relaxed load.
  if (static_cast<Action>(action_.load(std::memory_order_relaxed)) ==
      Action::kOff) {
    return false;
  }
  switch (EvaluateArmed()) {
    case Action::kOff:
      return false;
    case Action::kError:
      return true;
    case Action::kThrow:
      throw FailpointError(name_);
    case Action::kBadAlloc:
      throw std::bad_alloc();
  }
  return false;
}

Action Site::EvaluateArmed() {
  std::lock_guard<std::mutex> lock(mu_);
  // Re-read under the lock: a concurrent Disarm between the fast-path load
  // and here must win.
  const Action action =
      static_cast<Action>(action_.load(std::memory_order_relaxed));
  if (action == Action::kOff) return Action::kOff;
  ++hits_;
  if (hits_ <= spec_.skip) return Action::kOff;
  if (spec_.fires != 0 && fired_ >= spec_.fires) return Action::kOff;
  if (spec_.percent < 100 &&
      SplitMix64(rng_state_) % 100 >= spec_.percent) {
    return Action::kOff;
  }
  ++fired_;
  return action;
}

void Arm(std::string_view site, const Spec& spec) {
  Registry::ArmSite(Registry::Instance().GetSite(site), spec);
}

void Arm(std::string_view site, Action action, u64 fires, u64 skip) {
  Spec spec;
  spec.action = action;
  spec.fires = fires;
  spec.skip = skip;
  Arm(site, spec);
}

void Disarm(std::string_view site) {
  if (Site* s = Registry::Instance().FindSite(site)) {
    Registry::DisarmSite(*s);
  }
}

void DisarmAll() { Registry::Instance().DisarmAllSites(); }

u64 Site::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

u64 Site::fired() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fired_;
}

u64 HitCount(std::string_view site) {
  Site* s = Registry::Instance().FindSite(site);
  return s == nullptr ? 0 : s->hits();
}

u64 FireCount(std::string_view site) {
  Site* s = Registry::Instance().FindSite(site);
  return s == nullptr ? 0 : s->fired();
}

std::vector<std::string> SiteNames() {
  return Registry::Instance().Names();
}

}  // namespace failpoint
}  // namespace usi

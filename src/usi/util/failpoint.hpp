#ifndef USI_UTIL_FAILPOINT_HPP_
#define USI_UTIL_FAILPOINT_HPP_

/// \file failpoint.hpp
/// Deterministic fault injection: named failpoints, compiled into every
/// build.
///
/// A failpoint is a named site in library code where a test can inject a
/// failure: a thrown exception, a simulated std::bad_alloc, or a soft "this
/// step failed" signal the surrounding code branches on. The failure-path
/// suites drive the reliability layer — build-lane quarantine, save/load
/// error paths, mmap degradation, query-fallback containment — through
/// these sites instead of hoping real faults show up.
///
/// \par Site macros
///   USI_FAILPOINT("build.sa");            // throws when armed kThrow /
///                                         // kBadAlloc; no-op otherwise
///   if (USI_FAILPOINT_FIRED("save.body")) // additionally: true when armed
///     return false;                       // kError (simulated soft failure)
///
/// Each macro expansion caches a reference to its Site in a function-local
/// static, so a disarmed evaluation costs one relaxed atomic load. Every
/// site sits at batch, shard, stage or call granularity, never per symbol.
///
/// \par Arming
/// Only in-process: Arm("site", Action::kThrow), or Arm("site", spec) with
/// the skip-N / fire-at-most-N / percent controls of Spec. Nothing reads the
/// environment, so a deployment's environment cannot inject faults into a
/// serving process. Firing decisions are deterministic: counters plus a
/// fixed-seed splitmix64 stream for percent draws, so an armed run replays
/// exactly.

#include <atomic>
#include <mutex>
#include <new>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "usi/util/common.hpp"

namespace usi {
namespace failpoint {

/// What an armed site does when its firing conditions are met.
enum class Action : u8 {
  kOff = 0,   ///< Disarmed; the site is a no-op.
  kError,     ///< USI_FAILPOINT_FIRED evaluates true (soft failure signal).
  kThrow,     ///< Throws FailpointError.
  kBadAlloc,  ///< Throws std::bad_alloc (simulated allocation failure).
};

/// The exception Action::kThrow raises. Derives from std::runtime_error so
/// generic catch(std::exception&) containment handles it like any real
/// fault; the what() string names the site.
class FailpointError : public std::runtime_error {
 public:
  explicit FailpointError(const std::string& site)
      : std::runtime_error("failpoint fired: " + site) {}
};

/// Arming descriptor: when and how often an armed site fires.
struct Spec {
  Action action = Action::kOff;
  u64 skip = 0;       ///< Pass through this many evaluations first.
  u64 fires = 0;      ///< Fire at most this many times; 0 = unlimited.
  u32 percent = 100;  ///< Of eligible evaluations, fire this fraction.
  u64 seed = 0;       ///< Percent-draw stream seed (deterministic replay).
};

/// One named site. Sites are created on first use and never destroyed, so
/// the references the macros cache stay valid for the process lifetime.
class Site {
 public:
  /// The site named \p name, created if absent. Thread-safe.
  static Site& Get(std::string_view name);

  /// Evaluates the site: returns true when an armed kError fires, throws on
  /// kThrow / kBadAlloc, returns false otherwise. A disarmed evaluation is
  /// one relaxed load. Thread-safe.
  bool Evaluate();

  const std::string& name() const { return name_; }

  /// Evaluations while armed / times fired, since last Arm/Disarm.
  u64 hits() const;
  u64 fired() const;

 private:
  friend class Registry;
  explicit Site(std::string name) : name_(std::move(name)) {}

  /// Slow path once action_ is armed; returns the action to execute (kOff
  /// when skip/fires/percent suppress this evaluation).
  Action EvaluateArmed();

  const std::string name_;
  std::atomic<u8> action_{static_cast<u8>(Action::kOff)};
  mutable std::mutex mu_;  ///< Guards everything below.
  Spec spec_;
  u64 hits_ = 0;       ///< Evaluations while armed, since last Arm/Disarm.
  u64 fired_ = 0;      ///< Times the action actually executed.
  u64 rng_state_ = 0;  ///< splitmix64 stream for percent draws.
};

/// Arms \p site with \p spec, creating it if absent; resets its counters.
void Arm(std::string_view site, const Spec& spec);

/// Convenience arm: \p action firing at most \p fires times (0 = unlimited)
/// after skipping the first \p skip evaluations.
void Arm(std::string_view site, Action action, u64 fires = 0, u64 skip = 0);

/// Disarms \p site (no-op if it does not exist); resets its counters.
void Disarm(std::string_view site);

/// Disarms every site. Failure-path tests call this in TearDown so an armed site
/// can never leak into the next test.
void DisarmAll();

/// Evaluations of \p site while armed since its last Arm/Disarm (0 if the
/// site does not exist). Lets tests assert a path was actually reached.
u64 HitCount(std::string_view site);

/// Times \p site actually fired since its last Arm/Disarm.
u64 FireCount(std::string_view site);

/// Names of every site that exists right now (created by macro evaluation
/// or Arm), sorted. Powers the docs' failpoint catalog
/// cross-check and `usi_inspect failpoints`.
std::vector<std::string> SiteNames();

}  // namespace failpoint
}  // namespace usi

/// Evaluates the named failpoint: throws when armed kThrow / kBadAlloc,
/// otherwise a no-op (a kError arm is ignored — use USI_FAILPOINT_FIRED at
/// sites with a soft-failure branch).
#define USI_FAILPOINT(name)                              \
  do {                                                   \
    static ::usi::failpoint::Site& usi_failpoint_site =  \
        ::usi::failpoint::Site::Get(name);               \
    usi_failpoint_site.Evaluate();                       \
  } while (0)
/// As USI_FAILPOINT, but usable as a boolean expression: true when an armed
/// kError fires, so error-returning paths can simulate soft failures.
#define USI_FAILPOINT_FIRED(name)                        \
  ([]() -> ::usi::failpoint::Site& {                     \
    static ::usi::failpoint::Site& usi_failpoint_site =  \
        ::usi::failpoint::Site::Get(name);               \
    return usi_failpoint_site;                           \
  }()                                                    \
       .Evaluate())

#endif  // USI_UTIL_FAILPOINT_HPP_

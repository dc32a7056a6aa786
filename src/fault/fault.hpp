/// \file fault.hpp
/// Deterministic fault injection for the in-transit pipeline and the
/// serving stack. A `fault::Plan` is a schedule of faults keyed by *site
/// string* and *trigger count*: "the 3rd time execution passes
/// `FAULT_POINT("sst.writer.end_step")`, throw a typed error / sleep /
/// die / tear the file write". Plans are plain data — built
/// programmatically, parsed from a spec string, or read from the
/// `ARTSCI_FAULT_PLAN` environment variable — so a chaos run is fully
/// reproducible from its seed and spec.
///
/// Cost model (mirroring TRACE_SCOPE). Hooks are always compiled in; a
/// plan arms them at runtime:
///  * disarmed (the default, and the only production state): one relaxed
///    atomic load and a predictable branch per site;
///  * armed (chaos tests only): a mutex + map lookup per site — sites sit
///    on step/batch boundaries, never in per-particle loops.
///
/// Spec grammar (`;`-separated rules):
///
///   <site>@<hit>[+<count>]:<action>
///   action := delay=<micros> | error | die | torn=<keepBytes>
///
/// e.g. `sst.writer.end_step@3:die;ckpt.write@2:torn=128` — the writer
/// group's 3rd end-step simulates peer death, and the 2nd checkpoint
/// write is torn after 128 bytes. `hit` is 1-based; `+<count>` fires the
/// rule on `count` consecutive hits (default 1).
///
/// Failure taxonomy: `delay` stalls the site (deadline/timeout tests),
/// `error` throws FaultInjectedError (generic runtime failure), `die`
/// throws PeerDeathError (components translate it into peer-failure
/// handling — e.g. SstEngine aborts the stream, a serve worker fails its
/// batch and restarts), `torn` short-writes a file through
/// Plan::tornBytes (checkpoint crash-consistency tests).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace artsci::fault {

/// An injected fault surfaced as an error (action `error` and `torn`).
class FaultInjectedError : public RuntimeError {
 public:
  using RuntimeError::RuntimeError;
};

/// Simulated peer death (action `die`). Components catch this to run
/// their peer-failure path: the SST engine fails the stream for the whole
/// group, a serve worker fails its batch and restarts in place.
class PeerDeathError : public FaultInjectedError {
 public:
  using FaultInjectedError::FaultInjectedError;
};

enum class Action {
  kDelay,      ///< sleep `delayMicros` at the site
  kError,      ///< throw FaultInjectedError
  kPeerDeath,  ///< throw PeerDeathError
  kTornWrite,  ///< Plan::tornBytes returns `keepBytes` (short write)
};

/// One scheduled fault: fire at site `site` on hits [hit, hit+count).
struct Rule {
  std::string site;
  std::uint64_t hit = 1;    ///< 1-based trigger index at this site
  std::uint64_t count = 1;  ///< consecutive hits the rule fires on
  Action action = Action::kError;
  std::uint64_t delayMicros = 0;  ///< kDelay
  std::uint64_t keepBytes = 0;    ///< kTornWrite: payload prefix to keep
};

/// The process-wide fault schedule. Disarmed by default; arming installs
/// rules and flips the relaxed flag FAULT_POINT checks. All bookkeeping
/// (per-site hit counts, injection counts) only accumulates while armed,
/// so a production run pays exactly one atomic load per site.
class Plan {
 public:
  static Plan& global();

  /// Install `rules` and start counting site hits from zero.
  void arm(std::vector<Rule> rules);
  /// Remove all rules and stop counting. Hit/injection tallies survive
  /// until the next arm() so tests can read coverage after the run.
  void disarm();
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// The FAULT_POINT slow path: count the hit, then apply the first
  /// matching delay/error/die rule. Only called while armed.
  void onSite(const char* site);

  /// Torn-write query for file-writing sites: returns how many of `n`
  /// payload bytes to actually write. A return < n means the write is
  /// torn — the caller writes the prefix and throws FaultInjectedError
  /// instead of completing. Counts as a site hit while armed.
  std::size_t tornBytes(const char* site, std::size_t n);

  /// Per-site hit counts accumulated since the last arm().
  std::map<std::string, std::uint64_t> siteHits() const;
  /// Faults actually injected since the last arm().
  std::uint64_t injectedCount() const;

  /// Parse the spec grammar above; throws ContractError on bad syntax.
  static std::vector<Rule> parseSpec(const std::string& spec);
  /// Arm from `ARTSCI_FAULT_PLAN` when the variable is set and non-empty;
  /// returns true if a plan was armed.
  bool armFromEnv();

 private:
  Plan() = default;

  std::atomic<bool> armed_{false};
  mutable std::mutex mutex_;
  std::vector<Rule> rules_;
  std::map<std::string, std::uint64_t> hits_;
  std::uint64_t injected_ = 0;
};

/// RAII plan for tests: arms on construction, disarms on destruction, so
/// a throwing assertion can never leak an armed plan into the next test.
class ScopedPlan {
 public:
  explicit ScopedPlan(std::vector<Rule> rules) {
    Plan::global().arm(std::move(rules));
  }
  ~ScopedPlan() { Plan::global().disarm(); }
  ScopedPlan(const ScopedPlan&) = delete;
  ScopedPlan& operator=(const ScopedPlan&) = delete;
};

}  // namespace artsci::fault

/// Near-zero-cost-when-disarmed fault hook. Site strings are dotted
/// paths ("subsystem.component.event"); the table of live sites is in
/// docs/ARCHITECTURE.md § Fault tolerance.
#define FAULT_POINT(site)                                       \
  do {                                                          \
    if (::artsci::fault::Plan::global().armed())                \
      ::artsci::fault::Plan::global().onSite(site);             \
  } while (false)

// Multi-site simulation.
//
// The paper motivates LANDLORD with distributed HTC across many
// facilities ("more than 170 computing centres"; "containers are
// replicated across sites", §I-II). This model runs one LANDLORD cache
// per site and routes the shared job stream between sites, quantifying
// how routing affects aggregate storage and reuse:
//
//  * kRoundRobin — load-balanced, ignores content; identical jobs land
//    on different sites and duplicate images everywhere.
//  * kRandom     — ditto, stochastic.
//  * kAffinity   — content-stable routing (a spec always goes to the
//    same site), so each site sees a coherent sub-workload and images
//    are built once system-wide.
//
// Sites can fail. A fault::FaultPlan with FaultOp::kSiteOutage drives
// per-attempt outage verdicts, and a per-site circuit breaker gates
// routing: closed → open after SiteBreakerConfig::failure_threshold
// consecutive failures → half-open probe once open_cooldown requests
// have passed → closed again on a successful probe. While a site's
// breaker is open the router degrades to the next healthy site in hash
// order (home+1, home+2, ...), so kAffinity keeps content-stable
// fallbacks during an outage and returns home after recovery. The
// duplication this buys — images rebuilt at the fallback site — is
// reported in MultiSiteResult::failover_written_bytes. When no site
// accepts a request it drains as an error (failed_requests), never a
// hang. An empty plan keeps every breaker closed and the routing
// bit-identical to the fault-free model.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault.hpp"
#include "landlord/cache.hpp"
#include "landlord/stats.hpp"
#include "obs/obs.hpp"
#include "spec/specification.hpp"
#include "util/rng.hpp"

namespace landlord::sim {

enum class Routing : std::uint8_t { kRoundRobin, kRandom, kAffinity };

[[nodiscard]] constexpr const char* to_string(Routing routing) noexcept {
  switch (routing) {
    case Routing::kRoundRobin: return "round-robin";
    case Routing::kRandom: return "random";
    case Routing::kAffinity: return "affinity";
  }
  return "?";
}

/// Circuit-breaker state for one site's health gate.
enum class BreakerState : std::uint8_t {
  kClosed,    ///< healthy: requests flow
  kOpen,      ///< tripped: the site is skipped until the cooldown passes
  kHalfOpen,  ///< probing: one request is let through to test recovery
};

[[nodiscard]] constexpr const char* to_string(BreakerState state) noexcept {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "?";
}

struct SiteBreakerConfig {
  /// Consecutive failures that trip a closed breaker open.
  std::uint32_t failure_threshold = 3;
  /// Requests (global stream positions) an open breaker waits before
  /// letting a half-open probe through.
  std::uint64_t open_cooldown = 16;
};

/// Per-site health telemetry accumulated over one run.
struct SiteHealth {
  BreakerState state = BreakerState::kClosed;  ///< state at end of run
  std::uint64_t outage_failures = 0;  ///< injected failures observed here
  std::uint64_t opens = 0;            ///< transitions into kOpen
  std::uint64_t half_opens = 0;       ///< kOpen -> kHalfOpen transitions
  std::uint64_t probes = 0;           ///< requests routed as half-open probes
  std::uint64_t closes = 0;           ///< kHalfOpen -> kClosed recoveries
};

struct MultiSiteConfig {
  std::uint32_t sites = 4;
  Routing routing = Routing::kAffinity;
  core::CacheConfig cache;  ///< per-site cache configuration
  /// Site-outage schedule (FaultOp::kSiteOutage stream; empty = no
  /// outages, bit-identical to the fault-free model).
  fault::FaultPlan faults;
  SiteBreakerConfig breaker;
  /// Optional observability bundle (landlord_dispatch_* site/breaker
  /// families + failover/outage trace events). Non-owning.
  obs::Observability* obs = nullptr;
};

struct MultiSiteResult {
  std::vector<core::CacheCounters> per_site;
  util::Bytes total_cached_bytes = 0;   ///< Σ over sites
  util::Bytes global_unique_bytes = 0;  ///< union across all sites
  std::uint64_t total_hits = 0;
  std::uint64_t total_merges = 0;
  std::uint64_t total_inserts = 0;
  util::Bytes total_written_bytes = 0;

  std::vector<SiteHealth> site_health;     ///< breaker telemetry per site
  std::uint64_t failover_placements = 0;   ///< served by a non-home site
  std::uint64_t failed_requests = 0;       ///< no reachable site; drained as error
  std::uint64_t outage_failures = 0;       ///< Σ injected attempt failures
  std::uint64_t breaker_transitions = 0;   ///< Σ opens + half_opens + closes
  /// Duplication cost of failover: bytes written at a fallback site while
  /// serving requests whose home site was unavailable (images rebuilt
  /// where they already exist at home).
  util::Bytes failover_written_bytes = 0;

  /// Cross-site duplication: unique-across-sites / total-cached.
  [[nodiscard]] double global_cache_efficiency() const noexcept {
    return total_cached_bytes > 0
               ? static_cast<double>(global_unique_bytes) /
                     static_cast<double>(total_cached_bytes)
               : 1.0;
  }
};

/// Routes `stream` over `sites` caches. Deterministic in (config, seed):
/// the same fault plan replays the same outages, failovers, and breaker
/// transitions bit-for-bit.
[[nodiscard]] MultiSiteResult run_multisite(
    const pkg::Repository& repo, const MultiSiteConfig& config,
    const std::vector<spec::Specification>& specs,
    const std::vector<std::uint32_t>& stream, std::uint64_t seed);

}  // namespace landlord::sim

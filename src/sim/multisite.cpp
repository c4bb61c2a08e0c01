#include "sim/multisite.hpp"

#include <memory>

#include "landlord/sharded.hpp"

namespace landlord::sim {

namespace {

/// Content-stable site assignment: hash the spec's member indices.
std::uint32_t affinity_site(const spec::Specification& spec, std::uint32_t sites) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  spec.packages().for_each([&h](pkg::PackageId id) {
    h ^= pkg::to_index(id) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  });
  return static_cast<std::uint32_t>(h % sites);
}

/// One site's circuit breaker. Transitions are counted into the
/// SiteHealth telemetry and (when attached) the breaker-transition
/// counter families + trace.
struct Breaker {
  BreakerState state = BreakerState::kClosed;
  std::uint32_t consecutive_failures = 0;
  std::uint64_t opened_at = 0;  ///< stream position at the last trip
  SiteHealth health;
};

struct BreakerHooks {
  obs::Counter* site_outages = nullptr;
  obs::Counter* failovers = nullptr;
  obs::Counter* failed_requests = nullptr;
  obs::Counter* failover_written_bytes = nullptr;
  obs::Counter* to_open = nullptr;
  obs::Counter* to_half_open = nullptr;
  obs::Counter* to_closed = nullptr;
  obs::EventTrace* trace = nullptr;
};

void trace_transition(BreakerHooks& hooks, std::uint32_t site,
                      BreakerState to) {
  if (hooks.trace == nullptr) return;
  obs::TraceEvent event;
  event.kind = obs::EventKind::kBreakerTransition;
  event.aux = site;
  event.detail = to_string(to);
  hooks.trace->record(event);
}

void trip_open(Breaker& breaker, std::uint32_t site, std::uint64_t position,
               BreakerHooks& hooks) {
  breaker.state = BreakerState::kOpen;
  breaker.opened_at = position;
  breaker.consecutive_failures = 0;
  ++breaker.health.opens;
  if (hooks.to_open != nullptr) hooks.to_open->inc();
  trace_transition(hooks, site, BreakerState::kOpen);
}

}  // namespace

MultiSiteResult run_multisite(const pkg::Repository& repo,
                              const MultiSiteConfig& config,
                              const std::vector<spec::Specification>& specs,
                              const std::vector<std::uint32_t>& stream,
                              std::uint64_t seed) {
  std::vector<std::unique_ptr<core::ShardedCache>> sites;
  sites.reserve(config.sites);
  for (std::uint32_t s = 0; s < config.sites; ++s) {
    sites.push_back(std::make_unique<core::ShardedCache>(repo, config.cache));
  }

  const bool faulty = !config.faults.empty();
  fault::FaultInjector injector(config.faults);
  std::vector<Breaker> breakers(config.sites);
  BreakerHooks hooks;
  if (config.obs != nullptr) {
    injector.set_observability(config.obs);
    obs::Registry& reg = config.obs->registry;
    hooks.site_outages =
        &reg.counter("landlord_dispatch_site_outages_total", {},
                     "Placement attempts rejected by an injected outage.");
    hooks.failovers =
        &reg.counter("landlord_dispatch_failovers_total", {},
                     "Requests served by a non-home site.");
    hooks.failed_requests =
        &reg.counter("landlord_dispatch_failed_requests_total", {},
                     "Requests drained as errors: no reachable site.");
    hooks.failover_written_bytes =
        &reg.counter("landlord_dispatch_failover_written_bytes_total", {},
                     "Bytes written at fallback sites (failover duplication).");
    hooks.to_open = &reg.counter("landlord_dispatch_breaker_transitions_total",
                                 {{"to", "open"}},
                                 "Site breaker transitions by target state.");
    hooks.to_half_open =
        &reg.counter("landlord_dispatch_breaker_transitions_total",
                     {{"to", "half-open"}},
                     "Site breaker transitions by target state.");
    hooks.to_closed =
        &reg.counter("landlord_dispatch_breaker_transitions_total",
                     {{"to", "closed"}},
                     "Site breaker transitions by target state.");
    hooks.trace = &config.obs->trace;
  }

  MultiSiteResult result;
  util::Rng rng(seed);
  std::uint32_t next_site = 0;
  std::uint64_t position = 0;
  for (std::uint32_t index : stream) {
    const auto& spec = specs[index];
    std::uint32_t home = 0;
    switch (config.routing) {
      case Routing::kRoundRobin:
        home = next_site;
        next_site = (next_site + 1) % config.sites;
        break;
      case Routing::kRandom:
        home = static_cast<std::uint32_t>(rng.uniform(config.sites));
        break;
      case Routing::kAffinity:
        home = affinity_site(spec, config.sites);
        break;
    }

    if (!faulty) {
      // Fault-free fast path: breakers never trip, home always serves —
      // bit-identical to the model before health gating existed.
      (void)sites[home]->request(spec);
      ++position;
      continue;
    }

    bool served = false;
    for (std::uint32_t offset = 0; offset < config.sites; ++offset) {
      const std::uint32_t s = (home + offset) % config.sites;
      Breaker& breaker = breakers[s];
      if (breaker.state == BreakerState::kOpen) {
        if (position - breaker.opened_at < config.breaker.open_cooldown) {
          continue;  // unreachable: skip to the next site in hash order
        }
        breaker.state = BreakerState::kHalfOpen;
        ++breaker.health.half_opens;
        if (hooks.to_half_open != nullptr) hooks.to_half_open->inc();
        trace_transition(hooks, s, BreakerState::kHalfOpen);
      }
      if (breaker.state == BreakerState::kHalfOpen) ++breaker.health.probes;

      if (injector.should_fail(fault::FaultOp::kSiteOutage)) {
        ++breaker.health.outage_failures;
        ++result.outage_failures;
        if (hooks.site_outages != nullptr) hooks.site_outages->inc();
        if (hooks.trace != nullptr) {
          obs::TraceEvent event;
          event.kind = obs::EventKind::kSiteOutage;
          event.aux = s;
          event.failed = true;
          hooks.trace->record(event);
        }
        if (breaker.state == BreakerState::kHalfOpen) {
          // Failed probe: straight back to open, restart the cooldown.
          trip_open(breaker, s, position, hooks);
        } else if (++breaker.consecutive_failures >=
                   config.breaker.failure_threshold) {
          trip_open(breaker, s, position, hooks);
        }
        continue;
      }

      if (breaker.state == BreakerState::kHalfOpen) {
        breaker.state = BreakerState::kClosed;
        ++breaker.health.closes;
        if (hooks.to_closed != nullptr) hooks.to_closed->inc();
        trace_transition(hooks, s, BreakerState::kClosed);
      }
      breaker.consecutive_failures = 0;

      if (offset == 0) {
        (void)sites[s]->request(spec);
      } else {
        // Failover: quantify the duplication the fallback site pays —
        // whatever it writes here is an image its home already has (or
        // would have had).
        const util::Bytes before = sites[s]->counters().written_bytes;
        (void)sites[s]->request(spec);
        const util::Bytes delta = sites[s]->counters().written_bytes - before;
        ++result.failover_placements;
        result.failover_written_bytes += delta;
        if (hooks.failovers != nullptr) hooks.failovers->inc();
        if (hooks.failover_written_bytes != nullptr) {
          hooks.failover_written_bytes->inc(delta);
        }
        if (hooks.trace != nullptr) {
          obs::TraceEvent event;
          event.kind = obs::EventKind::kFailover;
          event.aux = s;
          event.bytes = delta;
          event.degraded = true;
          hooks.trace->record(event);
        }
      }
      served = true;
      break;
    }
    if (!served) {
      ++result.failed_requests;
      if (hooks.failed_requests != nullptr) hooks.failed_requests->inc();
    }
    ++position;
  }

  util::DynamicBitset global(repo.size());
  for (std::uint32_t s = 0; s < config.sites; ++s) {
    const auto& site = sites[s];
    result.per_site.push_back(site->counters());
    result.total_cached_bytes += site->total_bytes();
    result.total_hits += site->counters().hits;
    result.total_merges += site->counters().merges;
    result.total_inserts += site->counters().inserts;
    result.total_written_bytes += site->counters().written_bytes;
    site->for_each_image(
        [&global](const core::Image& image) { global |= image.contents.bits(); });
    result.site_health.push_back(breakers[s].health);
    result.site_health.back().state = breakers[s].state;
    result.breaker_transitions += breakers[s].health.opens +
                                  breakers[s].health.half_opens +
                                  breakers[s].health.closes;
  }
  result.global_unique_bytes = repo.bytes_of(global);
  return result;
}

}  // namespace landlord::sim

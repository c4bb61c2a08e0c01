// The observability bundle every instrumented layer attaches to.
//
// One Observability instance spans a whole service (head node / sim
// run): core::ShardedCache, core::Landlord and
// fault::FaultInjector each take a non-owning pointer via their
// set_observability() and resolve their metric handles once; the sim
// drivers (sim::run_simulation / run_parallel / run_crash_replay) accept
// one through their configs and publish end-of-run gauges into it.
// Metric names, the event schema and the exposition format are
// documented in docs/observability.md.
#pragma once

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace landlord::obs {

struct Observability {
  Observability() = default;
  explicit Observability(std::size_t trace_capacity) : trace(trace_capacity) {}

  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;

  Registry registry;
  EventTrace trace;
};

}  // namespace landlord::obs

// Metrics snapshot tool: run a small simulation and a crash replay with
// an observability bundle attached, dump the Prometheus text exposition
// and the JSONL event-trace tail, and (with --check) re-parse the
// exposition and reconcile it against the decision-layer counters.
//
//   metrics_snapshot [--jobs N] [--seed S] [--metrics-out FILE]
//                    [--trace-out FILE] [--check]
//
// With no output flags the exposition goes to stdout. --check exits
// non-zero on a malformed exposition line or any counter/ladder
// mismatch — scripts/tier1.sh stage 4 runs exactly this.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "fault/fault.hpp"
#include "obs/obs.hpp"
#include "pkg/synthetic.hpp"
#include "sim/crash.hpp"
#include "sim/driver.hpp"

namespace {

struct Options {
  std::uint32_t jobs = 120;
  std::uint64_t seed = 42;
  std::optional<std::string> metrics_out;
  std::optional<std::string> trace_out;
  bool check = false;
};

std::optional<Options> parse_args(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--jobs") {
      const char* value = next();
      if (value == nullptr) return std::nullopt;
      options.jobs = static_cast<std::uint32_t>(std::strtoul(value, nullptr, 10));
    } else if (arg == "--seed") {
      const char* value = next();
      if (value == nullptr) return std::nullopt;
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--metrics-out") {
      const char* value = next();
      if (value == nullptr) return std::nullopt;
      options.metrics_out = value;
    } else if (arg == "--trace-out") {
      const char* value = next();
      if (value == nullptr) return std::nullopt;
      options.trace_out = value;
    } else if (arg == "--check") {
      options.check = true;
    } else {
      return std::nullopt;
    }
  }
  return options;
}

int failures = 0;

void check_equal(const char* what, double metric, double expected) {
  if (metric == expected) return;
  ++failures;
  std::cerr << "MISMATCH " << what << ": metric " << metric << " != expected "
            << expected << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  using namespace landlord;
  const auto options = parse_args(argc, argv);
  if (!options) {
    std::cerr << "usage: metrics_snapshot [--jobs N] [--seed S] "
                 "[--metrics-out FILE] [--trace-out FILE] [--check]\n";
    return 2;
  }

  const auto& repo = pkg::default_repository(options->seed);
  obs::Observability obs(1 << 16);

  // Phase 1: a plain single-threaded simulation.
  sim::SimulationConfig sim_config;
  sim_config.cache.alpha = 0.8;
  sim_config.cache.capacity = 1400ULL * 1000 * 1000 * 1000;
  sim_config.workload.unique_jobs = options->jobs;
  sim_config.workload.repetitions = 3;
  sim_config.seed = options->seed;
  sim_config.obs = &obs;
  const auto sim_result = sim::run_simulation(repo, sim_config);

  // Phase 2: a faulty crash replay, so the degraded/fault/checkpoint
  // families carry non-zero values in the snapshot.
  sim::CrashReplayConfig crash_config;
  crash_config.cache.alpha = 0.8;
  crash_config.cache.capacity = 1400ULL * 1000 * 1000 * 1000;
  crash_config.workload.unique_jobs = std::max<std::uint32_t>(40, options->jobs / 2);
  crash_config.workload.repetitions = 3;
  crash_config.seed = options->seed + 1;
  crash_config.crash.checkpoint_every = 20;
  crash_config.crash.crash_every = 45;
  crash_config.faults.fail(fault::FaultOp::kBuilderDownload, 0.15)
      .fail(fault::FaultOp::kMergeRewrite, 0.15)
      .fail(fault::FaultOp::kSnapshotWrite, 0.25);
  crash_config.faults.seed = options->seed ^ 0x0b5ULL;
  crash_config.backoff.max_retries = 1;
  crash_config.obs = &obs;
  const auto crash_result = sim::run_crash_replay(repo, crash_config);

  const std::string exposition = obs.registry.render_text();
  if (options->metrics_out) {
    std::ofstream out(*options->metrics_out);
    if (!out) {
      std::cerr << "cannot write " << *options->metrics_out << '\n';
      return 2;
    }
    out << exposition;
    std::cout << "metrics written to " << *options->metrics_out << '\n';
  } else {
    std::cout << exposition;
  }
  if (options->trace_out) {
    std::ofstream out(*options->trace_out);
    if (!out) {
      std::cerr << "cannot write " << *options->trace_out << '\n';
      return 2;
    }
    obs.trace.write_jsonl(out);
    std::cout << "trace tail (" << obs.trace.snapshot().size()
              << " events) written to " << *options->trace_out << '\n';
  }

  if (!options->check) return 0;

  // Re-parse what we just rendered: a malformed line fails here.
  std::istringstream in(exposition);
  auto parsed = obs::parse_text(in);
  if (!parsed.ok()) {
    std::cerr << "exposition does not parse: " << parsed.error().message << '\n';
    return 1;
  }
  const auto& snap = parsed.value();
  const auto at = [&](const std::string& key) {
    const auto it = snap.find(key);
    if (it != snap.end()) return it->second;
    ++failures;
    std::cerr << "MISSING series " << key << '\n';
    return -1.0;
  };

  // Counter reconciliation: registry series vs the decision-layer
  // counters, summed across both phases (the registry is shared).
  const auto total = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a + b);
  };
  check_equal("requests{hit}",
              at("landlord_cache_requests_total{kind=\"hit\"}"),
              total(sim_result.counters.hits, crash_result.counters.hits));
  check_equal("requests{merge}",
              at("landlord_cache_requests_total{kind=\"merge\"}"),
              total(sim_result.counters.merges, crash_result.counters.merges));
  check_equal("requests{insert}",
              at("landlord_cache_requests_total{kind=\"insert\"}"),
              total(sim_result.counters.inserts, crash_result.counters.inserts));
  check_equal("evictions (all reasons)",
              at("landlord_cache_evictions_total{reason=\"budget\"}") +
                  at("landlord_cache_evictions_total{reason=\"idle\"}") +
                  at("landlord_cache_evictions_total{reason=\"split-empty\"}"),
              total(sim_result.counters.deletes, crash_result.counters.deletes));

  // Ladder reconciliation: rung counters vs degraded telemetry (the sim
  // phase is fault-free, so the crash replay owns every degraded rung).
  check_equal("rung{exact-fallback}",
              at("landlord_submit_rung_total{rung=\"exact-fallback\"}"),
              static_cast<double>(crash_result.degraded.fallback_exact_builds));
  check_equal("rung{unsplit-fallback}",
              at("landlord_submit_rung_total{rung=\"unsplit-fallback\"}"),
              static_cast<double>(crash_result.degraded.fallback_unsplit_hits));
  check_equal("rung{error}",
              at("landlord_submit_rung_total{rung=\"error\"}"),
              static_cast<double>(crash_result.degraded.error_placements));
  check_equal("build retries",
              at("landlord_submit_build_retries_total"),
              static_cast<double>(crash_result.degraded.retries));
  check_equal("checkpoints{torn}",
              at("landlord_checkpoints_total{result=\"torn\"}"),
              static_cast<double>(crash_result.torn_checkpoints));
  check_equal("crashes", at("landlord_crashes_total"),
              static_cast<double>(crash_result.crashes));
  check_equal("placement invariant violations",
              at("landlord_placement_invariant_violations_total"), 0.0);

  if (failures != 0) {
    std::cerr << failures << " reconciliation failure(s)\n";
    return 1;
  }
  std::cout << "metrics snapshot reconciles: " << snap.size() << " series, "
            << sim_result.counters.requests + crash_result.counters.requests
            << " requests, " << crash_result.crashes << " crashes\n";
  return 0;
}

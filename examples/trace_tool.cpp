// Trace tool: record and replay LANDLORD workload traces.
//
// The paper's evaluation is trace-driven; this tool makes traces durable
// artefacts so a workload can be captured once and replayed across cache
// configurations (or shared between sites for capacity planning).
//
//   $ ./trace_tool record <file> [unique-jobs] [repetitions] [seed]
//   $ ./trace_tool replay <file> [alpha] [cache e.g. 1.4TB]
//   $ ./trace_tool info   <file>
#include <cstdlib>
#include <iostream>
#include <string>

#include "landlord/sharded.hpp"
#include "pkg/synthetic.hpp"
#include "sim/trace.hpp"
#include "sim/workload.hpp"
#include "util/table.hpp"

namespace {

using namespace landlord;

int usage() {
  std::cerr << "usage:\n"
            << "  trace_tool record <file> [unique-jobs] [repetitions] [seed]\n"
            << "  trace_tool replay <file> [alpha] [cache-size]\n"
            << "  trace_tool info   <file>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string mode = argv[1];
  const std::string path = argv[2];

  const auto repo = pkg::default_repository(42);

  if (mode == "record") {
    sim::WorkloadConfig workload;
    workload.unique_jobs = argc > 3 ? static_cast<std::uint32_t>(std::atoi(argv[3])) : 100;
    workload.repetitions = argc > 4 ? static_cast<std::uint32_t>(std::atoi(argv[4])) : 5;
    const std::uint64_t seed = argc > 5 ? std::strtoull(argv[5], nullptr, 10) : 1;

    sim::WorkloadGenerator generator(repo, workload, util::Rng(seed));
    sim::Trace trace;
    trace.specs = generator.unique_specifications();
    trace.stream = generator.request_stream();
    if (!sim::save_trace(path, trace, repo)) {
      std::cerr << "cannot write " << path << '\n';
      return 1;
    }
    std::cout << "recorded " << trace.specs.size() << " unique jobs, "
              << trace.stream.size() << " requests to " << path << '\n';
    return 0;
  }

  auto loaded = sim::load_trace(path, repo);
  if (!loaded.ok()) {
    std::cerr << "trace error: " << loaded.error().message << '\n';
    return 1;
  }
  const auto& trace = loaded.value();

  if (mode == "info") {
    util::Bytes total_requested = 0;
    std::size_t max_spec = 0;
    for (const auto& spec : trace.specs) {
      total_requested += spec.bytes(repo);
      max_spec = std::max(max_spec, spec.size());
    }
    std::cout << "trace: " << trace.specs.size() << " unique jobs, "
              << trace.stream.size() << " requests\n"
              << "largest spec: " << max_spec << " packages\n"
              << "sum of unique-spec sizes: " << util::format_bytes(total_requested)
              << '\n';
    return 0;
  }

  if (mode == "replay") {
    core::CacheConfig config;
    config.alpha = argc > 3 ? std::atof(argv[3]) : 0.8;
    config.capacity = 1400ULL * 1000 * 1000 * 1000;
    if (argc > 4) {
      if (auto parsed = util::parse_bytes(argv[4])) {
        config.capacity = *parsed;
      } else {
        std::cerr << "unparseable cache size: " << argv[4] << '\n';
        return 1;
      }
    }
    core::ShardedCache cache(repo, config);
    for (auto index : trace.stream) (void)cache.request(trace.specs[index]);

    const auto& counters = cache.counters();
    std::cout << "replayed " << counters.requests << " requests at alpha="
              << config.alpha << ", cache " << util::format_bytes(config.capacity)
              << "\n  hits=" << counters.hits << " merges=" << counters.merges
              << " inserts=" << counters.inserts << " deletes=" << counters.deletes
              << "\n  cache efficiency " << util::fmt(100 * cache.cache_efficiency(), 1)
              << "%, container efficiency "
              << util::fmt(100 * counters.container_efficiency(), 1) << "%\n";
    return 0;
  }
  return usage();
}

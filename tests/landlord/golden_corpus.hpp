// Golden decision corpus: Algorithm 1's behaviour frozen as digests.
//
// One seeded request stream is replayed through a cache for every
// (α, merge policy, eviction policy, split, idle TTL, delta) combination.
// Each combination reduces to one text line of FNV-1a digests:
//
//   <key> outcomes=<hex> counters=<hex> snapshot=<hex> series=<hex>
//
//   outcomes — every request's kind, image id, image bytes, split flag
//              and requested bytes, in stream order;
//   counters — the final Algorithm 1 counters, write ledgers included;
//   snapshot — the v2 persistence snapshot of the final image set;
//   series   — every Fig. 5 time-series sample, field by field.
//
// tests/landlord/corpus/golden_decisions.txt holds the lines as the
// retired sequential cache produced them; golden_corpus_test.cpp replays
// every combination through the surviving engine at several shard counts
// with the decision index on and off and requires the same line.
// golden_corpus_gen.cpp prints the corpus for whichever cache type it is
// built against.
#pragma once

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "landlord/persist.hpp"
#include "pkg/synthetic.hpp"
#include "sim/workload.hpp"
#include "util/checksum.hpp"

namespace landlord::core::golden {

struct Combo {
  double alpha = 0.0;
  MergePolicy policy = MergePolicy::kBestFit;
  EvictionPolicy eviction = EvictionPolicy::kLru;
  bool split = false;
  std::uint64_t idle = 0;
  std::uint32_t delta = 0;
};

/// Every combination, in corpus-file order.
inline std::vector<Combo> combos() {
  std::vector<Combo> out;
  for (const double alpha : {0.0, 0.6, 1.0}) {
    for (const MergePolicy policy : {MergePolicy::kBestFit, MergePolicy::kFirstFit,
                                     MergePolicy::kMinHashLsh}) {
      for (const EvictionPolicy eviction :
           {EvictionPolicy::kLru, EvictionPolicy::kLfu,
            EvictionPolicy::kLargestFirst, EvictionPolicy::kHitDensity}) {
        for (const bool split : {false, true}) {
          for (const std::uint64_t idle : {std::uint64_t{0}, std::uint64_t{25}}) {
            for (const std::uint32_t delta : {0u, 2u}) {
              out.push_back({alpha, policy, eviction, split, idle, delta});
            }
          }
        }
      }
    }
  }
  return out;
}

/// The combination's corpus key, e.g.
/// "alpha=0.6 policy=1 eviction=lfu split=1 idle=25 delta=2".
inline std::string key(const Combo& combo) {
  std::ostringstream out;
  out << "alpha=" << combo.alpha << " policy=" << static_cast<int>(combo.policy)
      << " eviction=" << to_string(combo.eviction) << " split=" << combo.split
      << " idle=" << combo.idle << " delta=" << combo.delta;
  return out.str();
}

inline const pkg::Repository& repo() {
  static const pkg::Repository repository = [] {
    pkg::SyntheticRepoParams params;
    params.total_packages = 1200;
    auto result = pkg::generate_repository(params, 77);
    return std::move(result).value();
  }();
  return repository;
}

/// The replayed stream: 60 unique small specs, three repetitions, shuffled.
inline const std::vector<spec::Specification>& stream() {
  static const std::vector<spec::Specification> requests = [] {
    sim::WorkloadConfig workload;
    workload.unique_jobs = 60;
    workload.repetitions = 3;
    workload.max_initial_selection = 4;
    sim::WorkloadGenerator generator(repo(), workload, util::Rng(41));
    const auto specs = generator.unique_specifications();
    std::vector<spec::Specification> ordered;
    for (const std::uint32_t index : generator.request_stream()) {
      ordered.push_back(specs[index]);
    }
    return ordered;
  }();
  return requests;
}

inline CacheConfig config_of(const Combo& combo) {
  CacheConfig config;
  config.alpha = combo.alpha;
  config.policy = combo.policy;
  config.eviction = combo.eviction;
  config.enable_split = combo.split;
  config.split_utilization = 0.5;
  config.max_idle_requests = combo.idle;
  config.delta_chain_cap = combo.delta;
  config.capacity = repo().total_bytes() / 2;  // holds a handful of images
  config.record_time_series = true;
  return config;
}

/// Running FNV-1a over fixed-width little-endian words.
class Digest {
 public:
  void add(std::uint64_t value) {
    char bytes[8];
    for (char& byte : bytes) {
      byte = static_cast<char>(value & 0xffU);
      value >>= 8U;
    }
    state_ = util::fnv1a64(std::string_view(bytes, sizeof bytes), state_);
  }
  void add(std::string_view text) { state_ = util::fnv1a64(text, state_); }
  void add(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    add(bits);
  }
  [[nodiscard]] std::string hex() const {
    std::ostringstream out;
    out << std::hex << state_;
    return out.str();
  }

 private:
  std::uint64_t state_ = util::kFnv1aOffset;
};

/// Replays the stream through `cache` and returns the combination's
/// digests (everything after the key on a corpus line).
template <typename CacheT>
std::string digests(CacheT& cache) {
  Digest outcomes;
  for (const auto& spec : stream()) {
    const auto outcome = cache.request(spec);
    outcomes.add(static_cast<std::uint64_t>(outcome.kind));
    outcomes.add(to_value(outcome.image));
    outcomes.add(outcome.image_bytes);
    outcomes.add(std::uint64_t{outcome.split});
    outcomes.add(outcome.requested_bytes);
  }

  const CacheCounters c = cache.counters();
  Digest counters;
  for (const std::uint64_t value :
       {c.requests, c.hits, c.merges, c.inserts, c.deletes, c.splits,
        c.conflict_rejections, c.requested_bytes, c.written_bytes, c.delta_merges,
        c.repacks, c.delta_written_bytes, c.repack_written_bytes,
        c.full_rewrite_bytes}) {
    counters.add(value);
  }
  counters.add(c.container_efficiency_sum);

  std::ostringstream snapshot_text;
  save_cache(snapshot_text, cache, repo());
  Digest snapshot;
  snapshot.add(std::string_view(snapshot_text.str()));

  Digest series;
  const auto& recorded = cache.time_series();
  for (const RequestSample& s : recorded.samples()) {
    for (const std::uint64_t value :
         {static_cast<std::uint64_t>(s.kind), s.hits, s.inserts, s.deletes,
          s.merges, s.cached_bytes, s.unique_bytes, s.cumulative_written,
          s.cumulative_requested, s.image_count}) {
      series.add(value);
    }
  }

  return "outcomes=" + outcomes.hex() + " counters=" + counters.hex() +
         " snapshot=" + snapshot.hex() + " series=" + series.hex();
}

}  // namespace landlord::core::golden

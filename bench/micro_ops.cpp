// Micro-benchmarks (google-benchmark) for the primitives every cache
// request executes: Jaccard distance, subset tests, MinHash signing and
// LSH lookup, dependency closure, specification merge, a full cache
// request, the image builds that follow inserts and merges, and the
// head node's per-frame submit codec and requested-bytes sum. These
// quantify the claim that LANDLORD "spends very little time performing
// computation" (§VI) — decision costs are microseconds against I/O
// costs of seconds.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "landlord/sharded.hpp"
#include "pkg/synthetic.hpp"
#include "serve/loadgen.hpp"
#include "serve/protocol.hpp"
#include "shrinkwrap/builder.hpp"
#include "sim/workload.hpp"
#include "spec/jaccard.hpp"
#include "spec/minhash.hpp"

namespace {

using namespace landlord;

const pkg::Repository& repo() {
  static const pkg::Repository r = pkg::default_repository(42);
  return r;
}

spec::PackageSet random_closure(util::Rng& rng, std::uint32_t selection) {
  const auto indices = rng.sample_without_replacement(
      static_cast<std::uint32_t>(repo().size()), selection);
  std::vector<pkg::PackageId> ids;
  ids.reserve(indices.size());
  for (auto i : indices) ids.push_back(pkg::package_id(i));
  return spec::PackageSet(repo().closure_of(ids));
}

void BM_JaccardDistance(benchmark::State& state) {
  util::Rng rng(1);
  const auto a = random_closure(rng, static_cast<std::uint32_t>(state.range(0)));
  const auto b = random_closure(rng, static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(spec::jaccard_distance(a, b));
  }
}
BENCHMARK(BM_JaccardDistance)->Arg(10)->Arg(100)->Arg(1000);

void BM_SubsetCheck(benchmark::State& state) {
  util::Rng rng(2);
  const auto small = random_closure(rng, 10);
  auto big = random_closure(rng, static_cast<std::uint32_t>(state.range(0)));
  big.merge(small);
  for (auto _ : state) {
    benchmark::DoNotOptimize(small.is_subset_of(big));
  }
}
BENCHMARK(BM_SubsetCheck)->Arg(100)->Arg(1000);

void BM_DependencyClosure(benchmark::State& state) {
  util::Rng rng(3);
  const auto indices = rng.sample_without_replacement(
      static_cast<std::uint32_t>(repo().size()),
      static_cast<std::uint32_t>(state.range(0)));
  std::vector<pkg::PackageId> ids;
  for (auto i : indices) ids.push_back(pkg::package_id(i));
  for (auto _ : state) {
    benchmark::DoNotOptimize(repo().closure_of(ids));
  }
}
BENCHMARK(BM_DependencyClosure)->Arg(10)->Arg(100)->Arg(1000);

void BM_MinHashSign(benchmark::State& state) {
  util::Rng rng(4);
  const auto set = random_closure(rng, 100);
  const spec::MinHasher hasher(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hasher.sign(set));
  }
}
BENCHMARK(BM_MinHashSign)->Arg(64)->Arg(128)->Arg(256);

void BM_MinHashEstimate(benchmark::State& state) {
  util::Rng rng(5);
  const spec::MinHasher hasher(128);
  const auto a = hasher.sign(random_closure(rng, 100));
  const auto b = hasher.sign(random_closure(rng, 100));
  for (auto _ : state) {
    benchmark::DoNotOptimize(spec::MinHasher::estimate_similarity(a, b));
  }
}
BENCHMARK(BM_MinHashEstimate);

void BM_LshQuery(benchmark::State& state) {
  util::Rng rng(6);
  const spec::MinHasher hasher(128);
  spec::LshIndex index(32);
  for (std::uint64_t item = 0; item < static_cast<std::uint64_t>(state.range(0));
       ++item) {
    index.insert(item, hasher.sign(random_closure(rng, 50)));
  }
  const auto probe = hasher.sign(random_closure(rng, 50));
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.candidates(probe));
  }
}
BENCHMARK(BM_LshQuery)->Arg(100)->Arg(1000);

void BM_SpecificationMerge(benchmark::State& state) {
  util::Rng rng(7);
  const spec::Specification a{random_closure(rng, 100)};
  const spec::Specification b{random_closure(rng, 100)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.merged_with(b));
  }
}
BENCHMARK(BM_SpecificationMerge);

/// Full Algorithm 1 request against a warm cache of `range` images.
void BM_CacheRequest(benchmark::State& state) {
  core::CacheConfig config;
  config.alpha = 0.8;
  config.capacity = repo().total_bytes() * 10;
  core::ShardedCache cache(repo(), config);

  sim::WorkloadConfig workload;
  workload.unique_jobs = static_cast<std::uint32_t>(state.range(0));
  sim::WorkloadGenerator generator(repo(), workload, util::Rng(8));
  const auto specs = generator.unique_specifications();
  for (const auto& s : specs) (void)cache.request(s);

  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.request(specs[next]));
    next = (next + 1) % specs.size();
  }
}
BENCHMARK(BM_CacheRequest)->Arg(50)->Arg(200)->Arg(500);

/// Same request loop with Fig.-5 time-series recording on. Every request
/// samples unique_bytes(); the incremental union ledger answers that in
/// O(1), so this should sit within noise of BM_CacheRequest rather than
/// the old O(images × universe) per-request union recompute that made
/// time-series runs an order of magnitude slower at 500 images.
void BM_CacheRequestTimeSeries(benchmark::State& state) {
  core::CacheConfig config;
  config.alpha = 0.8;
  config.capacity = repo().total_bytes() * 10;
  config.record_time_series = true;
  core::ShardedCache cache(repo(), config);

  sim::WorkloadConfig workload;
  workload.unique_jobs = static_cast<std::uint32_t>(state.range(0));
  sim::WorkloadGenerator generator(repo(), workload, util::Rng(8));
  const auto specs = generator.unique_specifications();
  for (const auto& s : specs) (void)cache.request(s);

  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.request(specs[next]));
    next = (next + 1) % specs.size();
  }
}
BENCHMARK(BM_CacheRequestTimeSeries)->Arg(50)->Arg(200)->Arg(500);

void BM_CacheRequestMinHashPolicy(benchmark::State& state) {
  core::CacheConfig config;
  config.alpha = 0.8;
  config.capacity = repo().total_bytes() * 10;
  config.policy = core::MergePolicy::kMinHashLsh;
  core::ShardedCache cache(repo(), config);

  sim::WorkloadConfig workload;
  workload.unique_jobs = static_cast<std::uint32_t>(state.range(0));
  sim::WorkloadGenerator generator(repo(), workload, util::Rng(9));
  const auto specs = generator.unique_specifications();
  for (const auto& s : specs) (void)cache.request(s);

  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.request(specs[next]));
    next = (next + 1) % specs.size();
  }
}
BENCHMARK(BM_CacheRequestMinHashPolicy)->Arg(200)->Arg(500);

// ---- Sublinear decision path (CacheConfig::decision_index) ----
//
// The pairs below time the indexed probe against the naive O(images)
// scan it replaces, on identical warm caches of 100 / 1k / 10k images.
// scripts/bench_decision.sh runs them and records the speedups in
// BENCH_decision.json; the tier-1 perf gate fails if the indexed path is
// ever slower at >= 1k images.

/// A cache of `images` distinct adopted closures (no merging, no
/// eviction pressure), plus a rotation of specs that exactly match some
/// image — every probe is a superset hit, like the steady-state HTC
/// workload. peek_* probes bypass the memo and the LRU stamps, so the
/// postings/scan paths are timed head-to-head on frozen state.
std::unique_ptr<core::ShardedCache> warm_cache(
    std::int64_t images, bool decision_index,
    std::vector<spec::Specification>* probes = nullptr, bool adaptive = false) {
  core::CacheConfig config;
  config.alpha = 0.0;
  config.capacity = repo().total_bytes() * 1000;
  config.decision_index = decision_index;
  // Head-to-head timings pin the cutover off so _Index really probes the
  // postings at every size; _Adaptive keeps the default cutover to time
  // what a stock config actually does.
  if (!adaptive) config.scan_cutover = 0;
  auto cache = std::make_unique<core::ShardedCache>(repo(), config);

  util::Rng rng(10);
  for (std::int64_t i = 0; i < images; ++i) {
    auto contents = random_closure(rng, 12);
    if (probes != nullptr && (i % std::max<std::int64_t>(1, images / 64)) == 0) {
      probes->push_back(spec::Specification(contents));
    }
    (void)cache->adopt(std::move(contents), {}, /*hits=*/0, /*merge_count=*/0,
                       /*version=*/0);
  }
  return cache;
}

void BM_FindSuperset_Index(benchmark::State& state) {
  std::vector<spec::Specification> probes;
  auto cache = warm_cache(state.range(0), /*decision_index=*/true, &probes);
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache->peek_superset(probes[next]));
    next = (next + 1) % probes.size();
  }
}
BENCHMARK(BM_FindSuperset_Index)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_FindSuperset_Scan(benchmark::State& state) {
  std::vector<spec::Specification> probes;
  auto cache = warm_cache(state.range(0), /*decision_index=*/false, &probes);
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache->peek_superset(probes[next]));
    next = (next + 1) % probes.size();
  }
}
BENCHMARK(BM_FindSuperset_Scan)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

/// What a stock CacheConfig does: scan below scan_cutover, postings
/// probe above. The small-N regression gate in scripts/bench_decision.sh
/// holds this path to the scan's time at 10/100 images and to the
/// index's time at 1k/10k — the adaptive cutover must never lose to
/// whichever pure path is better at that size.
void BM_FindSuperset_Adaptive(benchmark::State& state) {
  std::vector<spec::Specification> probes;
  auto cache = warm_cache(state.range(0), /*decision_index=*/true, &probes,
                          /*adaptive=*/true);
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache->peek_superset(probes[next]));
    next = (next + 1) % probes.size();
  }
}
BENCHMARK(BM_FindSuperset_Adaptive)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_EvictVictim_Index(benchmark::State& state) {
  auto cache = warm_cache(state.range(0), /*decision_index=*/true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache->peek_victim());
  }
}
BENCHMARK(BM_EvictVictim_Index)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_EvictVictim_Scan(benchmark::State& state) {
  auto cache = warm_cache(state.range(0), /*decision_index=*/false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache->peek_victim());
  }
}
BENCHMARK(BM_EvictVictim_Scan)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

/// Full request() on a back-to-back repeated spec: after the first
/// iteration stores the decision, every request is a memo hit — the
/// steady-state cost of the HTC "same job resubmitted" fast path.
void BM_MemoHit(benchmark::State& state) {
  std::vector<spec::Specification> probes;
  auto cache = warm_cache(state.range(0), /*decision_index=*/true, &probes);
  const auto& spec = probes.front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache->request(spec));
  }
}
BENCHMARK(BM_MemoHit)->Arg(100)->Arg(1000)->Arg(10000);

/// Word-level early-exit of the subset check the scans lean on: the
/// probe's single extra bit sits at package `range`, so the word loop
/// aborts after range/64 words — position 0 exits on the first word,
/// the last position degenerates to the full-universe walk.
void BM_SubsetWordEarlyExit(benchmark::State& state) {
  const auto universe = static_cast<std::uint32_t>(repo().size());
  spec::PackageSet small(universe);
  spec::PackageSet big(universe);
  for (std::uint32_t i = 0; i < universe; ++i) big.insert(pkg::package_id(i));
  const auto mismatch = static_cast<std::uint32_t>(state.range(0));
  big.erase(pkg::package_id(mismatch));
  small.insert(pkg::package_id(mismatch));
  for (auto _ : state) {
    benchmark::DoNotOptimize(small.is_subset_of(big));
  }
}
BENCHMARK(BM_SubsetWordEarlyExit)->Arg(0)->Arg(4800)->Arg(9600);

// ---- SIMD kernel micros: the raw word-loop cost per backend over the
// full 9,660-package universe (151 words), no early exit — the floor
// every Jaccard/subset evaluation pays on a miss. Run per backend so
// BENCH_decision.json records the vector speedup directly.
void bench_kernel_pair(benchmark::State& state, const util::simd::SetOps& ops,
                       int which) {
  util::Rng rng(11);
  const auto a = random_closure(rng, 500);
  const auto b = random_closure(rng, 500);
  const auto* wa = a.bits().words().data();
  const auto* wb = b.bits().words().data();
  const std::size_t n = a.bits().word_count();
  for (auto _ : state) {
    switch (which) {
      case 0: benchmark::DoNotOptimize(ops.intersection_count(wa, wb, n)); break;
      case 1: benchmark::DoNotOptimize(ops.union_count(wa, wb, n)); break;
      case 2: benchmark::DoNotOptimize(ops.subset_of(wa, wb, n)); break;
      default: benchmark::DoNotOptimize(ops.popcount(wa, n)); break;
    }
  }
}

void BM_Kernel_Portable(benchmark::State& state) {
  bench_kernel_pair(state, util::simd::portable_ops(),
                    static_cast<int>(state.range(0)));
}
BENCHMARK(BM_Kernel_Portable)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_Kernel_Active(benchmark::State& state) {
  bench_kernel_pair(state, util::simd::active_ops(),
                    static_cast<int>(state.range(0)));
}
BENCHMARK(BM_Kernel_Active)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

/// Fused merge-with-count vs the old two-pass (|= then count) shape.
void BM_FusedOrCount(benchmark::State& state) {
  util::Rng rng(12);
  const auto a = random_closure(rng, 500);
  const auto b = random_closure(rng, 500);
  const bool fused = state.range(0) == 1;
  for (auto _ : state) {
    spec::PackageSet out = a;
    if (fused) {
      out.merge(b);  // fused kernel maintains the cardinality in-pass
      benchmark::DoNotOptimize(out.size());
    } else {
      util::DynamicBitset bits = out.bits();
      bits |= b.bits();
      benchmark::DoNotOptimize(bits.count());
    }
  }
}
BENCHMARK(BM_FusedOrCount)->Arg(0)->Arg(1);

// ---- Image builds. ImageBuilder walks a package's virtual files on the
// first build that contains it and folds cached per-package totals on
// every later build. Arg 0 times a build against a cold package table
// (a fresh builder per iteration, set-up untimed); Arg 1 against a warm
// one. The repository is 1500 packages, the head-node benchmark's size.

const pkg::Repository& build_repo() {
  static const pkg::Repository r = [] {
    pkg::SyntheticRepoParams params;
    params.total_packages = 1500;
    auto result = pkg::generate_repository(params, 7);
    return std::move(result).value();
  }();
  return r;
}

/// Two overlapping image specs: `a` is the image before a merge, and
/// `merged` is a ∪ b.
struct BuildSpecs {
  spec::Specification a;
  spec::Specification merged;
};

const BuildSpecs& build_specs() {
  static const BuildSpecs specs = [] {
    util::Rng rng(11);
    const auto closure = [&](std::uint32_t selection) {
      std::vector<pkg::PackageId> ids;
      for (auto i : rng.sample_without_replacement(
               static_cast<std::uint32_t>(build_repo().size()), selection)) {
        ids.push_back(pkg::package_id(i));
      }
      return spec::Specification::from_request(build_repo(), ids);
    };
    auto a = closure(40);
    auto b = closure(20);
    auto merged = a.merged_with(b);
    return BuildSpecs{std::move(a), std::move(merged)};
  }();
  return specs;
}

/// Times builds of `target`; `before` (may be empty) is built first on
/// every builder, untimed, as the image a merge rewrites.
void run_build(benchmark::State& state, const spec::Specification* before,
               const spec::Specification& target) {
  const bool warm = state.range(0) != 0;
  std::optional<shrinkwrap::ImageBuilder> builder;
  const auto fresh = [&] {
    builder.emplace(build_repo());
    if (before != nullptr) (void)builder->build(*before, 1);
  };
  fresh();
  if (warm) (void)builder->build(target, 1);
  std::uint64_t files = 0;
  for (auto _ : state) {
    if (!warm) {
      state.PauseTiming();
      fresh();
      state.ResumeTiming();
    }
    const auto built = builder->build(target, 1);
    benchmark::DoNotOptimize(built);
    files = built.files;
  }
  state.counters["files"] = static_cast<double>(files);
}

void BM_BuildInsert(benchmark::State& state) {
  run_build(state, nullptr, build_specs().a);
}
BENCHMARK(BM_BuildInsert)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_BuildMerge(benchmark::State& state) {
  run_build(state, &build_specs().a, build_specs().merged);
}
BENCHMARK(BM_BuildMerge)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// ---- The head node's hit path per frame: the client encodes one
// 256-spec kBatchSubmit frame, the server decodes it, and every decided
// spec's requested bytes are summed once. Specs are the load generator's
// catalog over the same 1500-package repository.

const std::vector<serve::SubmitRequest>& frame_specs() {
  static const std::vector<serve::SubmitRequest> specs = [] {
    auto catalog = serve::make_catalog(build_repo(), serve::LoadGenConfig{});
    catalog.resize(256);
    return catalog;
  }();
  return specs;
}

/// Items are specs; bytes, when given, are wire bytes.
void count_frame(benchmark::State& state, std::size_t wire_bytes = 0) {
  const auto frames = static_cast<std::int64_t>(state.iterations());
  state.SetItemsProcessed(frames * static_cast<std::int64_t>(frame_specs().size()));
  if (wire_bytes > 0) {
    state.SetBytesProcessed(frames * static_cast<std::int64_t>(wire_bytes));
  }
}

void BM_EncodeBatchSubmit(benchmark::State& state) {
  std::uint64_t request_id = 0;
  std::size_t wire_bytes = 0;
  for (auto _ : state) {
    const std::string wire = serve::encode_batch_submit(++request_id, frame_specs());
    benchmark::DoNotOptimize(wire.data());
    benchmark::ClobberMemory();
    wire_bytes = wire.size();
  }
  count_frame(state, wire_bytes);
}
BENCHMARK(BM_EncodeBatchSubmit)->Unit(benchmark::kMicrosecond);

void BM_DecodeBatchSubmit(benchmark::State& state) {
  const std::string wire = serve::encode_batch_submit(1, frame_specs());
  for (auto _ : state) {
    benchmark::DoNotOptimize(serve::decode_frame(wire, build_repo().size()));
  }
  count_frame(state, wire.size());
}
BENCHMARK(BM_DecodeBatchSubmit)->Unit(benchmark::kMicrosecond);

/// Requested bytes of each frame spec, one Repository::bytes_of per spec.
void BM_SpecBytes(benchmark::State& state) {
  std::vector<spec::Specification> specs;
  for (const auto& request : frame_specs()) {
    specs.push_back(serve::to_specification(request, build_repo().size()));
  }
  for (auto _ : state) {
    util::Bytes total = 0;
    for (const auto& spec : specs) total += spec.bytes(build_repo());
    benchmark::DoNotOptimize(total);
  }
  count_frame(state);
}
BENCHMARK(BM_SpecBytes)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();

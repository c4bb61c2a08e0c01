// Scaling study: decision cost vs. repository size and cache population.
//
// The paper recommends MinHash "for making an efficient first pass at
// selecting similar images when the number of packages or components is
// large" — metadata for full-repo CVMFS images ran to gigabytes. On the
// 9,660-package SFT universe exact bitset Jaccard is so cheap that
// MinHash loses; this bench sweeps repository sizes (and resident image
// counts) to locate the crossover where the constant-time approximation
// starts paying.
#include <benchmark/benchmark.h>

#include "landlord/sharded.hpp"
#include "pkg/synthetic.hpp"
#include "sim/workload.hpp"

namespace {

using namespace landlord;

const pkg::Repository& repo_of_size(std::uint32_t packages) {
  static std::unordered_map<std::uint32_t, pkg::Repository> repos;
  auto it = repos.find(packages);
  if (it == repos.end()) {
    pkg::SyntheticRepoParams params;
    params.total_packages = packages;
    auto result = pkg::generate_repository(params, 42);
    assert(result.ok());
    it = repos.emplace(packages, std::move(result).value()).first;
  }
  return it->second;
}

/// Warm a cache with `images` resident images over a repo of `packages`
/// packages, then measure steady-state request cost.
template <core::MergePolicy Policy>
void BM_RequestVsUniverse(benchmark::State& state) {
  const auto packages = static_cast<std::uint32_t>(state.range(0));
  const auto images = static_cast<std::uint32_t>(state.range(1));
  const auto& repo = repo_of_size(packages);

  core::CacheConfig config;
  config.alpha = 0.8;
  config.policy = Policy;
  config.capacity = repo.total_bytes() * 100;
  core::ShardedCache cache(repo, config);

  sim::WorkloadConfig workload;
  workload.unique_jobs = images;
  workload.max_initial_selection = std::max(4u, packages / 100);
  sim::WorkloadGenerator generator(repo, workload, util::Rng(1));
  const auto specs = generator.unique_specifications();
  for (const auto& spec : specs) (void)cache.request(spec);

  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.request(specs[next]));
    next = (next + 1) % specs.size();
  }
  state.SetLabel(std::to_string(packages) + " pkgs, " + std::to_string(images) +
                 " images");
}

BENCHMARK(BM_RequestVsUniverse<core::MergePolicy::kBestFit>)
    ->ArgsProduct({{2000, 9660, 40000}, {100, 400}})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RequestVsUniverse<core::MergePolicy::kMinHashLsh>)
    ->ArgsProduct({{2000, 9660, 40000}, {100, 400}})
    ->Unit(benchmark::kMicrosecond);

/// Raw pairwise comparison costs at growing universe sizes.
void BM_ExactJaccardVsUniverse(benchmark::State& state) {
  const auto packages = static_cast<std::uint32_t>(state.range(0));
  const auto& repo = repo_of_size(packages);
  util::Rng rng(2);
  auto make = [&]() {
    auto ids = rng.sample_without_replacement(packages, packages / 20);
    std::vector<pkg::PackageId> request;
    for (auto i : ids) request.push_back(pkg::package_id(i));
    return spec::PackageSet(repo.closure_of(request));
  };
  const auto a = make();
  const auto b = make();
  for (auto _ : state) {
    benchmark::DoNotOptimize(spec::jaccard_distance(a, b));
  }
}
BENCHMARK(BM_ExactJaccardVsUniverse)->Arg(2000)->Arg(9660)->Arg(40000)->Arg(100000);

void BM_MinHashEstimateVsUniverse(benchmark::State& state) {
  // Signature comparison cost is independent of the universe — that is
  // the point; signing cost is paid once per image change.
  const auto packages = static_cast<std::uint32_t>(state.range(0));
  const auto& repo = repo_of_size(packages);
  util::Rng rng(3);
  const spec::MinHasher hasher(128);
  auto make = [&]() {
    auto ids = rng.sample_without_replacement(packages, packages / 20);
    std::vector<pkg::PackageId> request;
    for (auto i : ids) request.push_back(pkg::package_id(i));
    return hasher.sign(spec::PackageSet(repo.closure_of(request)));
  };
  const auto a = make();
  const auto b = make();
  for (auto _ : state) {
    benchmark::DoNotOptimize(spec::MinHasher::estimate_similarity(a, b));
  }
}
BENCHMARK(BM_MinHashEstimateVsUniverse)->Arg(2000)->Arg(40000)->Arg(100000);

}  // namespace

BENCHMARK_MAIN();

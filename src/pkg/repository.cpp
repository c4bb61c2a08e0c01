#include "pkg/repository.hpp"

#include <algorithm>
#include <cassert>

#include "util/simd.hpp"

namespace landlord::pkg {

void RepositoryBuilder::add(Declaration declaration) {
  declarations_.push_back(std::move(declaration));
}

util::Result<Repository> RepositoryBuilder::build() && {
  Repository repo;
  repo.packages_.reserve(declarations_.size());
  repo.by_key_.reserve(declarations_.size());

  // Pass 1: register keys.
  for (std::size_t i = 0; i < declarations_.size(); ++i) {
    const auto& d = declarations_[i];
    if (d.name.empty() || d.version.empty()) {
      return util::Error{"package " + std::to_string(i) + ": empty name or version"};
    }
    PackageInfo info;
    info.name = d.name;
    info.version = d.version;
    info.size = d.size;
    info.tier = d.tier;
    auto [it, inserted] = repo.by_key_.emplace(info.key(), package_id(static_cast<std::uint32_t>(i)));
    if (!inserted) {
      return util::Error{"duplicate package key: " + info.key()};
    }
    repo.packages_.push_back(std::move(info));
  }

  // Pass 2: resolve dependency keys to ids.
  for (std::size_t i = 0; i < declarations_.size(); ++i) {
    auto& info = repo.packages_[i];
    info.deps.reserve(declarations_[i].dep_keys.size());
    for (const auto& dep_key : declarations_[i].dep_keys) {
      auto it = repo.by_key_.find(dep_key);
      if (it == repo.by_key_.end()) {
        return util::Error{"package " + info.key() + ": unresolved dependency " + dep_key};
      }
      if (to_index(it->second) == i) {
        return util::Error{"package " + info.key() + ": depends on itself"};
      }
      info.deps.push_back(it->second);
    }
    // Deduplicate dependency edges; keeps closures and reverse edges tidy.
    std::sort(info.deps.begin(), info.deps.end(),
              [](PackageId a, PackageId b) { return to_index(a) < to_index(b); });
    info.deps.erase(std::unique(info.deps.begin(), info.deps.end()), info.deps.end());
  }

  const std::size_t n = repo.packages_.size();

  // Kahn's algorithm over edges oriented package -> dependency: peel
  // packages whose dependencies have all been placed, so the resulting
  // order lists dependencies before dependents (and detects cycles).
  std::vector<std::uint32_t> unplaced_deps(n);
  for (std::size_t i = 0; i < n; ++i) {
    unplaced_deps[i] = static_cast<std::uint32_t>(repo.packages_[i].deps.size());
  }
  repo.reverse_deps_.assign(n, {});
  for (std::size_t i = 0; i < n; ++i) {
    for (PackageId dep : repo.packages_[i].deps) {
      repo.reverse_deps_[to_index(dep)].push_back(package_id(static_cast<std::uint32_t>(i)));
    }
  }
  std::vector<PackageId> frontier;
  for (std::size_t i = 0; i < n; ++i) {
    if (unplaced_deps[i] == 0) frontier.push_back(package_id(static_cast<std::uint32_t>(i)));
  }
  repo.topo_order_.reserve(n);
  while (!frontier.empty()) {
    const PackageId id = frontier.back();
    frontier.pop_back();
    repo.topo_order_.push_back(id);
    for (PackageId dependent : repo.reverse_deps_[to_index(id)]) {
      if (--unplaced_deps[to_index(dependent)] == 0) frontier.push_back(dependent);
    }
  }
  if (repo.topo_order_.size() != n) {
    return util::Error{"dependency graph contains a cycle"};
  }

  // Precompute closures in topological order: closure(p) = {p} ∪ ⋃ closure(dep).
  repo.closures_.assign(n, util::DynamicBitset(n));
  for (PackageId id : repo.topo_order_) {
    auto& closure = repo.closures_[to_index(id)];
    closure.set(to_index(id));
    for (PackageId dep : repo.packages_[to_index(id)].deps) {
      closure |= repo.closures_[to_index(dep)];
    }
  }

  repo.sizes_.assign((n + 63) / 64 * 64, 0);
  repo.total_bytes_ = 0;
  for (std::size_t i = 0; i < n; ++i) {
    repo.sizes_[i] = repo.packages_[i].size;
    repo.total_bytes_ += repo.packages_[i].size;
  }

  return repo;
}

std::optional<PackageId> Repository::find(std::string_view key) const {
  auto it = by_key_.find(std::string(key));
  if (it == by_key_.end()) return std::nullopt;
  return it->second;
}

std::vector<PackageId> Repository::packages_in_tier(PackageTier tier) const {
  std::vector<PackageId> out;
  for (std::size_t i = 0; i < packages_.size(); ++i) {
    if (packages_[i].tier == tier) out.push_back(package_id(static_cast<std::uint32_t>(i)));
  }
  return out;
}

util::DynamicBitset Repository::closure_of(std::span<const PackageId> selection) const {
  util::DynamicBitset out(size());
  for (PackageId id : selection) {
    assert(to_index(id) < size());
    out |= closures_[to_index(id)];
  }
  return out;
}

util::Bytes Repository::bytes_of(const util::DynamicBitset& set) const {
  assert(set.size() == size());
  return util::simd::active_ops().weighted_sum(set.words().data(), sizes_.data(),
                                               set.word_count());
}

}  // namespace landlord::pkg

// Immutable, validated package repository with dependency-graph queries.
//
// RepositoryBuilder accumulates packages and name-based dependency edges,
// then Repository::build() resolves edges, rejects duplicates/dangling
// references/cycles, and precomputes per-package transitive closures as
// dense bitsets so workload generation (which computes closures for every
// simulated job) is O(words) per package.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "pkg/package.hpp"
#include "util/bitset.hpp"
#include "util/bytes.hpp"
#include "util/result.hpp"

namespace landlord::pkg {

class Repository;

/// Accumulates package declarations before validation. Dependencies are
/// declared by key ("name/version") so declaration order is irrelevant.
class RepositoryBuilder {
 public:
  struct Declaration {
    std::string name;
    std::string version;
    util::Bytes size = 0;
    PackageTier tier = PackageTier::kLeaf;
    std::vector<std::string> dep_keys;
  };

  /// Declares a package; duplicate keys are caught at build().
  void add(Declaration declaration);

  [[nodiscard]] std::size_t declared() const noexcept { return declarations_.size(); }

  /// Validates and produces the immutable repository:
  ///  * keys must be unique,
  ///  * every dep key must resolve,
  ///  * the dependency graph must be acyclic.
  [[nodiscard]] util::Result<Repository> build() &&;

 private:
  std::vector<Declaration> declarations_;
};

class Repository {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return packages_.size(); }

  [[nodiscard]] const PackageInfo& operator[](PackageId id) const noexcept {
    return packages_[to_index(id)];
  }

  /// Looks up a package by its "name/version" key.
  [[nodiscard]] std::optional<PackageId> find(std::string_view key) const;

  /// All package ids in a tier, in id order.
  [[nodiscard]] std::vector<PackageId> packages_in_tier(PackageTier tier) const;

  /// Transitive dependency closure of `id`, *including* `id` itself,
  /// as a bitset over the package universe. O(1): precomputed.
  [[nodiscard]] const util::DynamicBitset& closure(PackageId id) const noexcept {
    return closures_[to_index(id)];
  }

  /// Union of closures over a selection (the "image contents" for a
  /// requested package selection, §VI "Simulating HTC Jobs").
  [[nodiscard]] util::DynamicBitset closure_of(std::span<const PackageId> selection) const;

  /// Total on-disk bytes of the packages whose bits are set.
  [[nodiscard]] util::Bytes bytes_of(const util::DynamicBitset& set) const;

  /// Direct reverse dependencies (packages that list `id` as a direct dep).
  [[nodiscard]] std::span<const PackageId> dependents(PackageId id) const noexcept {
    return reverse_deps_[to_index(id)];
  }

  /// Ids in a topological order (dependencies before dependents).
  [[nodiscard]] std::span<const PackageId> topological_order() const noexcept {
    return topo_order_;
  }

  /// Sum of all package sizes — the paper's "full repo" size (Fig. 2).
  [[nodiscard]] util::Bytes total_bytes() const noexcept { return total_bytes_; }

  /// An all-zero bitset over this repository's universe.
  [[nodiscard]] util::DynamicBitset empty_set() const {
    return util::DynamicBitset(size());
  }

 private:
  friend class RepositoryBuilder;
  Repository() = default;

  std::vector<PackageInfo> packages_;
  /// packages_[i].size, contiguous and zero-padded to a whole number of
  /// 64-package words: bytes_of hands it to the weighted-sum kernel,
  /// which reads one 64-entry block per bitset word.
  std::vector<util::Bytes> sizes_;
  std::unordered_map<std::string, PackageId> by_key_;
  std::vector<util::DynamicBitset> closures_;
  std::vector<std::vector<PackageId>> reverse_deps_;
  std::vector<PackageId> topo_order_;
  util::Bytes total_bytes_ = 0;
};

}  // namespace landlord::pkg

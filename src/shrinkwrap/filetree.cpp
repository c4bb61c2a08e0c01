#include "shrinkwrap/filetree.hpp"

#include <algorithm>
#include <unordered_map>

#include "util/rng.hpp"

namespace landlord::shrinkwrap {

namespace {

/// Stable 64-bit hash of a string (FNV-1a).
std::uint64_t hash_string(const std::string& text) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char ch : text) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr std::uint64_t mix(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t h = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

}  // namespace

FileTreeModel::FileTreeModel(const pkg::Repository& repo, FileTreeParams params)
    : repo_(&repo), params_(params) {
  // Identify each package's predecessor version: same project name, the
  // greatest version below it in declaration order. The synthetic
  // generator declares versions consecutively, so a linear scan keyed on
  // name finds predecessors for any repository layout.
  prev_version_.assign(repo.size(), -1);
  key_hash_.resize(repo.size());
  std::unordered_map<std::string, std::uint32_t> last_seen;
  for (std::uint32_t i = 0; i < repo.size(); ++i) {
    const auto& info = repo[pkg::package_id(i)];
    key_hash_[i] = hash_string(info.key());
    auto it = last_seen.find(info.name);
    if (it != last_seen.end()) {
      prev_version_[i] = static_cast<std::int32_t>(it->second);
      it->second = i;
    } else {
      last_seen.emplace(info.name, i);
    }
  }
}

namespace {

/// Number of virtual files a package expands into.
std::uint32_t file_count(const pkg::PackageInfo& info, const FileTreeParams& params) {
  const auto want = static_cast<std::uint32_t>(
      info.size / std::max<util::Bytes>(1, params.mean_file_size));
  return std::clamp(want, params.min_files, params.max_files);
}

/// Did this package's build change file index f relative to its
/// predecessor version? Always true for the first version.
bool changed_file(std::uint64_t pkg_hash, std::uint32_t f, bool has_prev,
                  double share_probability) {
  if (!has_prev) return true;
  util::Rng coin(mix(pkg_hash, f));
  return coin.uniform_double() >= share_probability;
}

}  // namespace

std::vector<VirtualFile> FileTreeModel::files(pkg::PackageId id) const {
  const auto& info = (*repo_)[id];
  const std::uint32_t count = file_count(info, params_);

  std::vector<VirtualFile> out;
  out.reserve(count);

  for (std::uint32_t f = 0; f < count; ++f) {
    // Walk the version chain back to the *anchor*: the most recent
    // ancestor (possibly this package) whose build changed file f. All
    // versions sharing the anchor share content hash AND size, which is
    // what a content-addressed store requires.
    auto owner_index = pkg::to_index(id);
    for (;;) {
      const std::int32_t prev = prev_version_[owner_index];
      if (changed_file(key_hash_[owner_index], f, prev >= 0,
                       params_.version_share_probability)) {
        break;
      }
      owner_index = static_cast<std::uint32_t>(prev);
    }

    const auto& owner_info = (*repo_)[pkg::package_id(owner_index)];
    VirtualFile file;
    file.path = "f" + std::to_string(f);
    file.content = mix(key_hash_[owner_index], 0x66696c65ULL + f);
    // File size is derived from the anchor owner's per-file budget, so
    // every package inheriting this content agrees on the size and tree
    // totals stay near the declared package size.
    const double base = static_cast<double>(owner_info.size) /
                        static_cast<double>(file_count(owner_info, params_));
    util::Rng size_rng(mix(file.content, 1));
    file.size = std::max<util::Bytes>(
        1, static_cast<util::Bytes>(base * (0.5 + size_rng.uniform_double())));
    out.push_back(std::move(file));
  }
  return out;
}

util::Bytes FileTreeModel::tree_bytes(pkg::PackageId id) const {
  util::Bytes total = 0;
  for (const auto& file : files(id)) total += file.size;
  return total;
}

}  // namespace landlord::shrinkwrap

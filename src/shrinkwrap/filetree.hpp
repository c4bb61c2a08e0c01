// Virtual per-package file trees.
//
// Shrinkwrap materialises images at file granularity from CVMFS. We
// model each package as a deterministic list of virtual files (path,
// size, content hash) derived from the package's identity and size.
// Consecutive versions of the same project share most file contents —
// matching CVMFS, where a rebuild changes only some files — which is what
// makes the CAS dedup numbers (and the full-repo-image economics the
// paper discusses in §III) realistic.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pkg/repository.hpp"
#include "shrinkwrap/cas.hpp"
#include "util/bytes.hpp"

namespace landlord::shrinkwrap {

struct VirtualFile {
  std::string path;    ///< path inside the package prefix
  util::Bytes size = 0;
  ChunkHash content = 0;
};

struct FileTreeParams {
  /// Mean file size; file count scales as package size / mean (clamped).
  util::Bytes mean_file_size = 4 * util::kMiB;
  std::uint32_t min_files = 3;
  std::uint32_t max_files = 256;
  /// Probability that a file's content is identical to the same path in
  /// the project's previous version (CVMFS-style cross-version sharing).
  double version_share_probability = 0.7;
};

/// Deterministically expands packages into virtual file trees. Two
/// FileTreeModels over the same repository and params agree exactly.
class FileTreeModel {
 public:
  explicit FileTreeModel(const pkg::Repository& repo, FileTreeParams params = {});

  /// The file listing for a package. Deterministic; computed on demand.
  [[nodiscard]] std::vector<VirtualFile> files(pkg::PackageId id) const;

  /// Sum of file sizes for a package; equals the repository package size
  /// up to rounding (the last file absorbs the remainder).
  [[nodiscard]] util::Bytes tree_bytes(pkg::PackageId id) const;

 private:
  const pkg::Repository* repo_;
  FileTreeParams params_;
  // id of the previous version of the same project, if any (for sharing).
  std::vector<std::int32_t> prev_version_;
  // hash of each package's key(), the seed of its file contents.
  std::vector<std::uint64_t> key_hash_;
};

}  // namespace landlord::shrinkwrap

// Shrinkwrap image builder: materialises a specification into a
// container image, reporting the quantities the paper measures (Fig. 2):
// image byte size, file count, and modelled preparation time
// ("the amount of time required to create such an image by downloading
// the contents via Shrinkwrap and compressing the resulting data").
//
// The time model is calibrated against Fig. 2's empirical band — a few
// GB of minimal image takes roughly 40-120 s to prepare — and is a
// deterministic function of bytes and file count, so merge-cost
// accounting in the simulator is hardware-independent (the paper makes
// the same choice, using cumulative bytes written as the overhead metric).
//
// Delta builds: the paper charges every merge with a full image rewrite.
// When a DeltaBuildConfig is enabled and the caller names the image being
// (re)built, the builder expands the image into content-defined chunks
// (chunker.hpp) and records it in a delta-chained ImageStore — the write
// charge becomes only the chunks new to the chain plus a manifest, with
// periodic repacks. Decision-relevant outputs (bytes, fetched_bytes,
// files, content_digest) are bit-identical with the store on or off; only
// the write accounting and prep time differ.
//
// Composed builds: every quantity a build reports folds per package, so
// the builder walks a package's virtual files once — on the first build
// that contains it — and caches its byte total, file count, XOR content
// digest, (content hash, size) list and, with delta storage on, its
// chunk spans. Later builds sum and XOR the cached totals and still add
// one chunk-cache reference per file, so fetched_bytes and the chunk
// ledger stay exact (docs/cas_delta.md, "Composed builds").
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault.hpp"
#include "pkg/repository.hpp"
#include "shrinkwrap/cas.hpp"
#include "shrinkwrap/filetree.hpp"
#include "shrinkwrap/imagestore.hpp"
#include "spec/specification.hpp"
#include "util/bytes.hpp"
#include "util/result.hpp"

namespace landlord::shrinkwrap {

/// Sentinel for "not a tracked image" — the build bypasses the delta
/// store (exact-match rebuilds, probes) and is charged as a full write.
inline constexpr std::uint64_t kNoImageKey = ~std::uint64_t{0};

/// Result of materialising one image.
struct BuiltImage {
  util::Bytes bytes = 0;          ///< logical image size (sum of file sizes)
  util::Bytes fetched_bytes = 0;  ///< bytes actually downloaded (CAS misses)
  std::uint64_t files = 0;        ///< file count in the image
  double prep_seconds = 0.0;      ///< modelled preparation time
  /// Combined digest of every file's content hash — the identity a
  /// content-level cache would compare. With build noise enabled this
  /// differs between builds of identical specifications (§IV).
  std::uint64_t content_digest = 0;
  /// Bytes written to image storage: `bytes` under full-rewrite
  /// accounting; the delta receipt (new chunks + manifest) otherwise.
  util::Bytes written_bytes = 0;
  std::uint32_t chain_depth = 0;  ///< delta generations after this build
  bool delta_write = false;       ///< written as a delta generation
  bool repacked = false;          ///< this build flattened the chain
};

struct BuildTimeModel {
  double fixed_overhead_s = 18.0;        ///< mount, catalog walk, image init
  double download_bytes_per_s = 180e6;   ///< WAN fetch of missing chunks
  double compress_bytes_per_s = 350e6;   ///< squashfs/compression pass
  double per_file_s = 0.0006;            ///< metadata and small-file cost
  /// Flat cost of a delta write (open the chain, diff manifests, fsync
  /// the new generation) — paid instead of compressing the full image.
  double delta_overhead_s = 1.5;
};

/// Build nondeterminism model (§IV: "almost all build systems will
/// produce variations in timestamps, logs, configuration files, etc.
/// that make direct comparison of images difficult"). When enabled,
/// every build invocation emits `noise_files` files with build-unique
/// content, so two builds of the *same* specification produce images
/// with different content digests — demonstrating why LANDLORD compares
/// specifications rather than image contents.
struct BuildNoiseModel {
  std::uint32_t noise_files = 0;  ///< per-build unique files (0 = deterministic)
  util::Bytes noise_file_bytes = 64 * util::kKiB;
};

/// Chunk-level delta storage for built images. Disabled by default —
/// every build is then charged as a full rewrite, the paper's model.
struct DeltaBuildConfig {
  bool enabled = false;
  ImageStoreConfig store;
};

/// Builds images from specifications against a repository. A local CAS
/// cache persists across builds (chunks already fetched are not fetched
/// again), mirroring Shrinkwrap's cache directory on the head node.
class ImageBuilder {
 public:
  ImageBuilder(const pkg::Repository& repo, FileTreeParams tree_params = {},
               BuildTimeModel time_model = {}, BuildNoiseModel noise = {},
               DeltaBuildConfig delta = {});

  /// Materialises `spec` (whose package set must already be
  /// dependency-closed). Updates the local chunk cache. When the delta
  /// store is enabled and `image_key` names a tracked image, the result
  /// is recorded there and `written_bytes` reflects the delta receipt.
  [[nodiscard]] BuiltImage build(const spec::Specification& spec,
                                 std::uint64_t image_key = kNoImageKey);

  /// Fallible build: consults `faults` (may be null) before any state
  /// changes, so a failed attempt leaves the builder — chunk cache and
  /// build counter — untouched and is safely retryable. With a null
  /// injector or an empty plan this is bit-identical to build().
  /// `op` names the operation class being attempted (a fresh download
  /// vs. the rewrite of a merged image) so fault plans can target them
  /// independently.
  [[nodiscard]] util::Result<BuiltImage> try_build(
      const spec::Specification& spec, fault::FaultInjector* faults = nullptr,
      fault::FaultOp op = fault::FaultOp::kBuilderDownload,
      std::uint64_t image_key = kNoImageKey);

  /// The persistent local chunk cache (download dedup).
  [[nodiscard]] const Cas& chunk_cache() const noexcept { return cache_; }

  /// The delta-chained image store (meaningful when delta is enabled).
  /// Mutable: the cache owner drops evicted images and clears the store
  /// on restore.
  [[nodiscard]] ImageStore& image_store() noexcept { return store_; }
  [[nodiscard]] const ImageStore& image_store() const noexcept { return store_; }

  [[nodiscard]] bool delta_enabled() const noexcept { return delta_.enabled; }

  /// Prep time for an image of `bytes`/`files` when `fetched` bytes must
  /// be downloaded; exposed for direct calibration tests. The four-arg
  /// overload charges the compression pass on `written` bytes instead of
  /// the full image (the delta path); with written == bytes the two
  /// agree exactly.
  [[nodiscard]] double model_seconds(util::Bytes bytes, util::Bytes fetched,
                                     std::uint64_t files) const noexcept;
  [[nodiscard]] double model_seconds(util::Bytes bytes, util::Bytes fetched,
                                     std::uint64_t files,
                                     util::Bytes written) const noexcept;

 private:
  /// One package's build contribution: its files are files_[first_file,
  /// first_file + file_count) and, with delta storage on, its chunk
  /// spans are spans_[first_span, first_span + span_count).
  struct PackageEntry {
    bool filled = false;
    util::Bytes bytes = 0;
    std::uint64_t digest = 0;  ///< XOR of the files' digest terms
    std::size_t first_file = 0;
    std::size_t file_count = 0;
    std::size_t first_span = 0;
    std::size_t span_count = 0;
  };

  /// The package's entry, walking its files on first use.
  const PackageEntry& package_entry(pkg::PackageId id);

  const pkg::Repository* repo_;
  FileTreeModel trees_;
  BuildTimeModel time_model_;
  BuildNoiseModel noise_;
  DeltaBuildConfig delta_;
  std::uint64_t build_counter_ = 0;
  Cas cache_;
  ImageStore store_;
  std::vector<PackageEntry> packages_;  ///< indexed by package id
  std::vector<ChunkRef> files_;  ///< (content hash, size) of cached files
  std::vector<ChunkRef> spans_;  ///< model_chunks spans of cached files
};

}  // namespace landlord::shrinkwrap

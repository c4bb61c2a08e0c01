#include "shrinkwrap/builder.hpp"

#include <cassert>
#include <span>
#include <vector>

namespace landlord::shrinkwrap {

namespace {
constexpr std::uint64_t digest_mix(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t h = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}
}  // namespace

ImageBuilder::ImageBuilder(const pkg::Repository& repo,
                           FileTreeParams tree_params, BuildTimeModel time_model,
                           BuildNoiseModel noise, DeltaBuildConfig delta)
    : repo_(&repo),
      trees_(repo, tree_params),
      time_model_(time_model),
      noise_(noise),
      delta_(delta),
      store_(delta.store),
      packages_(repo.size()) {}

const ImageBuilder::PackageEntry& ImageBuilder::package_entry(pkg::PackageId id) {
  PackageEntry& entry = packages_[pkg::to_index(id)];
  if (entry.filled) return entry;
  entry.filled = true;
  entry.first_file = files_.size();
  entry.first_span = spans_.size();
  for (const VirtualFile& file : trees_.files(id)) {
    entry.bytes += file.size;
    entry.digest ^= digest_mix(file.content, file.size);
    files_.push_back({file.content, file.size});
    if (delta_.enabled) {
      const auto spans = model_chunks(file.content, file.size, delta_.store.chunker);
      spans_.insert(spans_.end(), spans.begin(), spans.end());
    }
  }
  entry.file_count = files_.size() - entry.first_file;
  entry.span_count = spans_.size() - entry.first_span;
  return entry;
}

double ImageBuilder::model_seconds(util::Bytes bytes, util::Bytes fetched,
                                   std::uint64_t files) const noexcept {
  return model_seconds(bytes, fetched, files, bytes);
}

double ImageBuilder::model_seconds(util::Bytes bytes, util::Bytes fetched,
                                   std::uint64_t files,
                                   util::Bytes written) const noexcept {
  (void)bytes;
  return time_model_.fixed_overhead_s +
         static_cast<double>(fetched) / time_model_.download_bytes_per_s +
         static_cast<double>(written) / time_model_.compress_bytes_per_s +
         static_cast<double>(files) * time_model_.per_file_s;
}

util::Result<BuiltImage> ImageBuilder::try_build(const spec::Specification& spec,
                                                 fault::FaultInjector* faults,
                                                 fault::FaultOp op,
                                                 std::uint64_t image_key) {
  if (faults != nullptr && faults->should_fail(op)) {
    return util::Error{std::string("injected ") + fault::to_string(op) +
                       " failure (occurrence " +
                       std::to_string(faults->occurrences(op) - 1) + ")"};
  }
  return build(spec, image_key);
}

BuiltImage ImageBuilder::build(const spec::Specification& spec,
                               std::uint64_t image_key) {
  ++build_counter_;
  BuiltImage out;
  const bool track = delta_.enabled && image_key != kNoImageKey;
  std::vector<ChunkRef> tree;
  // Order-independent content digest: XOR of per-file mixed hashes, so
  // two images with identical file contents digest identically (and a
  // package's XOR can stand in for its files').
  std::uint64_t digest = 0;
  // Every file takes one chunk-cache reference per build; a file is
  // fetched when its content enters the cache. Same content always
  // re-registers with the same size (sizes are derived from the content
  // hash), so add_chunk cannot fail.
  const auto reference = [this](ChunkHash content, util::Bytes size) {
    auto added = cache_.add_chunk(content, size);
    assert(added.ok());
    return added.ok() && added.value();
  };
  spec.packages().for_each([&](pkg::PackageId id) {
    const PackageEntry& entry = package_entry(id);
    out.bytes += entry.bytes;
    out.files += entry.file_count;
    digest ^= entry.digest;
    for (const ChunkRef& file :
         std::span(files_).subspan(entry.first_file, entry.file_count)) {
      if (reference(file.hash, file.size)) out.fetched_bytes += file.size;
    }
    if (track) {
      const auto spans = std::span(spans_).subspan(entry.first_span, entry.span_count);
      tree.insert(tree.end(), spans.begin(), spans.end());
    }
  });
  // Build noise: timestamps, logs, byproducts unique to this invocation.
  // Locally generated, so never downloaded.
  for (std::uint32_t n = 0; n < noise_.noise_files; ++n) {
    const ChunkHash noise_chunk =
        digest_mix(0x6e6f697365ULL + build_counter_, n);
    const util::Bytes size = noise_.noise_file_bytes;
    out.bytes += size;
    ++out.files;
    (void)reference(noise_chunk, size);
    digest ^= digest_mix(noise_chunk, size);
    if (track) {
      const auto spans = model_chunks(noise_chunk, size, delta_.store.chunker);
      tree.insert(tree.end(), spans.begin(), spans.end());
    }
  }
  out.content_digest = digest;

  out.written_bytes = out.bytes;  // the paper's full-rewrite charge
  bool delta_write = false;
  if (track) {
    auto receipt = store_.put(image_key, tree);
    // A put error (chunk-identity collision) falls back to full-rewrite
    // accounting rather than failing the build: the image itself is
    // fine, only its delta bookkeeping is not.
    if (receipt.ok()) {
      out.written_bytes = receipt.value().bytes_written;
      out.chain_depth = receipt.value().chain_depth;
      out.delta_write = receipt.value().delta;
      out.repacked = receipt.value().repacked;
      delta_write = receipt.value().delta;
    }
  }
  out.prep_seconds =
      model_seconds(out.bytes, out.fetched_bytes, out.files, out.written_bytes) +
      (delta_write ? time_model_.delta_overhead_s : 0.0);
  return out;
}

}  // namespace landlord::shrinkwrap

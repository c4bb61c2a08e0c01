// Composition oracle for ImageBuilder::build.
//
// The builder caches each package's totals, digest, file list and chunk
// spans on first use and folds them on every later build. The oracle
// here is the per-file walk it replaced: every file of every package
// expanded through FileTreeModel::files on every build, one chunk-cache
// reference and one digest term per file. Both run the same build
// sequence (random specs, overlapping versions of one project, repeated
// builds, build noise, delta storage on and off) and must agree on every
// BuiltImage field and on the chunk cache's whole ledger.
#include "shrinkwrap/builder.hpp"

#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "pkg/synthetic.hpp"
#include "shrinkwrap/chunker.hpp"
#include "util/rng.hpp"

namespace landlord::shrinkwrap {
namespace {

const pkg::Repository& repo() {
  static const pkg::Repository r = [] {
    pkg::SyntheticRepoParams params;
    params.total_packages = 500;
    auto result = pkg::generate_repository(params, 41);
    EXPECT_TRUE(result.ok());
    return std::move(result).value();
  }();
  return r;
}

spec::Specification spec_for(const std::vector<std::uint32_t>& ids) {
  std::vector<pkg::PackageId> request;
  for (auto i : ids) request.push_back(pkg::package_id(i));
  return spec::Specification::from_request(repo(), request);
}

std::uint64_t digest_mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t h = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

/// The per-file build walk: no per-package state at all.
class ReferenceBuilder {
 public:
  ReferenceBuilder(BuildNoiseModel noise, DeltaBuildConfig delta)
      : trees_(repo()),
        model_(repo()),
        noise_(noise),
        delta_(delta),
        store_(delta.store) {}

  BuiltImage build(const spec::Specification& spec, std::uint64_t image_key) {
    ++build_counter_;
    BuiltImage out;
    const bool track = delta_.enabled && image_key != kNoImageKey;
    std::vector<ChunkRef> tree;
    std::uint64_t digest = 0;
    const auto record = [&](ChunkHash content, util::Bytes size, bool local) {
      out.bytes += size;
      ++out.files;
      if (!local && !cache_.contains(content)) out.fetched_bytes += size;
      EXPECT_TRUE(cache_.add_chunk(content, size).ok());
      digest ^= digest_mix(content, size);
      if (track) {
        const auto spans = model_chunks(content, size, delta_.store.chunker);
        tree.insert(tree.end(), spans.begin(), spans.end());
      }
    };
    spec.packages().for_each([&](pkg::PackageId id) {
      for (const auto& file : trees_.files(id)) record(file.content, file.size, false);
    });
    for (std::uint32_t n = 0; n < noise_.noise_files; ++n) {
      record(digest_mix(0x6e6f697365ULL + build_counter_, n),
             noise_.noise_file_bytes, true);
    }
    out.content_digest = digest;
    out.written_bytes = out.bytes;
    if (track) {
      const auto receipt = store_.put(image_key, tree);
      EXPECT_TRUE(receipt.ok());
      out.written_bytes = receipt.value().bytes_written;
      out.chain_depth = receipt.value().chain_depth;
      out.delta_write = receipt.value().delta;
      out.repacked = receipt.value().repacked;
    }
    // The time model is not what is under test; the walk feeding it is.
    out.prep_seconds =
        model_.model_seconds(out.bytes, out.fetched_bytes, out.files,
                             out.written_bytes) +
        (out.delta_write ? BuildTimeModel{}.delta_overhead_s : 0.0);
    return out;
  }

  [[nodiscard]] const Cas& chunk_cache() const noexcept { return cache_; }

 private:
  FileTreeModel trees_;
  ImageBuilder model_;  ///< only its model_seconds() is used
  BuildNoiseModel noise_;
  DeltaBuildConfig delta_;
  std::uint64_t build_counter_ = 0;
  Cas cache_;
  ImageStore store_;
};

void expect_same_image(const BuiltImage& got, const BuiltImage& want) {
  EXPECT_EQ(got.bytes, want.bytes);
  EXPECT_EQ(got.fetched_bytes, want.fetched_bytes);
  EXPECT_EQ(got.files, want.files);
  EXPECT_EQ(got.prep_seconds, want.prep_seconds);  // bitwise: same inputs
  EXPECT_EQ(got.content_digest, want.content_digest);
  EXPECT_EQ(got.written_bytes, want.written_bytes);
  EXPECT_EQ(got.chain_depth, want.chain_depth);
  EXPECT_EQ(got.delta_write, want.delta_write);
  EXPECT_EQ(got.repacked, want.repacked);
}

std::map<ChunkHash, std::pair<util::Bytes, std::uint32_t>> ledger(const Cas& cas) {
  std::map<ChunkHash, std::pair<util::Bytes, std::uint32_t>> out;
  cas.for_each_chunk([&](ChunkHash hash, util::Bytes size, std::uint32_t refs) {
    out[hash] = {size, refs};
  });
  return out;
}

void expect_same_ledger(const Cas& got, const Cas& want) {
  EXPECT_EQ(got.chunk_count(), want.chunk_count());
  EXPECT_EQ(got.unique_bytes(), want.unique_bytes());
  EXPECT_EQ(got.logical_bytes(), want.logical_bytes());
  EXPECT_EQ(ledger(got), ledger(want));
}

/// Ids of every version of the repository's most-versioned project.
std::vector<std::uint32_t> versions_of_one_project() {
  std::unordered_map<std::string, std::vector<std::uint32_t>> by_name;
  for (std::uint32_t i = 0; i < repo().size(); ++i) {
    by_name[repo()[pkg::package_id(i)].name].push_back(i);
  }
  std::vector<std::uint32_t> best;
  for (auto& [name, ids] : by_name) {
    if (ids.size() > best.size()) best = ids;
  }
  return best;
}

/// Random specs, some mixing several versions of one project (their
/// files share content along the version chain).
std::vector<spec::Specification> build_sequence(std::uint64_t seed) {
  util::Rng rng(seed);
  const auto versions = versions_of_one_project();
  EXPECT_GE(versions.size(), 3u);
  std::vector<spec::Specification> specs;
  for (int i = 0; i < 24; ++i) {
    std::vector<std::uint32_t> ids;
    for (auto index : rng.sample_without_replacement(
             static_cast<std::uint32_t>(repo().size()),
             1 + static_cast<std::uint32_t>(rng.uniform(6)))) {
      ids.push_back(index);
    }
    if (i % 3 == 0) {
      for (auto v : versions) {
        if (rng.chance(0.6)) ids.push_back(v);
      }
    }
    specs.push_back(spec_for(ids));
  }
  return specs;
}

class ComposedBuild
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, bool>> {};

TEST_P(ComposedBuild, MatchesPerFileWalk) {
  const auto [noise_files, delta_on] = GetParam();
  BuildNoiseModel noise;
  noise.noise_files = noise_files;
  DeltaBuildConfig delta;
  delta.enabled = delta_on;
  delta.store.chain_cap = 3;  // small, so repacks happen too

  ImageBuilder builder(repo(), {}, {}, noise, delta);
  ReferenceBuilder reference(noise, delta);
  const auto specs = build_sequence(0xC0FFEE + noise_files);
  std::uint32_t delta_writes = 0, repacks = 0;
  // Two passes: the second rebuilds every spec against a warm table.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      // A few image keys so delta chains stack; some builds are untracked.
      const std::uint64_t key = i % 5 == 4 ? kNoImageKey : i % 4;
      SCOPED_TRACE("pass " + std::to_string(pass) + " spec " + std::to_string(i));
      const BuiltImage built = builder.build(specs[i], key);
      expect_same_image(built, reference.build(specs[i], key));
      expect_same_ledger(builder.chunk_cache(), reference.chunk_cache());
      delta_writes += built.delta_write ? 1 : 0;
      repacks += built.repacked ? 1 : 0;
    }
  }
  if (delta_on) {  // the sequence reaches both delta paths
    EXPECT_GT(delta_writes, 0u);
    EXPECT_GT(repacks, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(NoiseAndDelta, ComposedBuild,
                         ::testing::Combine(::testing::Values(0u, 3u),
                                            ::testing::Bool()));

TEST(ComposedBuild, FirstBuildFetchesLaterBuildsDoNot) {
  BuildNoiseModel noise;
  noise.noise_files = 3;  // locally generated: never fetched
  ImageBuilder builder(repo(), {}, {}, noise);
  const auto versions = versions_of_one_project();
  const auto spec = spec_for(versions);

  const auto first = builder.build(spec);
  EXPECT_GT(first.fetched_bytes, 0u);
  EXPECT_LT(first.fetched_bytes, first.bytes);  // versions share content
  for (int i = 0; i < 3; ++i) {
    const auto again = builder.build(spec);
    EXPECT_EQ(again.fetched_bytes, 0u);
    EXPECT_EQ(again.bytes, first.bytes);
    EXPECT_EQ(again.files, first.files);
  }
  // Every build still takes one reference per file, noise included.
  builder.chunk_cache().for_each_chunk(
      [](ChunkHash, util::Bytes, std::uint32_t refs) { EXPECT_GE(refs, 1u); });
  EXPECT_EQ(builder.chunk_cache().logical_bytes(), 4 * first.bytes);
}

}  // namespace
}  // namespace landlord::shrinkwrap

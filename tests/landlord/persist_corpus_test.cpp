// Torn-snapshot corpus: checked-in truncated / bit-flipped / garbage
// v1+v2 snapshots (tests/landlord/corpus/, regenerated by generate.py).
// Restore must never crash on any of them, must recover exactly the
// checked prefix for v2, and must report a precise "line N:" error for
// whatever stopped the parse.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "landlord/persist.hpp"
#include "landlord/sharded.hpp"
#include "pkg/manifest.hpp"

#ifndef LANDLORD_CORPUS_DIR
#error "build must define LANDLORD_CORPUS_DIR (see tests/CMakeLists.txt)"
#endif

namespace landlord::core {
namespace {

std::string corpus_path(const std::string& name) {
  return std::string(LANDLORD_CORPUS_DIR) + "/" + name;
}

const pkg::Repository& repo() {
  static const pkg::Repository r = [] {
    auto result = pkg::load_manifest(corpus_path("repo.manifest"));
    EXPECT_TRUE(result.ok()) << (result.ok() ? "" : result.error().message);
    return std::move(result).value();
  }();
  return r;
}

CacheConfig config() {
  CacheConfig c;
  c.capacity = repo().total_bytes() * 10;
  return c;
}

struct Expectation {
  const char* file;
  bool ok;                   ///< restore returns a cache (possibly a prefix)
  bool truncated;            ///< clean cut, every parsed record checked out
  bool corrupted;            ///< parse stopped on damaged content
  std::size_t restored;      ///< images recovered (prefix length)
  std::size_t lost;          ///< image records declared but unrecoverable
  const char* error_substr;  ///< must appear in report.error ("" = clean)
};

constexpr Expectation kCorpus[] = {
    {"v1_good.snapshot", true, false, false, 3, 0, ""},
    {"v1_truncated.snapshot", false, false, true, 0, 0, "unknown package key"},
    {"v1_badkey.snapshot", false, false, true, 0, 0,
     "unknown package key 'beta/9.9'"},
    {"v1_garbage.snapshot", false, false, true, 0, 0, "bad magic"},
    {"empty.snapshot", false, false, true, 0, 0, "empty cache snapshot"},
    {"v2_good.snapshot", true, false, false, 3, 0, ""},
    {"v2_truncated_tail.snapshot", true, true, false, 2, 0,
     "missing 'end' trailer"},
    {"v2_torn_record.snapshot", true, false, true, 2, 1, "unknown package key"},
    {"v2_bitflip_record.snapshot", true, false, true, 1, 2, "checksum mismatch"},
    {"v2_bitflip_check.snapshot", true, false, true, 0, 3, "checksum mismatch"},
    {"v2_garbage_tail.snapshot", true, false, true, 3, 0, "unknown directive"},
    {"v2_missing_end.snapshot", true, true, false, 3, 0, "missing 'end' trailer"},
    // A checksummed copy of record 0 re-appears as ordinal 3: only the
    // duplicate check can reject it (its blob is internally valid).
    {"v2_duplicate_record.snapshot", true, false, true, 3, 1,
     "duplicate image record (ordinal 3 repeats ordinal 0)"},
    // Bytes after a clean 'end' trailer: every declared record restores
    // (nothing lost), but the file is flagged — it is not what
    // save_cache wrote, and the tail must NOT be counted as lost.
    {"v2_trailing_bytes.snapshot", true, false, true, 3, 0,
     "trailing data after 'end' trailer"},
};

TEST(PersistCorpus, EverySnapshotMatchesItsExpectation) {
  for (const auto& expect : kCorpus) {
    SCOPED_TRACE(expect.file);
    std::ifstream in(corpus_path(expect.file));
    ASSERT_TRUE(in.is_open());

    RestoreReport report;
    auto result = restore_cache(in, repo(), config(), &report);
    EXPECT_EQ(result.ok(), expect.ok)
        << (result.ok() ? report.error : result.error().message);
    EXPECT_EQ(report.truncated, expect.truncated);
    EXPECT_EQ(report.corrupted, expect.corrupted);
    EXPECT_EQ(report.images_restored, expect.restored);
    EXPECT_EQ(report.records_lost, expect.lost);
    EXPECT_EQ(report.clean(), expect.error_substr[0] == '\0');
    if (expect.error_substr[0] != '\0') {
      EXPECT_NE(report.error.find(expect.error_substr), std::string::npos)
          << "error was: " << report.error;
      // Corruption diagnostics pinpoint the line where the parse
      // stopped; truncation has no offending line (the file just ends).
      if (report.corrupted && std::string(expect.file) != "empty.snapshot") {
        EXPECT_EQ(report.error.rfind("line ", 0), 0u)
            << "error was: " << report.error;
      }
    }
    if (result.ok()) {
      EXPECT_EQ(result.value()->image_count(), expect.restored);
    }
  }
}

TEST(PersistCorpus, ShardedRestoreNeverCrashesAndAgreesOnPrefix) {
  for (const auto& expect : kCorpus) {
    SCOPED_TRACE(expect.file);
    std::ifstream in(corpus_path(expect.file));
    ASSERT_TRUE(in.is_open());

    auto sharded_config = config();
    sharded_config.shards = 4;
    RestoreReport report;
    auto result = restore_cache(in, repo(), sharded_config, &report);
    EXPECT_EQ(result.ok(), expect.ok);
    if (result.ok()) {
      EXPECT_EQ(report.images_restored, expect.restored);
      EXPECT_EQ(result.value()->image_count(), expect.restored);
    }
  }
}

TEST(PersistCorpus, GoodV2RoundTripsByteForByte) {
  std::ifstream in(corpus_path("v2_good.snapshot"));
  ASSERT_TRUE(in.is_open());
  auto result = restore_cache(in, repo(), config(), nullptr);
  ASSERT_TRUE(result.ok());

  std::ostringstream out;
  save_cache(out, *result.value(), repo(), SnapshotFormat::kV2);

  std::ifstream reread(corpus_path("v2_good.snapshot"));
  std::stringstream original;
  original << reread.rdbuf();
  EXPECT_EQ(out.str(), original.str());
}

TEST(PersistCorpus, DuplicateRecordKeepsOnlyTheFirstCopy) {
  std::ifstream in(corpus_path("v2_duplicate_record.snapshot"));
  ASSERT_TRUE(in.is_open());
  auto result = restore_cache(in, repo(), config(), nullptr);
  ASSERT_TRUE(result.ok());
  // The restored cache holds the 3-record prefix with no two images
  // sharing contents — the invariant the duplicate would have broken.
  EXPECT_EQ(result.value()->image_count(), 3u);
  std::vector<spec::PackageSet> contents;
  result.value()->for_each_image(
      [&](const Image& image) { contents.push_back(image.contents); });
  for (std::size_t a = 0; a < contents.size(); ++a) {
    for (std::size_t b = a + 1; b < contents.size(); ++b) {
      EXPECT_FALSE(contents[a] == contents[b]) << "images " << a << "/" << b;
    }
  }
}

TEST(PersistCorpus, TrailingBytesRestoreTheExactGoodSnapshot) {
  // The prefix before the trailing garbage is byte-identical to
  // v2_good, so the restored cache must re-save to exactly that.
  std::ifstream in(corpus_path("v2_trailing_bytes.snapshot"));
  ASSERT_TRUE(in.is_open());
  RestoreReport report;
  auto result = restore_cache(in, repo(), config(), &report);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(report.corrupted);
  EXPECT_EQ(report.records_lost, 0u);

  std::ostringstream out;
  save_cache(out, *result.value(), repo(), SnapshotFormat::kV2);
  std::ifstream good(corpus_path("v2_good.snapshot"));
  std::stringstream original;
  original << good.rdbuf();
  EXPECT_EQ(out.str(), original.str());
}

TEST(PersistCorpus, ConstraintsSurviveThePrefixCut) {
  // v2_bitflip_record damages record 1 (the one carrying a constraint);
  // only record 0 survives, and it must carry no constraints.
  std::ifstream damaged(corpus_path("v2_bitflip_record.snapshot"));
  auto partial = restore_cache(damaged, repo(), config(), nullptr);
  ASSERT_TRUE(partial.ok());
  std::size_t constraints = 0;
  partial.value()->for_each_image(
      [&](const Image& image) { constraints += image.constraints.size(); });
  EXPECT_EQ(constraints, 0u);

  // The intact snapshot restores the constraint on record 1.
  std::ifstream good(corpus_path("v2_good.snapshot"));
  auto full = restore_cache(good, repo(), config(), nullptr);
  ASSERT_TRUE(full.ok());
  constraints = 0;
  full.value()->for_each_image(
      [&](const Image& image) { constraints += image.constraints.size(); });
  EXPECT_EQ(constraints, 1u);
}

}  // namespace
}  // namespace landlord::core

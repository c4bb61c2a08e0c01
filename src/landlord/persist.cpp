#include "landlord/persist.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "util/checksum.hpp"

namespace landlord::core {

namespace {

constexpr std::string_view kMagicV1 = "landlord-cache v1";
constexpr std::string_view kMagicV2 = "landlord-cache v2";

std::vector<std::string_view> split_words(std::string_view line) {
  std::vector<std::string_view> words;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > start) words.push_back(line.substr(start, i - start));
  }
  return words;
}

template <typename T>
bool parse_number(std::string_view token, T& out) {
  auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), out);
  return ec == std::errc{} && ptr == token.data() + token.size();
}

bool parse_hex(std::string_view token, std::uint64_t& out) {
  auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), out, 16);
  return ec == std::errc{} && ptr == token.data() + token.size();
}

std::string to_hex(std::uint64_t value) {
  char buffer[17];
  auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value, 16);
  return std::string(buffer, ptr);
}

/// One parsed snapshot image, ready for adoption into either cache kind.
struct Record {
  spec::PackageSet contents;
  std::vector<spec::VersionConstraint> constraints;
  std::uint64_t hits = 0;
  std::uint32_t merge_count = 0;
  std::uint32_t version = 0;
};

/// Serialises one image's record lines (no check line) into `out`,
/// returning the exact bytes so v2 can checksum them.
std::string record_lines(const Image& image, std::size_t ordinal,
                         const pkg::Repository& repo) {
  std::ostringstream lines;
  lines << "image " << image.hits << ' ' << image.merge_count << ' '
        << image.version;
  image.contents.for_each([&](pkg::PackageId id) { lines << ' ' << repo[id].key(); });
  lines << '\n';
  for (const auto& constraint : image.constraints) {
    lines << "constraint " << ordinal << ' ' << constraint.package
          << spec::to_string(constraint.op) << constraint.version << '\n';
  }
  return std::move(lines).str();
}

/// Writes the shared snapshot body from a pre-collected image list.
void write_snapshot(std::ostream& out, std::vector<Image> images,
                    const pkg::Repository& repo, util::Bytes total_bytes,
                    SnapshotFormat format) {
  out << (format == SnapshotFormat::kV2 ? kMagicV2 : kMagicV1) << '\n';
  out << "# " << images.size() << " images, " << total_bytes << " bytes\n";
  // Stable order: by LRU stamp, so restore reproduces recency.
  std::sort(images.begin(), images.end(), [](const Image& a, const Image& b) {
    if (a.last_used != b.last_used) return a.last_used < b.last_used;
    return to_value(a.id) < to_value(b.id);
  });
  std::uint64_t chain = util::kFnv1aOffset;
  std::size_t ordinal = 0;
  for (const auto& image : images) {
    const std::string lines = record_lines(image, ordinal, repo);
    out << lines;
    if (format == SnapshotFormat::kV2) {
      out << "check " << ordinal << ' ' << to_hex(util::fnv1a64(lines)) << '\n';
      chain = util::fnv1a64(lines, chain);
    }
    ++ordinal;
  }
  if (format == SnapshotFormat::kV2) {
    out << "end " << images.size() << ' ' << to_hex(chain) << '\n';
  }
}

/// Everything a restore learns from parsing: the adoptable prefix, the
/// salvage report, and — for v1 strict failures — a fatal error that
/// aborts the whole restore.
struct Parsed {
  std::vector<Record> records;
  RestoreReport report;
  std::optional<util::Error> fatal;
};

/// Parses one `image` directive's words into a record. Returns an error
/// message (no line prefix) on failure.
std::optional<std::string> parse_image_words(
    const std::vector<std::string_view>& words, const pkg::Repository& repo,
    Record& out) {
  if (words.size() < 4) {
    return "expected: image <hits> <merges> <version> <key>...";
  }
  out.contents = spec::PackageSet(repo.size());
  if (!parse_number(words[1], out.hits) ||
      !parse_number(words[2], out.merge_count) ||
      !parse_number(words[3], out.version)) {
    return "bad image counters";
  }
  for (std::size_t w = 4; w < words.size(); ++w) {
    const auto id = repo.find(words[w]);
    if (!id) return "unknown package key '" + std::string(words[w]) + "'";
    out.contents.insert(*id);
  }
  return std::nullopt;
}

/// v1 body: strict — the first problem fails the whole restore.
void parse_v1(std::istream& in, const pkg::Repository& repo, Parsed& parsed,
              std::size_t line_no) {
  std::string line;
  auto fail = [&](std::string what) {
    parsed.report.corrupted = true;
    parsed.report.error = "line " + std::to_string(line_no) + ": " + what;
    parsed.fatal = util::Error{parsed.report.error};
  };

  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    auto words = split_words(line);
    if (words.empty() || words.front().front() == '#') continue;

    if (words.front() == "image") {
      Record record;
      if (auto err = parse_image_words(words, repo, record)) {
        return fail(std::move(*err));
      }
      parsed.records.push_back(std::move(record));
    } else if (words.front() == "constraint") {
      if (words.size() != 3) {
        return fail("expected: constraint <ordinal> <expr>");
      }
      std::size_t ordinal = 0;
      if (!parse_number(words[1], ordinal) || ordinal >= parsed.records.size()) {
        return fail("constraint references unknown image");
      }
      auto constraint = spec::parse_constraint(words[2]);
      if (!constraint) return fail(constraint.error().message);
      parsed.records[ordinal].constraints.push_back(std::move(constraint).value());
    } else {
      return fail("unknown directive '" + std::string(words.front()) + "'");
    }
  }
}

/// Identity of a record for duplicate detection: the contents bitset.
/// A valid snapshot can never hold two images with the same contents
/// (insert/merge always reuses the superset), so a repeat is corruption.
std::uint64_t contents_fingerprint(const spec::PackageSet& contents) {
  const auto& words = contents.bits().words();
  return util::fnv1a64(std::string_view(
      reinterpret_cast<const char*>(words.data()), words.size() * 8));
}

/// v2 body: lenient — stops at the first bad record, keeps the checked
/// prefix, and counts how many image records the tail declared.
void parse_v2(std::istream& in, const pkg::Repository& repo, Parsed& parsed,
              std::size_t line_no) {
  std::string line;
  Record pending;
  std::string pending_blob;  ///< exact bytes of the record being assembled
  bool has_pending = false;
  bool saw_end = false;
  std::size_t images_seen = 0;
  std::uint64_t chain = util::kFnv1aOffset;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> seen_contents;

  auto fail = [&](std::string what) {
    parsed.report.corrupted = true;
    parsed.report.error = "line " + std::to_string(line_no) + ": " + what;
  };

  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    auto words = split_words(line);
    if (words.empty() || words.front().front() == '#') continue;

    if (words.front() == "image") {
      ++images_seen;
      if (has_pending) {
        fail("image record missing its check line");
        break;
      }
      if (auto err = parse_image_words(words, repo, pending)) {
        fail(std::move(*err));
        break;
      }
      pending_blob = line + '\n';
      has_pending = true;
    } else if (words.front() == "constraint") {
      if (!has_pending || words.size() != 3) {
        fail("constraint outside an open image record");
        break;
      }
      std::size_t ordinal = 0;
      if (!parse_number(words[1], ordinal) || ordinal != parsed.records.size()) {
        fail("constraint references the wrong image record");
        break;
      }
      auto constraint = spec::parse_constraint(words[2]);
      if (!constraint) {
        fail(constraint.error().message);
        break;
      }
      pending.constraints.push_back(std::move(constraint).value());
      pending_blob += line + '\n';
    } else if (words.front() == "check") {
      std::size_t ordinal = 0;
      std::uint64_t digest = 0;
      if (!has_pending || words.size() != 3 ||
          !parse_number(words[1], ordinal) || !parse_hex(words[2], digest) ||
          ordinal != parsed.records.size()) {
        fail("malformed check line");
        break;
      }
      if (digest != util::fnv1a64(pending_blob)) {
        fail("record " + std::to_string(ordinal) +
             " checksum mismatch (corrupted image record)");
        break;
      }
      // The record is internally consistent — now reject it if an
      // accepted record already has these exact contents (a replayed or
      // doubled write; adopting both would violate the cache invariant).
      const std::uint64_t finger = contents_fingerprint(pending.contents);
      bool duplicate = false;
      for (std::size_t prior : seen_contents[finger]) {
        if (parsed.records[prior].contents == pending.contents) {
          fail("duplicate image record (ordinal " + std::to_string(ordinal) +
               " repeats ordinal " + std::to_string(prior) + ")");
          duplicate = true;
          break;
        }
      }
      if (duplicate) break;
      seen_contents[finger].push_back(parsed.records.size());
      chain = util::fnv1a64(pending_blob, chain);
      parsed.records.push_back(std::move(pending));
      pending = Record{};
      has_pending = false;
    } else if (words.front() == "end") {
      std::size_t count = 0;
      std::uint64_t digest = 0;
      if (has_pending || words.size() != 3 || !parse_number(words[1], count) ||
          !parse_hex(words[2], digest) || count != parsed.records.size() ||
          digest != chain) {
        fail("malformed or mismatched end trailer");
        break;
      }
      saw_end = true;
      break;
    } else {
      fail("unknown directive '" + std::string(words.front()) + "'");
      break;
    }
  }

  if (saw_end) {
    // A clean trailer covers every declared record, so nothing was lost
    // — but bytes after it mean a writer appended past the snapshot (or
    // two snapshots were concatenated). The restored prefix is intact;
    // flag the file so the operator knows it is not what save_cache
    // wrote. Blank lines are tolerated (trailing-newline artifacts).
    while (std::getline(in, line)) {
      ++line_no;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (split_words(line).empty()) continue;
      fail("trailing data after 'end' trailer");
      break;
    }
    parsed.report.records_lost = 0;
    return;
  }
  if (!parsed.report.corrupted) {
    parsed.report.truncated = true;
    parsed.report.error = has_pending
                              ? "snapshot truncated inside image record " +
                                    std::to_string(parsed.records.size())
                              : "snapshot truncated: missing 'end' trailer";
  }
  // Count the image records the unrecovered tail declared, so the report
  // can say exactly how much was lost, not just that something was.
  while (std::getline(in, line)) {
    if (line.rfind("image ", 0) == 0 || line.rfind("image\t", 0) == 0) {
      ++images_seen;
    }
  }
  parsed.report.records_lost = images_seen - parsed.records.size();
}

/// Parses either snapshot format (dispatch on the magic line).
Parsed parse_snapshot(std::istream& in, const pkg::Repository& repo) {
  Parsed parsed;
  std::string line;
  std::size_t line_no = 0;
  if (!std::getline(in, line)) {
    parsed.report.corrupted = true;
    parsed.report.error = "empty cache snapshot";
    parsed.fatal = util::Error{parsed.report.error};
    return parsed;
  }
  ++line_no;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  if (line == kMagicV1) {
    parsed.report.format = 1;
    parse_v1(in, repo, parsed, line_no);
  } else if (line == kMagicV2) {
    parsed.report.format = 2;
    parse_v2(in, repo, parsed, line_no);
  } else {
    parsed.report.corrupted = true;
    parsed.report.error = "line 1: bad magic (expected '" +
                          std::string(kMagicV1) + "' or '" +
                          std::string(kMagicV2) + "')";
    parsed.fatal = util::Error{parsed.report.error};
  }
  // A fatal parse restores nothing, however far it got before failing.
  parsed.report.images_restored =
      parsed.fatal.has_value() ? 0 : parsed.records.size();
  return parsed;
}

}  // namespace

void save_cache(std::ostream& out, const ShardedCache& cache,
                const pkg::Repository& repo, SnapshotFormat format) {
  write_snapshot(out, cache.snapshot_images(), repo, cache.total_bytes(), format);
}

util::Result<std::unique_ptr<ShardedCache>> restore_cache(
    std::istream& in, const pkg::Repository& repo, CacheConfig config,
    RestoreReport* report) {
  auto parsed = parse_snapshot(in, repo);
  if (report != nullptr) *report = parsed.report;
  if (parsed.fatal.has_value()) return *parsed.fatal;

  // Adopt in snapshot (LRU) order. If the new budget is smaller than the
  // snapshot, adopt() evicts the least-recently-adopted images — exactly
  // the right casualties.
  auto cache = std::make_unique<ShardedCache>(repo, config);
  for (auto& record : parsed.records) {
    (void)cache->adopt(std::move(record.contents), std::move(record.constraints),
                       record.hits, record.merge_count, record.version);
  }
  return cache;
}

bool save_cache_file(const std::string& path, const ShardedCache& cache,
                     const pkg::Repository& repo, SnapshotFormat format,
                     fault::FaultInjector* faults) {
  if (faults != nullptr && faults->should_fail(fault::FaultOp::kSnapshotWrite)) {
    // Torn write: the crash happened mid-flush. A deterministic prefix
    // lands on disk — cut at 25/50/75% by injection count, so replays
    // exercise different tear points — and the caller learns the
    // checkpoint failed. v2 restores recover the checked prefix.
    std::ostringstream full;
    save_cache(full, cache, repo, format);
    const std::string text = std::move(full).str();
    const auto tears =
        faults->injected(fault::FaultOp::kSnapshotWrite);  // >= 1 here
    const std::size_t keep = text.size() * ((tears - 1) % 3 + 1) / 4;
    std::ofstream out(path, std::ios::trunc);
    if (out) out.write(text.data(), static_cast<std::streamsize>(keep));
    return false;
  }
  std::ofstream out(path);
  if (!out) return false;
  save_cache(out, cache, repo, format);
  return static_cast<bool>(out);
}

util::Result<std::unique_ptr<ShardedCache>> restore_cache_file(
    const std::string& path, const pkg::Repository& repo, CacheConfig config,
    RestoreReport* report, fault::FaultInjector* faults) {
  if (faults != nullptr && faults->should_fail(fault::FaultOp::kSnapshotRead)) {
    util::Error error{"injected snapshot read failure: " + path};
    if (report != nullptr) {
      *report = RestoreReport{};
      report->corrupted = true;
      report->error = error.message;
    }
    return error;
  }
  std::ifstream in(path);
  if (!in) return util::Error{"cannot open cache snapshot: " + path};
  return restore_cache(in, repo, config, report);
}

}  // namespace landlord::core

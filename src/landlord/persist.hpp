// Cache persistence.
//
// Image-management systems "reflect this reality in using persistent
// image stores" (§II, of Docker and Shifter): a head-node restart must
// not discard terabytes of prepared images. This module serialises the
// cache's *decision state* — each image's package set, constraints and
// usage counters — to a text snapshot and restores it into a fresh
// cache. Image *contents* are not stored (they live in the image files
// themselves); a restore re-admits images without charging write I/O.
//
// Two on-disk formats (full grammar in docs/formats.md). Writers emit
// v2 only; v1 stays readable.
//
//   landlord-cache v1 — the original plain format, read-only. Strict
//   restore: any malformed line or unknown package key fails the whole
//   restore.
//
//   landlord-cache v2 — checksummed records. Every image record (its
//   `image` line plus attached `constraint` lines) is followed by a
//   `check` line carrying an FNV-1a digest of the record's exact bytes,
//   and the file ends with an `end` trailer chaining all records. A
//   torn or bit-flipped snapshot is detected at the first bad record;
//   restore recovers everything before it (the valid prefix) and
//   reports precisely what was lost via RestoreReport. Restoring a v2
//   snapshot never fails outright unless even the magic line is gone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "fault/fault.hpp"
#include "landlord/sharded.hpp"
#include "util/result.hpp"

namespace landlord::core {

/// What a restore managed to salvage. `clean()` means the snapshot was
/// intact; otherwise `error` pinpoints the first bad record ("line N:
/// ...") and the counts say how much of the tail was lost.
struct RestoreReport {
  std::uint32_t format = 0;          ///< detected snapshot version (1 or 2)
  std::size_t images_restored = 0;   ///< records adopted into the cache
  std::size_t records_lost = 0;      ///< image records dropped (bad or after bad)
  bool truncated = false;            ///< v2: `end` trailer missing/incomplete
  bool corrupted = false;            ///< checksum mismatch or malformed record
  std::string error;                 ///< precise first error, empty if clean

  [[nodiscard]] bool clean() const noexcept { return !truncated && !corrupted; }
};

/// Writes a v2 snapshot of every cached image. Takes every shard lock
/// (ShardedCache::snapshot_images), so the snapshot is one consistent
/// point-in-time state even while other threads keep submitting. A
/// snapshot restores into a cache of any shard count.
void save_cache(std::ostream& out, const ShardedCache& cache,
                const pkg::Repository& repo);

/// What one checkpoint put on disk.
struct Checkpoint {
  std::string text;   ///< the snapshot, or the prefix a torn write left
  bool torn = false;  ///< a kSnapshotWrite fault cut the write short
};

/// The one tear path: serialises a snapshot and, when `faults`
/// (optional) fails the kSnapshotWrite op, keeps only a deterministic
/// prefix — cut at 25/50/75% by injection count, so replays exercise
/// different tear points — modelling a crash mid-flush. v2 restores
/// recover the checked prefix. save_cache_file and
/// sim::run_crash_replay both checkpoint through this.
[[nodiscard]] Checkpoint checkpoint(const ShardedCache& cache,
                                    const pkg::Repository& repo,
                                    fault::FaultInjector* faults = nullptr);

/// Restores a snapshot into a new cache with `config`, homing each image
/// onto its band-signature shard. Images are re-admitted verbatim (ids
/// are reassigned; LRU order follows snapshot order); counters start
/// fresh except that restored images keep their hit/merge history for
/// eviction decisions. If the snapshot exceeds `config.capacity`, the
/// least-recently-adopted images are trimmed.
///
/// v1 snapshots fail on malformed input or unknown package keys. v2
/// snapshots recover the valid prefix instead: the result is ok() with
/// everything before the first bad record, and `report` (optional)
/// carries the precise error and loss counts.
[[nodiscard]] util::Result<std::unique_ptr<ShardedCache>> restore_cache(
    std::istream& in, const pkg::Repository& repo, CacheConfig config,
    RestoreReport* report = nullptr);

/// File convenience wrappers. `faults` (optional) injects snapshot I/O
/// failures: a kSnapshotWrite fault tears the file through checkpoint()
/// — the torn prefix is written and false is returned; a kSnapshotRead
/// fault fails the open, modelling unreadable storage.
[[nodiscard]] bool save_cache_file(const std::string& path,
                                   const ShardedCache& cache,
                                   const pkg::Repository& repo,
                                   fault::FaultInjector* faults = nullptr);
[[nodiscard]] util::Result<std::unique_ptr<ShardedCache>> restore_cache_file(
    const std::string& path, const pkg::Repository& repo, CacheConfig config,
    RestoreReport* report = nullptr, fault::FaultInjector* faults = nullptr);

}  // namespace landlord::core

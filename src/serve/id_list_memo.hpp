// Server-side memo of submit id lists (docs/serve.md, "Id-list memo").
//
// HTC jobs submit the same specification over and over (paper §I), so a
// head node receives the same id-list bytes over and over. The memo maps
// a spec's raw little-endian id-list bytes, exactly as they sit in the
// receive buffer, to the validated spec::PackageSet they decode to.
//
// A hit is exact. The probe hashes the bytes, and an entry is served only
// when its stored bytes compare equal (memcmp) to the probe's and it was
// validated under the probe's universe. Equal bytes under one universe
// decode to one set, so a hit hands back exactly the set the full
// range/order check and bitset build would produce.
//
// One memo per server, shared by every connection reader, so its memory
// does not grow with the connection count. serve::decode_submit_frame
// takes the lock once per frame for lookups (shared, a Reader) and once
// more, exclusive, to insert the frame's misses in one batch.
//
// Bounded two ways: at most kIdListMemoCapacity entries, and at most
// kIdListMemoBudgetBytes of stored id bytes plus set words. An insert
// that would pass either bound first clears the whole table, the rule
// core::SpecMemo uses. A reader copies a set out under the shared lock,
// so a clear (under the exclusive one) cannot strand it. Storage is
// reused across clears: id bytes go into one arena that grows up to the
// budget, and a cleared entry's set keeps its words for the next list,
// so a steady stream of misses allocates nothing per insert. The hash is
// seeded per memo (Server seeds each one differently), so colliding
// inputs cannot be precomputed against every server; exactness never
// rests on the hash.
#pragma once

#include <bit>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string_view>
#include <vector>

#include "spec/package_set.hpp"

namespace landlord::serve {

/// Entries one memo holds before an insert clears it. Covers the serve
/// catalogs (506 distinct lists in headbench's hot workload) with room.
inline constexpr std::size_t kIdListMemoCapacity = 1024;
/// Stored bytes (id lists plus set words) one memo holds before an insert
/// clears it, so the bound does not scale with the universe size.
inline constexpr std::size_t kIdListMemoBudgetBytes = std::size_t{1} << 20;
static_assert(std::has_single_bit(kIdListMemoCapacity),
              "the slot table is twice the capacity, a power of two");

class IdListMemo {
 public:
  explicit IdListMemo(std::uint64_t seed);

  IdListMemo(const IdListMemo&) = delete;
  IdListMemo& operator=(const IdListMemo&) = delete;

  /// Seeded hash of raw id-list bytes (a whole number of u32 ids).
  [[nodiscard]] std::uint64_t hash(std::string_view ids) const noexcept;

  /// One frame's lookups: holds the shared lock while it lives.
  class Reader {
   public:
    Reader(const IdListMemo& memo, std::size_t universe)
        : memo_(memo), lock_(memo.mutex_), universe_(universe) {}

    /// The set `ids` decodes to under this reader's universe, or null
    /// when the memo has not validated those exact bytes. The pointer
    /// is valid while the reader lives.
    [[nodiscard]] const spec::PackageSet* find(std::string_view ids,
                                               std::uint64_t hash) const noexcept;

   private:
    const IdListMemo& memo_;
    std::shared_lock<std::shared_mutex> lock_;
    std::size_t universe_;
  };

  /// A list one frame validated: its raw bytes, their hash and the set.
  struct Insert {
    std::string_view ids;
    std::uint64_t hash = 0;
    const spec::PackageSet* set = nullptr;
  };

  /// Stores a frame's validated lists under one exclusive lock. A list
  /// whose hash is already stored is skipped (the same bytes, or a
  /// collision that stays a miss); a universe other than the stored
  /// entries' clears the table first.
  void insert(std::size_t universe, std::span<const Insert> lists);

  struct Stats {
    std::size_t entries = 0;
    std::size_t bytes = 0;  ///< stored id bytes + set words, <= budget
    std::uint64_t clears = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  struct Slot {
    std::uint64_t hash = 0;
    std::uint32_t entry = 0;  ///< 1 + index into entries_; 0 = empty
  };
  struct Entry {
    std::size_t ids_at = 0;  ///< offset of the id bytes in ids_
    std::size_t ids_size = 0;
    spec::PackageSet set;
  };

  /// Index of the slot holding `hash`, or of the empty slot where it
  /// would go. Ends: at most kIdListMemoCapacity of the
  /// 2 * kIdListMemoCapacity slots are in use.
  [[nodiscard]] std::size_t probe(std::uint64_t hash) const noexcept;
  [[nodiscard]] bool holds(const Entry& entry,
                           std::string_view ids) const noexcept;
  void clear() noexcept;

  std::uint64_t seed_;
  mutable std::shared_mutex mutex_;
  std::size_t universe_ = 0;  ///< universe every entry was validated under
  std::size_t used_ = 0;      ///< live entries: entries_[0, used_)
  std::size_t bytes_ = 0;     ///< ids_.size() + used_ sets' words
  std::uint64_t clears_ = 0;
  std::vector<Slot> slots_;  ///< allocated at the first insert
  std::vector<Entry> entries_;  ///< past used_: cleared, storage kept
  std::vector<char> ids_;       ///< id-byte arena, capacity <= budget
};

}  // namespace landlord::serve

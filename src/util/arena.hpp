// Per-request scratch arena: a monotonic bump allocator.
//
// Algorithm 1's decision path builds short-lived containers on every
// request — merge-candidate lists, split remainders, probe scratch —
// whose lifetimes all end when the request returns. Routing them
// through the global allocator costs a malloc/free pair (plus lock
// traffic under the sharded cache) per container per request. A
// ScratchArena instead hands out pointers by bumping a cursor through
// a reusable block and reclaims everything at once with reset(): the
// steady-state request allocates by incrementing an integer.
//
// Contract:
//   * allocate() never returns null; it grows by chaining
//     geometrically larger overflow blocks when the current block is
//     exhausted (those are folded into one right-sized block at the
//     next reset()).
//   * reset() invalidates every pointer handed out since the last
//     reset; the arena keeps its largest block, so a warmed-up arena
//     stops touching the global allocator entirely.
//   * Individual deallocation is a no-op (ArenaAllocator::deallocate
//     discards); peak usage per request is bounded by the decision
//     path, not accumulated.
//   * Not thread-safe: one arena per thread (ShardedCache uses a
//     thread_local).
//
// ArenaAllocator<T> adapts the arena to the std allocator interface so
// std::vector and friends can live on it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace landlord::util {

class ScratchArena {
 public:
  /// `initial` is the first block's size; 0 defers until first use.
  explicit ScratchArena(std::size_t initial = kDefaultBlockBytes) {
    if (initial > 0) blocks_.push_back(Block::make(initial));
  }

  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;
  ScratchArena(ScratchArena&&) = default;
  ScratchArena& operator=(ScratchArena&&) = default;

  /// Bump-allocates `bytes` aligned to `align` (a power of two).
  [[nodiscard]] void* allocate(std::size_t bytes, std::size_t align) {
    if (bytes == 0) bytes = 1;
    if (!blocks_.empty()) {
      Block& block = *blocks_.back();
      const std::size_t aligned = align_up(block.used, align);
      if (aligned + bytes <= block.capacity) {
        block.used = aligned + bytes;
        high_water_ = aligned + bytes > high_water_ ? aligned + bytes : high_water_;
        return block.data() + aligned;
      }
    }
    return allocate_slow(bytes, align);
  }

  /// Reclaims every allocation at once. After an overflow, coalesces
  /// the chain into one block sized for the observed peak, so the
  /// arena reaches a steady state where reset() frees nothing.
  void reset() noexcept {
    if (blocks_.size() > 1) {
      std::size_t peak = 0;
      for (const auto& block : blocks_) peak += block->capacity;
      blocks_.clear();
      blocks_.push_back(Block::make(peak));
    } else if (!blocks_.empty()) {
      blocks_.back()->used = 0;
    }
  }

  /// Total bytes of backing storage currently reserved.
  [[nodiscard]] std::size_t capacity() const noexcept {
    std::size_t total = 0;
    for (const auto& block : blocks_) total += block->capacity;
    return total;
  }

  /// Largest single-block watermark seen (diagnostics/tests).
  [[nodiscard]] std::size_t high_water() const noexcept { return high_water_; }

 private:
  static constexpr std::size_t kDefaultBlockBytes = 16 * 1024;

  struct Block {
    std::size_t capacity = 0;
    std::size_t used = 0;

    [[nodiscard]] unsigned char* data() noexcept {
      return reinterpret_cast<unsigned char*>(this + 1);
    }
    /// One malloc carries header + payload.
    [[nodiscard]] static std::unique_ptr<Block, void (*)(Block*)> make(
        std::size_t capacity) {
      void* raw = ::operator new(sizeof(Block) + capacity,
                                 std::align_val_t{alignof(std::max_align_t)});
      auto* block = new (raw) Block{capacity, 0};
      return {block, [](Block* b) {
                b->~Block();
                ::operator delete(b, std::align_val_t{alignof(std::max_align_t)});
              }};
    }
  };

  [[nodiscard]] static std::size_t align_up(std::size_t v,
                                            std::size_t align) noexcept {
    return (v + align - 1) & ~(align - 1);
  }

  void* allocate_slow(std::size_t bytes, std::size_t align) {
    // Double the footprint (at least enough for this allocation) so a
    // request with an unusually long candidate list converges in O(log)
    // overflows, then is served from one block forever after reset().
    std::size_t next = blocks_.empty() ? kDefaultBlockBytes : 2 * capacity();
    while (next < bytes + align) next *= 2;
    blocks_.push_back(Block::make(next));
    Block& block = *blocks_.back();
    const std::size_t aligned = align_up(block.used, align);
    block.used = aligned + bytes;
    return block.data() + aligned;
  }

  std::vector<std::unique_ptr<Block, void (*)(Block*)>> blocks_;
  std::size_t high_water_ = 0;
};

/// std-compatible allocator over a ScratchArena (non-owning; the arena
/// must outlive every container bound to it, and reset() must not run
/// while such a container is still alive).
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  explicit ArenaAllocator(ScratchArena& arena) noexcept : arena_(&arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) noexcept
      : arena_(other.arena()) {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(arena_->allocate(n * sizeof(T), alignof(T)));
  }
  void deallocate(T*, std::size_t) noexcept {}  // reclaimed by reset()

  [[nodiscard]] ScratchArena* arena() const noexcept { return arena_; }

  template <typename U>
  [[nodiscard]] bool operator==(const ArenaAllocator<U>& other) const noexcept {
    return arena_ == other.arena();
  }

 private:
  ScratchArena* arena_;
};

}  // namespace landlord::util

// Rolling receive buffer for length-prefixed frame reassembly.
//
// The serve plane's readers used to erase consumed frames from the front
// of a std::string, which costs a memmove of every still-buffered byte —
// O(n²) across a pipelined burst. RollingBuffer instead tracks a read
// cursor into a flat byte region: consume() is a pointer bump, and the
// bytes are physically moved only when the region must make room for the
// next recv, and then only when at least as many bytes have been consumed
// as would be copied — so reassembly stays amortized O(1) per byte no
// matter how deeply the peer pipelines.
//
// Usage is a strict produce/consume cycle:
//   ensure_writable(n); recv(fd, write_ptr(), writable()); commit(got);
//   ... parse view(), consume(frame_size) per complete frame ...
//
// Not thread-safe; each connection's reader owns exactly one.
#pragma once

#include <cstddef>
#include <cstring>
#include <string_view>
#include <vector>

namespace landlord::serve {

class RollingBuffer {
 public:
  /// Bytes received but not yet consumed, in arrival order.
  [[nodiscard]] std::string_view view() const noexcept {
    return {storage_.data() + head_, tail_ - head_};
  }

  [[nodiscard]] std::size_t readable() const noexcept { return tail_ - head_; }

  /// Retires `n` leading bytes (n <= readable()). No bytes move.
  void consume(std::size_t n) noexcept {
    head_ += n;
    if (head_ == tail_) head_ = tail_ = 0;  // empty: rewind for free
  }

  /// Where the next recv should land; valid for `writable()` bytes after
  /// ensure_writable(). Invalidated by ensure_writable()/consume-to-empty.
  [[nodiscard]] char* write_ptr() noexcept { return storage_.data() + tail_; }

  [[nodiscard]] std::size_t writable() const noexcept {
    return storage_.size() - tail_;
  }

  /// Makes room for at least `n` more bytes. Compacts (shifts the
  /// unconsumed tail to the front) only when the bytes moved are covered
  /// by bytes already consumed; otherwise grows geometrically so repeated
  /// large frames cost O(log) reallocations.
  void ensure_writable(std::size_t n) {
    if (writable() >= n) return;
    // Copies are skipped when nothing is pending: storage_.data() may be
    // null then, and memmove/memcpy must never see a null pointer.
    if (head_ >= readable()) {
      if (readable() > 0) {
        std::memmove(storage_.data(), storage_.data() + head_, readable());
      }
      tail_ -= head_;
      head_ = 0;
      if (writable() >= n) return;
    }
    // Growth relocates to the front of the new region, so the copy rides
    // along with the reallocation the geometric schedule already pays for.
    std::size_t next = storage_.empty() ? kInitialBytes : storage_.size();
    while (next < readable() + n) next *= 2;
    std::vector<char> grown(next);
    if (readable() > 0) {
      std::memcpy(grown.data(), storage_.data() + head_, readable());
    }
    tail_ = readable();
    head_ = 0;
    storage_ = std::move(grown);
  }

  /// Publishes `n` bytes written at write_ptr() (n <= writable()).
  void commit(std::size_t n) noexcept { tail_ += n; }

  /// Drops everything, consumed and pending. A reconnecting client must
  /// call this: a half-received frame from the old connection would
  /// misalign every frame the new connection delivers.
  void clear() noexcept { head_ = tail_ = 0; }

  /// Backing capacity (diagnostics/tests).
  [[nodiscard]] std::size_t capacity() const noexcept {
    return storage_.size();
  }

 private:
  static constexpr std::size_t kInitialBytes = 4096;

  std::vector<char> storage_;
  std::size_t head_ = 0;  ///< first unconsumed byte
  std::size_t tail_ = 0;  ///< one past the last received byte
};

}  // namespace landlord::serve

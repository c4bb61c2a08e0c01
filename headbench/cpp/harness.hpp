// Measurement helpers shared by the head-node benchmark and its self
// test: the percentile rule, the placement-stream digest, an in-memory
// span recorder for the traced run, and a tiny JSON writer.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "serve/protocol.hpp"

namespace headbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from,
                                            Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Samples that must lie strictly above a reported percentile.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Nearest-rank `q`-quantile of `samples` (q in (0, 1]), reported only
/// when at least `min_beyond` samples lie above its rank; nullopt when
/// the sample is too small to support it (e.g. p99 needs 1000 samples).
[[nodiscard]] std::optional<double> supported_quantile(
    std::vector<double> samples, double q,
    std::size_t min_beyond = kMinSamplesBeyond);

/// How windowed_quantile combines the quantiles of its windows.
enum class Across : std::uint8_t {
  /// A burst of host interference moves the result only if it spans
  /// half the windows.
  kMedian,
  /// Moves in proportion to the share of windows the host slowed, where
  /// a median jumps from the fast level to the slow one once that share
  /// crosses one half.
  kMean,
};

/// The `q`-quantile of each consecutive window of `ordered` (samples in
/// the order they were taken), each window the smallest size that
/// supports it, combined over windows as `across` says; nullopt when not
/// even one window fits.
[[nodiscard]] std::optional<double> windowed_quantile(
    std::span<const double> ordered, double q, Across across = Across::kMedian,
    std::size_t min_beyond = kMinSamplesBeyond);

/// Window size windowed_quantile uses for `q`.
[[nodiscard]] std::size_t quantile_window(double q,
                                          std::size_t min_beyond = kMinSamplesBeyond);

/// Median (mean of the middle pair for even counts); 0 when empty.
[[nodiscard]] double median(std::vector<double> samples);

/// Order-sensitive digest of a placement stream: every wire field of
/// every reply, in sequence, folded with FNV-1a. Two streams digest
/// equal only if they carry the same decisions in the same order.
[[nodiscard]] std::uint64_t placement_digest(
    std::span<const landlord::serve::PlacementReply> replies);

/// Index of the first reply that differs between `a` and `b` (a length
/// mismatch counts at the shorter length); nullopt when equal.
[[nodiscard]] std::optional<std::size_t> first_mismatch(
    std::span<const landlord::serve::PlacementReply> a,
    std::span<const landlord::serve::PlacementReply> b);

/// Restricts this thread, and every thread it starts afterwards, to one
/// CPU: the highest-numbered one it may run on. Returns that CPU, or -1
/// when the affinity cannot be set. With one connection and one decision
/// worker only one thread has work at a time, so one CPU loses no
/// parallelism; it turns every hand-off between client, reader and
/// worker into a local context switch instead of a wake-up of another,
/// possibly idle, virtual CPU, whose latency follows load elsewhere on
/// the host.
int pin_to_one_cpu();

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// The layer a span's self time is charged to.
enum class Layer : std::uint8_t { kHarness, kSpec, kServe, kLandlord, kShrinkwrap };
inline constexpr std::size_t kLayerCount = 5;
[[nodiscard]] const char* layer_name(Layer layer) noexcept;

/// One recorded call: [start, end) in nanoseconds since the recorder's
/// origin, the span that caused it (kNoParent for roots) and the spec it
/// served. `tag` carries a small call-specific value (decision kind).
struct Span {
  static constexpr std::uint32_t kNoParent = ~std::uint32_t{0};
  std::uint32_t name = 0;  ///< index into SpanRecorder::names()
  std::uint32_t parent = kNoParent;
  std::uint64_t spec = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t tag = 0;
};

/// Keeps spans in memory; write_csv() emits them once the run is over.
class SpanRecorder {
 public:
  struct Name {
    std::string text;
    Layer layer = Layer::kHarness;
  };

  SpanRecorder();

  /// Registers a span name charged to `layer`; returns its id.
  std::uint32_t name(std::string text, Layer layer);

  /// Opens a span; close it with end(). Returns the span's index.
  std::uint32_t begin(std::uint32_t name, std::uint64_t spec,
                      std::uint32_t parent = Span::kNoParent);
  void end(std::uint32_t span, std::uint32_t tag = 0);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  [[nodiscard]] const std::vector<Name>& names() const noexcept { return names_; }
  [[nodiscard]] static std::int64_t duration_ns(const Span& span) noexcept {
    return span.end_ns - span.start_ns;
  }

  /// Self time per layer over spans with index >= `first`: each span's
  /// duration minus the part its direct children cover, in nanoseconds.
  [[nodiscard]] std::vector<double> self_ns_by_layer(std::size_t first = 0) const;

  /// Writes "name,layer,parent,spec,start_ns,end_ns,tag" rows.
  [[nodiscard]] bool write_csv(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Name> names_;
  std::vector<Span> spans_;
};

/// Flat JSON object writer: keys in insertion order, numbers printed with
/// full precision.
class JsonObject {
 public:
  JsonObject& number(std::string_view key, double value);
  JsonObject& integer(std::string_view key, std::int64_t value);
  JsonObject& boolean(std::string_view key, bool value);
  JsonObject& string(std::string_view key, std::string_view value);
  JsonObject& object(std::string_view key, const JsonObject& value);
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  void key(std::string_view key);
  std::string body_;
};

}  // namespace headbench

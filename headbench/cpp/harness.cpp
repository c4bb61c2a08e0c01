#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace headbench {

std::optional<double> supported_quantile(std::vector<double> samples, double q,
                                         std::size_t min_beyond) {
  if (samples.empty() || !(q > 0.0) || q > 1.0) return std::nullopt;
  const std::size_t n = samples.size();
  // Nearest rank (1-based): the smallest value with at least q*n samples
  // at or below it.
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < min_beyond) return std::nullopt;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::size_t quantile_window(double q, std::size_t min_beyond) {
  auto n = static_cast<std::size_t>(
      std::ceil(static_cast<double>(min_beyond) / (1.0 - q) - 1e-9));
  std::vector<double> probe(std::max<std::size_t>(n, 1), 0.0);
  while (!supported_quantile(probe, q, min_beyond)) probe.push_back(0.0);
  return probe.size();
}

std::optional<double> windowed_quantile(std::span<const double> ordered,
                                        double q, Across across,
                                        std::size_t min_beyond) {
  if (!(q > 0.0) || !(q < 1.0)) return std::nullopt;
  const std::size_t window = quantile_window(q, min_beyond);
  const std::size_t windows = ordered.size() / window;
  if (windows == 0) return std::nullopt;
  std::vector<double> per_window;
  for (std::size_t g = 0; g < windows; ++g) {
    // Spread the remainder: window g is [g*n/G, (g+1)*n/G).
    const std::size_t lo = g * ordered.size() / windows;
    const std::size_t hi = (g + 1) * ordered.size() / windows;
    const auto v = supported_quantile(
        std::vector<double>(ordered.begin() + static_cast<std::ptrdiff_t>(lo),
                            ordered.begin() + static_cast<std::ptrdiff_t>(hi)),
        q, min_beyond);
    if (!v) return std::nullopt;
    per_window.push_back(*v);
  }
  if (across == Across::kMean) {
    double sum = 0.0;
    for (const double v : per_window) sum += v;
    return sum / static_cast<double>(per_window.size());
  }
  return median(std::move(per_window));
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void fold(std::uint64_t& h, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (8 * i)) & 0xffU;
    h *= kFnvPrime;
  }
}

}  // namespace

std::uint64_t placement_digest(
    std::span<const landlord::serve::PlacementReply> replies) {
  std::uint64_t h = kFnvOffset;
  for (const landlord::serve::PlacementReply& r : replies) {
    fold(h, r.client_id);
    fold(h, static_cast<std::uint64_t>(r.kind));
    fold(h, (r.degraded ? 1U : 0U) | (r.failed ? 2U : 0U));
    fold(h, r.build_retries);
    fold(h, r.image);
    fold(h, r.image_bytes);
    fold(h, r.requested_bytes);
    fold(h, std::bit_cast<std::uint64_t>(r.prep_seconds));
    fold(h, r.error.size());
    for (const char c : r.error) fold(h, static_cast<unsigned char>(c));
  }
  return h;
}

std::optional<std::size_t> first_mismatch(
    std::span<const landlord::serve::PlacementReply> a,
    std::span<const landlord::serve::PlacementReply> b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!(a[i] == b[i])) return i;
  }
  if (a.size() != b.size()) return n;
  return std::nullopt;
}

int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
  }
  return -1;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

const char* layer_name(Layer layer) noexcept {
  switch (layer) {
    case Layer::kHarness: return "harness";
    case Layer::kSpec: return "spec";
    case Layer::kServe: return "serve";
    case Layer::kLandlord: return "landlord";
    case Layer::kShrinkwrap: return "shrinkwrap";
  }
  return "?";
}

SpanRecorder::SpanRecorder() : origin_(Clock::now()) {}

std::uint32_t SpanRecorder::name(std::string text, Layer layer) {
  names_.push_back({std::move(text), layer});
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint32_t SpanRecorder::begin(std::uint32_t name, std::uint64_t spec,
                                  std::uint32_t parent) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.spec = spec;
  spans_.push_back(span);
  // Stamp last (and end() stamps first) so the recorder's own work stays
  // outside the interval.
  spans_.back().start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               Clock::now() - origin_)
                               .count();
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void SpanRecorder::end(std::uint32_t span, std::uint32_t tag) {
  const std::int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               Clock::now() - origin_)
                               .count();
  Span& s = spans_[span];
  s.end_ns = now;
  s.tag = tag;
}

std::vector<double> SpanRecorder::self_ns_by_layer(std::size_t first) const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (std::size_t i = first; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent != Span::kNoParent && s.parent >= first) {
      child_ns[s.parent] += static_cast<double>(duration_ns(s));
    }
  }
  std::vector<double> self(kLayerCount, 0.0);
  for (std::size_t i = first; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const auto layer = static_cast<std::size_t>(names_[s.name].layer);
    self[layer] += static_cast<double>(duration_ns(s)) - child_ns[i];
  }
  return self;
}

bool SpanRecorder::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "name,layer,parent,spec,start_ns,end_ns,tag\n";
  for (const Span& s : spans_) {
    const Name& n = names_[s.name];
    out << n.text << ',' << layer_name(n.layer) << ','
        << (s.parent == Span::kNoParent ? std::int64_t{-1}
                                        : static_cast<std::int64_t>(s.parent))
        << ',' << s.spec << ',' << s.start_ns << ',' << s.end_ns << ','
        << s.tag << '\n';
  }
  return static_cast<bool>(out);
}

void JsonObject::key(std::string_view key) {
  if (!body_.empty()) body_ += ", ";
  body_ += '"';
  body_ += key;
  body_ += "\": ";
}

JsonObject& JsonObject::number(std::string_view key, double value) {
  this->key(key);
  if (!std::isfinite(value)) {
    body_ += "null";
    return *this;
  }
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  body_ += buffer;
  return *this;
}

JsonObject& JsonObject::integer(std::string_view key, std::int64_t value) {
  this->key(key);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::boolean(std::string_view key, bool value) {
  this->key(key);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::string(std::string_view key, std::string_view value) {
  this->key(key);
  body_ += '"';
  for (const char c : value) {
    if (c == '"' || c == '\\') body_ += '\\';
    body_ += (c == '\n') ? ' ' : c;
  }
  body_ += '"';
  return *this;
}

JsonObject& JsonObject::object(std::string_view key, const JsonObject& value) {
  this->key(key);
  body_ += value.str();
  return *this;
}

}  // namespace headbench

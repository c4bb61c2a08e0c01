// Head-node benchmark driver.
//
//   headbench --workload hot|churn --seed N --seconds S --trace 0|1
//             [--spans-dir DIR]
//
// Stands up serve::Server over a core::Landlord on a seeded synthetic
// repository and drives it over loopback from this process, pinned to
// one CPU (headbench::pin_to_one_cpu).
//
// --trace 0 (end to end, no instrumentation attached): the run is split
// into cells, each a fresh head node over inputs from its own seed
// (cell_seed), set up, driven for S / cells seconds (longer if the run
// still lacks the frames its p99 needs), then checked. setup_s is the
// median cell set-up; throughput_sps is the specs answered ok over the
// summed windows; latency_p50_ms is the mean over consecutive 20-frame
// windows of each window's median, so it moves in proportion to the
// share of the run the host slowed rather than jumping between the fast
// and the slow level; latency_p99_ms is the median over consecutive
// 1000-frame windows of each window's p99, so a burst of host
// interference in one window does not set it;
// slo_attainment is the share of offered specs answered ok in a frame
// within the workload's limit. After each window an in-process twin
// (Landlord::submit from one caller) replays the cell's inputs: the
// decision-quality metrics are read from it at a fixed spec count
// (averaged over cells), and every reply the server sent is compared
// with it.
//
// --trace 1 (per layer): replays the reference sequence in process with
// a span around every public call (to_specification, ShardedCache::
// request, find, ImageBuilder::build, the frame codec), times
// Landlord::submit on a twin, then runs a loopback pass with the obs
// registry attached and diffs Server::counters() and the registry.
//
// Per-layer metrics: per-call costs (spec.convert_ns_per_spec,
// landlord.hit_us / decide_us, shrinkwrap.build_us / files_per_build)
// cover every traced call, set-up included; per-spec rates and shares
// cover the replay after set-up. serve.overhead_us_per_spec is the
// loopback frame round trips minus the twin's to_specification +
// Landlord::submit time, per spec; obs.tracing_overhead is the traced
// per-spec time over the untraced one, minus 1; obs.reconcile_ratio is
// the summed convert/request/bytes/find/build spans over the untraced
// time, and must lie within kReconcileTolerance of 1. self_share.<layer>
// is each layer's self time over all self time after set-up.
//
// Both modes print a detail line ("# headbench {...}": host, full config,
// sample counts, checks) and, last, the result object
// {"correct", "attempted", "failed", "metrics"}. Exit status is 0 only
// when every check passed.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "landlord/sharded.hpp"
#include "obs/obs.hpp"
#include "shrinkwrap/builder.hpp"

#include "harness.hpp"
#include "workload.hpp"

namespace {

namespace serve = landlord::serve;
namespace core = landlord::core;
using headbench::Clock;
using headbench::JsonObject;
using headbench::seconds_between;

constexpr int kGenerateRepeats = 5;
constexpr double kMaxWindowSeconds = 120.0;
/// Allowed gap between the traced spans and untraced Landlord::submit
/// on the same sequence, as a share of the latter.
constexpr double kReconcileTolerance = 0.25;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string spans_dir = ".bench_build/spans";
};

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return std::nullopt;
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0)) return std::nullopt;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      o.trace = value == "1" ? 1 : 0;
    } else if (flag == "--spans-dir") {
      o.spans_dir = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !have_workload) return std::nullopt;
  return o;
}

/// A running head node over its own inputs. Members are destroyed in
/// reverse order: the server stops before the landlord and repository
/// it points into go away.
struct Head {
  std::unique_ptr<landlord::pkg::Repository> repo;
  headbench::Inputs inputs;
  std::unique_ptr<core::Landlord> landlord;
  std::unique_ptr<serve::Server> server;
};

/// Repository generation, catalog and trace, landlord, server start and
/// the catalog warm-up — everything before the first timed request.
std::string set_up(Head& head, const headbench::WorkloadConfig& w,
                   std::uint64_t seed, landlord::obs::Observability* obs) {
  head.repo = headbench::make_repository(seed);
  if (!head.repo) return "repository generation failed";
  head.inputs = headbench::make_inputs(w, *head.repo, seed);
  head.landlord = std::make_unique<core::Landlord>(
      *head.repo, headbench::cache_config(w, *head.repo));
  if (obs != nullptr) head.landlord->set_observability(obs);
  head.server =
      std::make_unique<serve::Server>(*head.landlord, headbench::server_config());
  if (obs != nullptr) head.server->set_observability(obs);
  const auto started = head.server->start();
  if (!started.ok()) return "server start failed: " + started.error().message;
  if (w.warm_catalog) {
    return headbench::warm_catalog(head.server->port(), head.inputs, w.batch);
  }
  return {};
}

/// The host a run measured on.
struct Host {
  unsigned nproc = 1;
  int cpu = -1;  ///< the one CPU the process is pinned to; -1 if unpinned
};

JsonObject describe(const headbench::WorkloadConfig& w, const Options& o,
                    const Host& host, std::size_t pipeline_depth) {
  JsonObject config;
  config.string("workload", w.name)
      .integer("seed", static_cast<std::int64_t>(o.seed))
      .number("seconds", o.seconds)
      .integer("trace", o.trace)
      .integer("nproc", host.nproc)
      .integer("pinned_cpu", host.cpu)
      .string("loop", "closed")
      .integer("connections", 1)
      .integer("batch", w.batch)
      .integer("server_workers", headbench::kServerWorkers)
      .integer("shards", headbench::kShards)
      .integer("max_queue", static_cast<std::int64_t>(headbench::server_config().max_queue))
      .integer("pipeline_depth", static_cast<std::int64_t>(pipeline_depth))
      .integer("packages", headbench::kPackages)
      .integer("catalog_specs", headbench::kCatalogSpecs)
      .number("zipf_s", headbench::kZipfS)
      .number("alpha", headbench::kAlpha)
      .number("capacity_factor", w.capacity_factor)
      .integer("cells", w.cells)
      .boolean("warm_catalog", w.warm_catalog)
      .number("slo_ms", w.slo_ms)
      .integer("quality_specs", static_cast<std::int64_t>(w.quality_specs))
      .integer("traced_specs", static_cast<std::int64_t>(w.traced_specs));
  return config;
}

JsonObject metric(double value, const char* unit) {
  JsonObject m;
  m.number("value", value).string("unit", unit);
  return m;
}

int finish(const JsonObject& detail, const std::vector<std::string>& failures,
           std::uint64_t attempted, std::uint64_t failed,
           const JsonObject& metrics) {
  JsonObject d = detail;
  std::string joined;
  for (const std::string& f : failures) joined += (joined.empty() ? "" : "; ") + f;
  d.string("check_failures", joined);
  std::cout << "# headbench " << d.str() << '\n';
  for (const std::string& f : failures) std::cerr << "headbench: check failed: " << f << '\n';
  JsonObject result;
  result.boolean("correct", failures.empty())
      .integer("attempted", static_cast<std::int64_t>(std::max<std::uint64_t>(attempted, 1)))
      .integer("failed", static_cast<std::int64_t>(failed))
      .object("metrics", metrics);
  std::cout << result.str() << std::endl;
  return failures.empty() ? 0 : 1;
}

std::vector<double> frame_rtts(const std::vector<headbench::FrameRecord>& frames,
                               bool hits_only = false) {
  std::vector<double> out;
  out.reserve(frames.size());
  for (const headbench::FrameRecord& f : frames) {
    if (!hits_only || f.all_hits) out.push_back(f.rtt_s);
  }
  return out;
}

// ---------------------------------------------------------------------
// End-to-end run.

/// One cell: a head node over its own inputs, set up, driven and checked.
struct CellResult {
  double setup_s = 0.0;
  double window_s = 0.0;
  double lag_s = 0.0;
  double lag_max_s = 0.0;
  std::vector<double> rtts;
  std::uint64_t offered = 0, ok = 0, met = 0, hits = 0, merges = 0,
                inserts = 0, degraded = 0, failed = 0, rejected = 0,
                compared = 0;
  headbench::Quality quality;
  std::size_t pipeline_depth = 0;
};

/// Sets up a head node for `seed`, drives it for `seconds` (and at least
/// `min_frames` frames), then checks every reply against the twin. Check
/// failures are appended to `failures`; a set-up failure is returned.
std::string run_cell(const headbench::WorkloadConfig& w, std::uint64_t seed,
                     double seconds, std::uint64_t min_frames, CellResult& out,
                     std::vector<std::string>& failures) {
  Head head;
  const Clock::time_point t0 = Clock::now();
  const std::string error = set_up(head, w, seed, nullptr);
  out.setup_s = seconds_between(t0, Clock::now());
  if (!error.empty()) return error;
  out.pipeline_depth = head.server->pipeline_depth();
  const std::string cell = "seed " + std::to_string(seed) + ": ";

  headbench::DrivePlan plan;
  plan.port = head.server->port();
  plan.batch = w.batch;
  plan.stream = head.inputs.trace;
  plan.timed = true;
  plan.min_seconds = seconds;
  plan.min_frames = min_frames;
  plan.max_seconds = kMaxWindowSeconds;
  plan.keep_replies = !w.warm_catalog;
  plan.track_per_spec = w.warm_catalog;

  const core::CacheCounters before = head.landlord->counters();
  const double prep_before = head.landlord->total_prep_seconds();
  const headbench::DriveResult r = headbench::drive(head.inputs, plan);
  const core::CacheCounters after = head.landlord->counters();
  const double prep_after = head.landlord->total_prep_seconds();
  head.server->drain();
  const serve::ServeCounters served = head.server->counters();
  head.server->stop();

  // ---- Checks on what the server answered.
  if (!r.error.empty()) failures.push_back(cell + "driver: " + r.error);
  if (r.answered + r.rejected != r.offered) {
    failures.push_back(cell + "answered " + std::to_string(r.answered) +
                       " + rejected " + std::to_string(r.rejected) +
                       " != offered " + std::to_string(r.offered));
  }
  if (r.hits + r.merges + r.inserts != r.answered) {
    failures.push_back(cell + "hits + merges + inserts != answered");
  }
  if (after.requests - before.requests != r.answered ||
      served.placements_hit + served.placements_merge + served.placements_insert <
          r.answered) {
    failures.push_back(cell + "server decided a different number of specs than answered");
  }
  if (w.warm_catalog &&
      (after.merges != before.merges || after.inserts != before.inserts ||
       after.written_bytes != before.written_bytes || prep_after != prep_before)) {
    failures.push_back(cell + "the timed window of a warm workload built images");
  }

  // ---- The in-process twin: quality at a fixed spec count, and the
  // reference every reply is compared with.
  headbench::Twin twin(*head.repo, w);
  const auto& trace = head.inputs.trace;
  if (w.warm_catalog) twin.warm(head.inputs);
  if (!w.warm_catalog) {
    const std::vector<serve::PlacementReply>& got = r.replies;
    if (got.size() < w.quality_specs) {
      failures.push_back(cell + "window answered fewer specs than the quality checkpoint");
    }
    std::vector<serve::PlacementReply> expected;
    expected.reserve(got.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (i == w.quality_specs) out.quality = headbench::quality_of(twin.landlord());
      expected.push_back(
          twin.submit(headbench::request_for(head.inputs, trace[i % trace.size()])));
    }
    if (got.size() == w.quality_specs) out.quality = headbench::quality_of(twin.landlord());
    out.compared = got.size();
    if (headbench::placement_digest(got) != headbench::placement_digest(expected)) {
      const auto at = headbench::first_mismatch(got, expected);
      failures.push_back(cell + "placement digest differs from the twin's at reply " +
                         std::to_string(at.value_or(0)));
    }
  } else {
    for (std::uint64_t i = 0; i < w.quality_specs; ++i) {
      (void)twin.submit(headbench::request_for(head.inputs, trace[i % trace.size()]));
    }
    out.quality = headbench::quality_of(twin.landlord());
    std::uint64_t mismatched = r.inconsistent;
    for (std::size_t s = 0; s < r.per_spec.size(); ++s) {
      if (!r.per_spec[s]) continue;
      serve::PlacementReply want = twin.submit(head.inputs.catalog[s]);
      want.client_id = 0;
      if (!(want == *r.per_spec[s])) ++mismatched;
      ++out.compared;
    }
    if (mismatched > 0) {
      failures.push_back(cell + std::to_string(mismatched) +
                         " replies differ from the twin's for the same spec");
    }
  }

  out.window_s = r.window_s;
  out.lag_s = r.generator_lag_s;
  out.lag_max_s = r.generator_lag_max_s;
  out.rtts = frame_rtts(r.frames);
  for (const headbench::FrameRecord& f : r.frames) {
    out.ok += f.ok;
    if (f.rtt_s * 1e3 <= w.slo_ms) out.met += f.ok;
  }
  out.offered = r.offered;
  out.hits = r.hits;
  out.merges = r.merges;
  out.inserts = r.inserts;
  out.degraded = r.degraded;
  out.failed = r.failed;
  out.rejected = r.rejected;
  return {};
}

int run_end_to_end(const headbench::WorkloadConfig& w, const Options& o,
                   const Host& host) {
  std::vector<std::string> failures;
  std::vector<CellResult> cells(w.cells);
  // Enough frames for the pooled p99 and, in order, for the quality
  // checkpoint.
  const std::uint64_t p99_window = headbench::quantile_window(0.99);
  std::uint64_t min_frames = (p99_window + w.cells - 1) / w.cells;
  if (!w.warm_catalog) {
    min_frames = std::max<std::uint64_t>(min_frames,
                                         (w.quality_specs + w.batch - 1) / w.batch);
  }
  for (std::uint32_t c = 0; c < w.cells; ++c) {
    const std::string error =
        run_cell(w, headbench::cell_seed(o.seed, c), o.seconds / w.cells,
                 min_frames, cells[c], failures);
    if (!error.empty()) {
      std::cerr << "headbench: set-up failed: " << error << '\n';
      return 2;
    }
  }
  const double rss_mb = headbench::peak_rss_mb();

  CellResult all;
  std::vector<double> setup_s;
  headbench::Quality quality;
  for (const CellResult& c : cells) {
    setup_s.push_back(c.setup_s);
    all.window_s += c.window_s;
    all.lag_s += c.lag_s;
    all.lag_max_s = std::max(all.lag_max_s, c.lag_max_s);
    all.rtts.insert(all.rtts.end(), c.rtts.begin(), c.rtts.end());
    all.offered += c.offered;
    all.ok += c.ok;
    all.met += c.met;
    all.hits += c.hits;
    all.merges += c.merges;
    all.inserts += c.inserts;
    all.degraded += c.degraded;
    all.failed += c.failed;
    all.rejected += c.rejected;
    all.compared += c.compared;
    const double n = static_cast<double>(cells.size());
    quality.container_efficiency += c.quality.container_efficiency / n;
    quality.cache_efficiency += c.quality.cache_efficiency / n;
    quality.io_overhead += c.quality.io_overhead / n;
    quality.prep_s_per_spec += c.quality.prep_s_per_spec / n;
  }
  // Frames are in time order, cell after cell.
  const auto p50 =
      headbench::windowed_quantile(all.rtts, 0.50, headbench::Across::kMean);
  const auto p99 = headbench::windowed_quantile(all.rtts, 0.99);
  if (!p50 || !p99) {
    failures.push_back("too few frames (" + std::to_string(all.rtts.size()) +
                       ") for p99 with ten samples beyond it");
  }

  JsonObject metrics;
  metrics.object("setup_s", metric(headbench::median(setup_s), "s"))
      .object("throughput_sps",
              metric(static_cast<double>(all.ok) / all.window_s, "1/s"))
      .object("latency_p50_ms", metric(p50.value_or(0.0) * 1e3, "ms"))
      .object("latency_p99_ms", metric(p99.value_or(0.0) * 1e3, "ms"))
      .object("slo_attainment",
              metric(static_cast<double>(all.met) /
                         static_cast<double>(std::max<std::uint64_t>(all.offered, 1)),
                     "share"))
      .object("peak_rss_mb", metric(rss_mb, "MiB"))
      .object("container_efficiency", metric(quality.container_efficiency, "share"))
      .object("cache_efficiency", metric(quality.cache_efficiency, "share"))
      .object("io_overhead", metric(quality.io_overhead, "ratio"))
      .object("prep_s_per_spec", metric(quality.prep_s_per_spec, "s"));

  JsonObject counts;
  counts.integer("cells", w.cells)
      .integer("p99_samples", static_cast<std::int64_t>(all.rtts.size()))
      .integer("p99_windows", static_cast<std::int64_t>(all.rtts.size() / p99_window))
      .number("window_s", all.window_s)
      .number("generator_lag_mean_ms",
              all.lag_s * 1e3 / static_cast<double>(std::max<std::size_t>(all.rtts.size(), 1)))
      .number("generator_lag_max_ms", all.lag_max_s * 1e3)
      .integer("offered", static_cast<std::int64_t>(all.offered))
      .integer("ok", static_cast<std::int64_t>(all.ok))
      .integer("hits", static_cast<std::int64_t>(all.hits))
      .integer("merges", static_cast<std::int64_t>(all.merges))
      .integer("inserts", static_cast<std::int64_t>(all.inserts))
      .integer("degraded", static_cast<std::int64_t>(all.degraded))
      .integer("failed", static_cast<std::int64_t>(all.failed))
      .integer("rejected", static_cast<std::int64_t>(all.rejected))
      .integer("replies_checked", static_cast<std::int64_t>(all.compared));
  JsonObject setups, cell_sps;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    setups.number(std::to_string(i), cells[i].setup_s);
    cell_sps.number(std::to_string(i), static_cast<double>(cells[i].ok) /
                                           cells[i].window_s);
  }
  JsonObject detail;
  detail.object("config", describe(w, o, host, cells.front().pipeline_depth))
      .object("counts", counts)
      .object("cell_setup_s", setups)
      .object("cell_throughput_sps", cell_sps);
  return finish(detail, failures, all.offered, all.offered - all.ok, metrics);
}

// ---------------------------------------------------------------------
// Traced run.

/// Span names of the decomposed replay.
struct Names {
  std::uint32_t frame, submit, convert, request, account, find, build,
      encode_submit, decode_submit, encode_reply, decode_reply;
  explicit Names(headbench::SpanRecorder& rec)
      : frame(rec.name("frame", headbench::Layer::kHarness)),
        submit(rec.name("submit", headbench::Layer::kHarness)),
        convert(rec.name("to_specification", headbench::Layer::kSpec)),
        request(rec.name("ShardedCache::request", headbench::Layer::kLandlord)),
        account(rec.name("Specification::bytes", headbench::Layer::kLandlord)),
        find(rec.name("ShardedCache::find", headbench::Layer::kLandlord)),
        build(rec.name("ImageBuilder::build", headbench::Layer::kShrinkwrap)),
        encode_submit(rec.name("encode_batch_submit", headbench::Layer::kServe)),
        decode_submit(rec.name("decode_frame(submit)", headbench::Layer::kServe)),
        encode_reply(rec.name("encode_batch_placement", headbench::Layer::kServe)),
        decode_reply(rec.name("decode_frame(reply)", headbench::Layer::kServe)) {}
};

double registry_delta(const std::map<std::string, double>& before,
                      const std::map<std::string, double>& after,
                      const std::string& key) {
  const auto a = after.find(key);
  const auto b = before.find(key);
  return (a == after.end() ? 0.0 : a->second) - (b == before.end() ? 0.0 : b->second);
}

int run_traced(const headbench::WorkloadConfig& w, const Options& o,
               const Host& host) {
  std::vector<std::string> failures;
  // The traced run follows the first cell of the end-to-end run.
  const std::uint64_t seed = headbench::cell_seed(o.seed, 0);
  std::vector<double> generate_s;
  std::unique_ptr<landlord::pkg::Repository> repo;
  for (int i = 0; i < kGenerateRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    repo = headbench::make_repository(seed);
    generate_s.push_back(seconds_between(t0, Clock::now()));
    if (!repo) {
      std::cerr << "headbench: repository generation failed\n";
      return 2;
    }
  }
  const headbench::Inputs inputs = headbench::make_inputs(w, *repo, seed);
  const std::size_t universe = repo->size();
  const auto& trace = inputs.trace;
  const std::uint64_t m = std::min<std::uint64_t>(w.traced_specs, trace.size());

  // The reference sequence: the set-up warm-up (if any), then m trace
  // specs. Phase markers split set-up from the timed part.
  std::vector<serve::SubmitRequest> sequence;
  if (w.warm_catalog) sequence = inputs.catalog;
  const std::size_t timed_from = sequence.size();
  for (std::uint64_t i = 0; i < m; ++i) {
    sequence.push_back(headbench::request_for(inputs, trace[i]));
  }

  // ---- Phases A and B, in lockstep frame by frame so a slow spell of
  // the host hits both alike. A: the decomposed replay with a span around
  // every public call. B: the untraced twin, Landlord::submit per spec.
  headbench::SpanRecorder rec;
  const Names names(rec);
  core::ShardedCache cache(*repo, headbench::cache_config(w, *repo));
  landlord::shrinkwrap::ImageBuilder builder(*repo);
  headbench::Twin twin(*repo, w);
  std::vector<serve::PlacementReply> replies_a;
  std::vector<serve::PlacementReply> replies_b;
  double files = 0, builds = 0, timed_builds = 0, b_spec_s = 0;
  std::size_t first_timed_span = 0;
  std::uint64_t deletes_before = 0;
  for (std::size_t cursor = 0; cursor < sequence.size();) {
    if (cursor == timed_from) {
      first_timed_span = rec.spans().size();
      deletes_before = cache.counters().deletes;
    }
    // Frames never straddle the set-up / timed boundary.
    const std::size_t limit = cursor < timed_from ? timed_from : sequence.size();
    const std::size_t begin = cursor;
    const std::size_t end = std::min(limit, cursor + w.batch);
    const std::span<const serve::SubmitRequest> batch(sequence.data() + cursor,
                                                      end - cursor);
    const std::uint32_t frame = rec.begin(names.frame, cursor);
    std::uint32_t s = rec.begin(names.encode_submit, cursor, frame);
    const std::string wire = serve::encode_batch_submit(cursor, batch);
    rec.end(s);
    s = rec.begin(names.decode_submit, cursor, frame);
    const serve::Decoded<serve::Frame> decoded = serve::decode_frame(wire, universe);
    rec.end(s);
    if (!decoded.ok() || decoded.value.submits.size() != batch.size()) {
      failures.push_back("submit frame did not round-trip through the codec");
      break;
    }
    std::vector<serve::PlacementReply> frame_replies;
    for (const serve::SubmitRequest& request : decoded.value.submits) {
      const std::uint64_t id = cursor++;
      const std::uint32_t root = rec.begin(names.submit, id, frame);
      s = rec.begin(names.convert, id, root);
      const landlord::spec::Specification spec =
          serve::to_specification(request, universe);
      rec.end(s);
      s = rec.begin(names.request, id, root);
      const core::Cache::Outcome outcome = cache.request(spec);
      rec.end(s, static_cast<std::uint32_t>(outcome.kind));
      s = rec.begin(names.account, id, root);
      const landlord::util::Bytes requested = spec.bytes(*repo);
      rec.end(s);
      core::JobPlacement placement;
      placement.kind = outcome.kind;
      placement.image = outcome.image;
      placement.image_bytes = outcome.image_bytes;
      placement.requested_bytes = requested;
      if (outcome.kind != core::RequestKind::kHit || outcome.split) {
        s = rec.begin(names.find, id, root);
        const std::optional<core::Image> image = cache.find(outcome.image);
        rec.end(s);
        if (!image) {
          failures.push_back("decided image vanished before its build");
          break;
        }
        const landlord::spec::Specification materialised{image->contents};
        s = rec.begin(names.build, id, root);
        const landlord::shrinkwrap::BuiltImage built =
            builder.build(materialised, core::to_value(outcome.image));
        rec.end(s);
        files += static_cast<double>(built.files);
        builds += 1;
        if (id >= timed_from) timed_builds += 1;
        placement.prep_seconds = built.prep_seconds;
      }
      rec.end(root);
      frame_replies.push_back(serve::to_reply(placement, request.client_id));
    }
    s = rec.begin(names.encode_reply, end, frame);
    const std::string reply_wire = serve::encode_batch_placement(end, frame_replies);
    rec.end(s);
    s = rec.begin(names.decode_reply, end, frame);
    const serve::Decoded<serve::Frame> reply = serve::decode_frame(reply_wire, 0);
    rec.end(s);
    rec.end(frame);
    if (!reply.ok() || reply.value.placements != frame_replies) {
      failures.push_back("reply frame did not round-trip through the codec");
      break;
    }
    replies_a.insert(replies_a.end(), frame_replies.begin(), frame_replies.end());

    for (std::size_t i = begin; i < end; ++i) {
      const Clock::time_point t0 = Clock::now();
      replies_b.push_back(twin.submit(sequence[i]));
      if (i >= timed_from) b_spec_s += seconds_between(t0, Clock::now());
    }
  }
  const double deletes_timed =
      static_cast<double>(cache.counters().deletes - deletes_before);
  if (replies_a != replies_b) {
    const auto at = headbench::first_mismatch(replies_a, replies_b);
    failures.push_back("traced replay and Landlord::submit decided differently at spec " +
                       std::to_string(at.value_or(0)));
  }

  // ---- Phase C: loopback pass with the registry attached.
  landlord::obs::Observability obs;
  Head head;
  const std::string error = set_up(head, w, seed, &obs);
  if (!error.empty()) {
    std::cerr << "headbench: set-up failed: " << error << '\n';
    return 2;
  }
  headbench::DrivePlan plan;
  plan.port = head.server->port();
  plan.batch = w.batch;
  plan.stream = std::span(trace.data(), m);
  plan.timed = false;
  plan.keep_replies = true;
  const serve::ServeCounters serve_before = head.server->counters();
  const core::CacheCounters cache_before = head.landlord->counters();
  const auto registry_before = obs.registry.snapshot();
  const headbench::DriveResult loop = headbench::drive(inputs, plan);
  const serve::ServeCounters serve_after = head.server->counters();
  const core::CacheCounters cache_after = head.landlord->counters();
  const auto registry_after = obs.registry.snapshot();
  head.server->drain();
  head.server->stop();
  if (!loop.error.empty()) failures.push_back("loopback: " + loop.error);
  if (loop.answered != m) failures.push_back("loopback pass left specs unanswered");
  const std::vector<serve::PlacementReply> timed_b(
      replies_b.begin() + static_cast<std::ptrdiff_t>(timed_from), replies_b.end());
  if (headbench::placement_digest(loop.replies) != headbench::placement_digest(timed_b)) {
    failures.push_back("loopback placements differ from Landlord::submit");
  }

  // ---- Per-layer numbers.
  const auto& spans = rec.spans();
  double convert_ns = 0, convert_n = 0, codec_ns = 0, hit_ns = 0, hit_n = 0,
         decide_ns = 0, decide_n = 0, build_ns = 0, timed_build_ns = 0,
         traced_ns = 0, submit_root_ns = 0, frame_ns = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const headbench::Span& sp = spans[i];
    const auto d = static_cast<double>(headbench::SpanRecorder::duration_ns(sp));
    const bool timed = i >= first_timed_span;
    if (sp.name == names.convert) {
      convert_ns += d;
      convert_n += 1;
    } else if (sp.name == names.encode_submit || sp.name == names.decode_submit ||
               sp.name == names.encode_reply || sp.name == names.decode_reply) {
      codec_ns += d;
    } else if (sp.name == names.request) {
      if (sp.tag == static_cast<std::uint32_t>(core::RequestKind::kHit)) {
        hit_ns += d;
        hit_n += 1;
      } else {
        decide_ns += d;
        decide_n += 1;
      }
    } else if (sp.name == names.build) {
      build_ns += d;
      if (timed) timed_build_ns += d;
    } else if (timed && sp.name == names.submit) {
      submit_root_ns += d;
    } else if (timed && sp.name == names.frame) {
      frame_ns += d;
    }
    if (timed && (sp.name == names.convert || sp.name == names.request ||
                  sp.name == names.account || sp.name == names.find ||
                  sp.name == names.build)) {
      traced_ns += d;
    }
  }
  const double md = static_cast<double>(m);
  const double total = static_cast<double>(sequence.size());
  const double reconcile = b_spec_s > 0 ? traced_ns * 1e-9 / b_spec_s : 0.0;
  if (!(std::abs(reconcile - 1.0) <= kReconcileTolerance)) {
    failures.push_back("traced spans sum to " + std::to_string(reconcile) +
                       " of Landlord::submit time (tolerance " +
                       std::to_string(kReconcileTolerance) + ")");
  }
  const std::vector<double> self = rec.self_ns_by_layer(first_timed_span);
  double self_total = 0;
  for (const double v : self) self_total += v;

  double rtt_sum = 0;
  for (const headbench::FrameRecord& f : loop.frames) rtt_sum += f.rtt_s;
  const std::vector<double> hit_rtts = frame_rtts(loop.frames, true);
  const auto hit_p99 = headbench::supported_quantile(hit_rtts, 0.99);
  const double memo_hit =
      registry_delta(registry_before, registry_after, "landlord_index_memo_total{result=\"hit\"}");
  const double memo_miss = registry_delta(registry_before, registry_after,
                                          "landlord_index_memo_total{result=\"miss\"}");
  const double probe_sum = registry_delta(registry_before, registry_after,
                                          "landlord_index_postings_probe_length_sum");
  const double probe_count = registry_delta(registry_before, registry_after,
                                            "landlord_index_postings_probe_length_count");
  const double gathered =
      static_cast<double>(serve_after.gathered_writes - serve_before.gathered_writes);

  JsonObject metrics;
  metrics.object("pkg.generate_s", metric(headbench::median(generate_s), "s"))
      .object("spec.convert_ns_per_spec",
              metric(convert_n > 0 ? convert_ns / convert_n : 0.0, "ns"))
      .object("serve.codec_ns_per_spec", metric(codec_ns / total, "ns"))
      .object("serve.overhead_us_per_spec",
              metric((rtt_sum - b_spec_s) / md * 1e6, "us"))
      .object("serve.frames_per_write",
              metric(gathered > 0 ? static_cast<double>(serve_after.frames_out -
                                                        serve_before.frames_out) /
                                        gathered
                                  : 0.0,
                     "ratio"))
      .object("serve.queue_depth_peak",
              metric(static_cast<double>(serve_after.queue_depth_peak), "count"))
      .object("serve.rejected_share",
              metric(static_cast<double>(serve_after.rejected_requests -
                                         serve_before.rejected_requests) /
                         md,
                     "share"))
      .object("serve.hit_frame_p99_ms", metric(hit_p99.value_or(0.0) * 1e3, "ms"))
      .object("landlord.hit_us", metric(hit_n > 0 ? hit_ns / hit_n * 1e-3 : 0.0, "us"))
      .object("landlord.memo_hit_ratio",
              metric(memo_hit + memo_miss > 0 ? memo_hit / (memo_hit + memo_miss) : 0.0,
                     "share"))
      .object("landlord.decide_us",
              metric(decide_n > 0 ? decide_ns / decide_n * 1e-3 : 0.0, "us"))
      .object("landlord.probe_len_mean",
              metric(probe_count > 0 ? probe_sum / probe_count : 0.0, "count"))
      .object("landlord.evictions_per_spec", metric(deletes_timed / md, "ratio"))
      .object("landlord.shard_contentions_per_spec",
              metric(static_cast<double>(cache_after.shard_lock_contentions -
                                         cache_before.shard_lock_contentions) /
                         md,
                     "ratio"))
      .object("shrinkwrap.build_us", metric(builds > 0 ? build_ns / builds * 1e-3 : 0.0, "us"))
      .object("shrinkwrap.files_per_build", metric(builds > 0 ? files / builds : 0.0, "count"))
      .object("shrinkwrap.builds_per_spec", metric(timed_builds / md, "ratio"))
      .object("shrinkwrap.busy_share",
              metric(frame_ns > 0 ? timed_build_ns / frame_ns : 0.0, "share"))
      .object("obs.tracing_overhead",
              metric(b_spec_s > 0 ? submit_root_ns * 1e-9 / b_spec_s - 1.0 : 0.0,
                     "share"))
      .object("obs.reconcile_ratio", metric(reconcile, "ratio"));
  for (std::size_t l = 0; l < headbench::kLayerCount; ++l) {
    const std::string name = std::string("self_share.") +
                             headbench::layer_name(static_cast<headbench::Layer>(l));
    metrics.object(name, metric(self_total > 0 ? self[l] / self_total : 0.0, "share"));
  }

  std::string spans_path;
  std::error_code ec;
  std::filesystem::create_directories(o.spans_dir, ec);
  spans_path = o.spans_dir + "/" + w.name + ".spans.csv";
  if (ec || !rec.write_csv(spans_path)) {
    failures.push_back("could not write spans to " + spans_path);
  }

  JsonObject counts;
  counts.integer("traced_specs", static_cast<std::int64_t>(m))
      .integer("setup_specs", static_cast<std::int64_t>(timed_from))
      .integer("spans", static_cast<std::int64_t>(spans.size()))
      .integer("builds", static_cast<std::int64_t>(builds))
      .integer("loopback_frames", static_cast<std::int64_t>(loop.frames.size()))
      .integer("hit_frames", static_cast<std::int64_t>(hit_rtts.size()))
      .number("traced_frames_s", frame_ns * 1e-9)
      .number("traced_submit_s", submit_root_ns * 1e-9)
      .number("untraced_submit_s", b_spec_s)
      .number("traced_span_s", traced_ns * 1e-9)
      .number("reconcile_tolerance", kReconcileTolerance)
      .string("spans_csv", spans_path);
  JsonObject detail;
  detail.object("config", describe(w, o, host, head.server->pipeline_depth()))
      .object("counts", counts);
  return finish(detail, failures, m, loop.offered - loop.answered + loop.failed,
                metrics);
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = parse(argc, argv);
  if (!options) {
    std::cerr << "usage: headbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans-dir DIR]\n";
    return 2;
  }
  Host host;
  host.nproc = std::max(1U, std::thread::hardware_concurrency());
  const auto workload = headbench::workload_named(options->workload);
  if (!workload) {
    std::cerr << "headbench: unknown workload '" << options->workload << "'\n";
    return 2;
  }
  // Before any thread starts, so the server's threads inherit it.
  host.cpu = headbench::pin_to_one_cpu();
  return options->trace == 1 ? run_traced(*workload, *options, host)
                             : run_end_to_end(*workload, *options, host);
}

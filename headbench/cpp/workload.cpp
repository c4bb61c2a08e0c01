#include "workload.hpp"

#include <algorithm>
#include <sstream>

#include "pkg/manifest.hpp"
#include "pkg/synthetic.hpp"
#include "serve/client.hpp"

#include "harness.hpp"

namespace headbench {

namespace serve = landlord::serve;
namespace core = landlord::core;

std::optional<WorkloadConfig> workload_named(const std::string& name) {
  WorkloadConfig w;
  w.name = name;
  if (name == "hot") {
    // Warm catalog, 100x capacity: every timed spec is a memo hit and the
    // builder idles. Frames are large enough that serving, not thread
    // wake-ups, sets the round trip. On a 4-core VM two connections (six
    // busy threads) raised throughput but let the p99 swing 4x between
    // runs as host load came and went; 64-spec frames made throughput
    // drift 15-20%.
    w.batch = 256;
    w.capacity_factor = 100.0;
    w.warm_catalog = true;
    w.slo_ms = 2.0;
    w.quality_specs = 1 << 16;
    // 1024 loopback frames, so the traced run's hit-frame p99 is supported.
    w.traced_specs = 1 << 18;
    w.trace_length = 1 << 18;
    return w;
  }
  if (name == "churn") {
    // Half the repository fits: most specs merge or insert and the
    // builder dominates; the decision sequence is identical from run to
    // run. Frames are small so a run collects the 1000 frames its p99
    // needs. Builder time per spec varies with each seed's catalog, so
    // churn averages over more cells.
    w.cells = 16;
    w.batch = 4;
    w.capacity_factor = 0.5;
    w.warm_catalog = false;
    w.slo_ms = 15.0;
    w.quality_specs = 512;
    w.traced_specs = 2048;
    return w;
  }
  return std::nullopt;
}

std::vector<std::string> workload_names() { return {"hot", "churn"}; }

core::CacheConfig cache_config(const WorkloadConfig& workload,
                               const landlord::pkg::Repository& repo) {
  core::CacheConfig config;
  config.alpha = kAlpha;
  config.capacity = static_cast<landlord::util::Bytes>(
      static_cast<double>(repo.total_bytes()) * workload.capacity_factor);
  config.shards = kShards;
  return config;
}

serve::ServerConfig server_config() {
  serve::ServerConfig config;
  config.port = 0;
  config.workers = kServerWorkers;
  return config;
}

serve::LoadGenConfig load_config(const WorkloadConfig& workload,
                                 std::uint64_t seed) {
  serve::LoadGenConfig config;
  config.seed = seed;
  config.connections = 1;
  config.batch = workload.batch;
  config.zipf_s = kZipfS;
  config.catalog_specs = kCatalogSpecs;
  return config;
}

std::unique_ptr<landlord::pkg::Repository> make_repository(std::uint64_t seed) {
  landlord::pkg::SyntheticRepoParams params;
  params.total_packages = kPackages;
  auto repo = landlord::pkg::generate_repository(params, seed);
  if (!repo.ok()) return nullptr;
  return std::make_unique<landlord::pkg::Repository>(std::move(repo).value());
}

Inputs make_inputs(const WorkloadConfig& workload,
                   const landlord::pkg::Repository& repo, std::uint64_t seed) {
  const serve::LoadGenConfig config = load_config(workload, seed);
  Inputs inputs;
  inputs.catalog = serve::make_catalog(repo, config);
  inputs.trace =
      serve::make_trace(config, inputs.catalog.size(), 0, workload.trace_length);
  return inputs;
}

std::string serialize_inputs(const landlord::pkg::Repository& repo,
                             const Inputs& inputs) {
  std::ostringstream out;
  landlord::pkg::write_manifest(repo, out);
  out << serve::encode_batch_submit(0, inputs.catalog);
  for (const serve::TraceEntry& entry : inputs.trace) {
    out << entry.spec << ':' << entry.client_id << ';';
  }
  return out.str();
}

serve::SubmitRequest request_for(const Inputs& inputs,
                                 const serve::TraceEntry& entry) {
  serve::SubmitRequest request = inputs.catalog[entry.spec];
  request.client_id = entry.client_id;
  return request;
}

std::string warm_catalog(std::uint16_t port, const Inputs& inputs,
                         std::uint32_t batch) {
  serve::Client client;
  if (!client.connect(port).ok()) return "warm-up could not connect";
  for (std::size_t cursor = 0; cursor < inputs.catalog.size(); cursor += batch) {
    const std::size_t end = std::min(inputs.catalog.size(), cursor + batch);
    auto placed = client.submit_batch(std::span<const serve::SubmitRequest>(
        inputs.catalog.data() + cursor, end - cursor));
    if (!placed.ok()) return "warm-up frame refused: " + placed.error().message;
    for (const serve::PlacementReply& reply : placed.value()) {
      if (reply.failed || reply.degraded) return "warm-up placement failed";
    }
  }
  return {};
}

DriveResult drive(const Inputs& inputs, const DrivePlan& plan) {
  DriveResult r;
  serve::Client client;
  if (!client.connect(plan.port).ok()) {
    r.error = "could not connect";
    return r;
  }
  if (plan.track_per_spec) r.per_spec.resize(inputs.catalog.size());
  const std::span<const serve::TraceEntry> stream = plan.stream;
  std::vector<serve::SubmitRequest> batch;
  std::vector<std::uint32_t> specs;
  batch.reserve(plan.batch);
  std::size_t cursor = 0;
  const Clock::time_point start = Clock::now();
  // Closed loop: a frame is due the moment the previous reply arrived.
  Clock::time_point due = start;
  while (r.error.empty()) {
    if (plan.timed) {
      // The window closes once it has run its length and answered enough
      // frames for the reported percentiles, or at the hard cap.
      const double elapsed = seconds_between(start, due);
      if ((elapsed >= plan.min_seconds && r.frames.size() >= plan.min_frames) ||
          elapsed >= plan.max_seconds) {
        break;
      }
    } else if (cursor >= stream.size()) {
      break;
    }
    batch.clear();
    specs.clear();
    for (std::uint32_t i = 0; i < plan.batch; ++i) {
      if (!plan.timed && cursor >= stream.size()) break;
      const serve::TraceEntry& entry = stream[cursor % stream.size()];
      ++cursor;
      batch.push_back(request_for(inputs, entry));
      specs.push_back(entry.spec);
    }
    const std::string wire =
        serve::encode_batch_submit(client.next_request_id(), batch);
    const Clock::time_point sent = Clock::now();
    if (!client.send_frame(wire)) {
      r.error = "send failed";
      break;
    }
    serve::Decoded<serve::Frame> reply = client.recv_frame();
    const Clock::time_point done = Clock::now();
    const double lag = seconds_between(due, sent);
    r.generator_lag_s += lag;
    r.generator_lag_max_s = std::max(r.generator_lag_max_s, lag);
    due = done;
    if (!reply.ok()) {
      r.error = "reply could not be decoded";
      break;
    }
    FrameRecord record;
    record.end_s = seconds_between(start, done);
    record.rtt_s = seconds_between(sent, done);
    record.specs = static_cast<std::uint32_t>(batch.size());
    r.offered += batch.size();
    const serve::Frame& f = reply.value;
    if (f.header.type == serve::FrameType::kRejected) {
      r.rejected += batch.size();
    } else if (f.header.type != serve::FrameType::kBatchPlacement ||
               f.placements.size() != batch.size()) {
      r.error = "reply does not answer the frame";
      break;
    } else {
      record.all_hits = true;
      for (std::size_t i = 0; i < f.placements.size(); ++i) {
        const serve::PlacementReply& p = f.placements[i];
        if (p.client_id != batch[i].client_id) {
          r.error = "reply out of order";
          break;
        }
        ++r.answered;
        switch (p.kind) {
          case core::RequestKind::kHit: ++r.hits; break;
          case core::RequestKind::kMerge: ++r.merges; break;
          case core::RequestKind::kInsert: ++r.inserts; break;
        }
        record.all_hits = record.all_hits && p.kind == core::RequestKind::kHit;
        if (p.failed) ++r.failed;
        if (p.degraded) ++r.degraded;
        if (!p.failed && !p.degraded) ++record.ok;
        if (plan.track_per_spec) {
          serve::PlacementReply anonymous = p;
          anonymous.client_id = 0;
          auto& seen = r.per_spec[specs[i]];
          if (!seen) {
            seen = std::move(anonymous);
          } else if (!(*seen == anonymous)) {
            ++r.inconsistent;
          }
        }
      }
      if (plan.keep_replies) {
        r.replies.insert(r.replies.end(), f.placements.begin(), f.placements.end());
      }
    }
    r.frames.push_back(record);
  }
  r.window_s = seconds_between(start, Clock::now());
  client.close();
  return r;
}

Quality quality_of(const core::Landlord& landlord) {
  const core::CacheCounters counters = landlord.counters();
  const auto total = static_cast<double>(landlord.total_bytes());
  Quality q;
  q.container_efficiency = counters.container_efficiency();
  q.cache_efficiency =
      total > 0 ? static_cast<double>(landlord.unique_bytes()) / total : 1.0;
  q.io_overhead = counters.requested_bytes > 0
                      ? static_cast<double>(counters.written_bytes) /
                            static_cast<double>(counters.requested_bytes)
                      : 0.0;
  q.prep_s_per_spec =
      counters.requests > 0
          ? landlord.total_prep_seconds() / static_cast<double>(counters.requests)
          : 0.0;
  return q;
}

Twin::Twin(const landlord::pkg::Repository& repo, const WorkloadConfig& workload)
    : universe_(repo.size()), landlord_(repo, cache_config(workload, repo)) {}

serve::PlacementReply Twin::submit(const serve::SubmitRequest& request) {
  const landlord::spec::Specification spec =
      serve::to_specification(request, universe_);
  return serve::to_reply(landlord_.submit(spec), request.client_id);
}

void Twin::warm(const Inputs& inputs) {
  for (const serve::SubmitRequest& request : inputs.catalog) {
    (void)submit(request);
  }
}

}  // namespace headbench

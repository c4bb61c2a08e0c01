// Networked head node: stands up the TCP service plane (serve::Server)
// around a core::Landlord over a synthetic repository, and optionally
// drives it with the built-in load generator.
//
//   serve_head_node [--port P] [--workers N] [--shards N] [--max-queue N]
//                   [--heads N] [--pipeline-depth N] [--packages N]
//                   [--seed S] [--alpha A] [--capacity-fraction F]
//                   [--duration SECONDS] [--metrics-out FILE]
//   serve_head_node --bench [--mode closed|open] [--connections N]
//                   [--batch N] [--requests N] [--rate R] [--warmup]
//                   [--bench-duration SECONDS] [--clients N] [--zipf S]
//                   [--drain-timeout SECONDS]
//                   [--chaos [--chaos-seed S] [--chaos-reset P]
//                    [--chaos-stall P] [--chaos-partial P]
//                    [--chaos-accept P]]
//
// Server mode binds 127.0.0.1 (port 0 picks an ephemeral one, printed as
// "listening on PORT"), serves until --duration elapses (default 30s),
// then drains gracefully and prints the service-plane counters. Talk to
// it with serve_client.
//
// --heads N stands up N servers over ONE shared Landlord (and one obs
// registry): the multi-head topology from the XCache-style deployments —
// several socket front ends, one repository of record. The load
// generator spreads its connections across the heads round-robin.
//
// --bench starts the same server(s) in-process, runs the load generator
// against them over loopback, and prints one JSON report to stdout —
// scripts/bench_serve.sh parses this and gates on QPS (BENCH_serve.json).
// --warmup submits the whole catalog once per head before the timed
// window, so open-loop quantiles measure steady-state serving rather
// than the cold-cache insert/merge transient.
//
// --chaos routes the load generator through the in-process seeded fault
// shim (serve::ChaosProxy): connections are reset, stalled, fragmented
// and refused on a replayable schedule while reconnecting v2 retry
// clients (idempotent via the server's dedup window) must still land
// every request exactly once — bench_serve.sh gates the chaos run on
// zero lost requests with a nonzero injected-fault count.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "landlord/landlord.hpp"
#include "obs/obs.hpp"
#include "pkg/synthetic.hpp"
#include "serve/chaos.hpp"
#include "serve/loadgen.hpp"
#include "serve/retry.hpp"
#include "serve/server.hpp"

namespace {

using landlord::serve::LoadGenConfig;
using landlord::serve::LoadGenReport;
using landlord::serve::LoadMode;
using landlord::serve::ServeCounters;
using landlord::serve::ServerConfig;

struct Options {
  // Server shape.
  std::uint16_t port = 0;
  std::uint32_t workers = 8;
  std::uint32_t shards = 8;
  std::size_t max_queue = 1024;
  std::uint32_t heads = 1;
  std::optional<std::size_t> pipeline_depth;
  std::uint32_t packages = 1500;
  std::uint64_t seed = 42;
  double alpha = 0.8;
  double capacity_fraction = 0.5;
  double duration = 30.0;
  std::optional<std::string> metrics_out;
  // Bench mode.
  bool bench = false;
  LoadMode mode = LoadMode::kClosed;
  std::uint32_t connections = 8;
  std::uint32_t batch = 64;
  std::uint64_t requests = 400000;
  double rate = 100000.0;
  double bench_duration = 0.0;
  std::uint64_t clients = 2'000'000;
  double zipf = 1.1;
  bool warmup = false;
  double drain_timeout = 10.0;
  // Chaos mode: loadgen traffic through the seeded fault shim.
  bool chaos = false;
  std::uint64_t chaos_seed = 1337;
  double chaos_reset = 0.002;
  double chaos_stall = 0.002;
  double chaos_partial = 0.002;
  double chaos_accept = 0.01;
};

std::optional<Options> parse_args(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const auto number = [&](auto& slot) {
      const char* value = next();
      if (value == nullptr) return false;
      slot = static_cast<std::remove_reference_t<decltype(slot)>>(
          std::strtod(value, nullptr));
      return true;
    };
    if (arg == "--port") {
      if (!number(options.port)) return std::nullopt;
    } else if (arg == "--workers") {
      if (!number(options.workers)) return std::nullopt;
    } else if (arg == "--shards") {
      if (!number(options.shards)) return std::nullopt;
    } else if (arg == "--max-queue") {
      if (!number(options.max_queue)) return std::nullopt;
    } else if (arg == "--heads") {
      if (!number(options.heads)) return std::nullopt;
    } else if (arg == "--pipeline-depth") {
      std::size_t depth = 0;
      if (!number(depth)) return std::nullopt;
      options.pipeline_depth = depth;
    } else if (arg == "--packages") {
      if (!number(options.packages)) return std::nullopt;
    } else if (arg == "--seed") {
      if (!number(options.seed)) return std::nullopt;
    } else if (arg == "--alpha") {
      if (!number(options.alpha)) return std::nullopt;
    } else if (arg == "--capacity-fraction") {
      if (!number(options.capacity_fraction)) return std::nullopt;
    } else if (arg == "--duration") {
      if (!number(options.duration)) return std::nullopt;
    } else if (arg == "--metrics-out") {
      const char* value = next();
      if (value == nullptr) return std::nullopt;
      options.metrics_out = value;
    } else if (arg == "--bench") {
      options.bench = true;
    } else if (arg == "--mode") {
      const char* value = next();
      if (value == nullptr) return std::nullopt;
      const std::string mode = value;
      if (mode == "closed") {
        options.mode = LoadMode::kClosed;
      } else if (mode == "open") {
        options.mode = LoadMode::kOpen;
      } else {
        return std::nullopt;
      }
    } else if (arg == "--connections") {
      if (!number(options.connections)) return std::nullopt;
    } else if (arg == "--batch") {
      if (!number(options.batch)) return std::nullopt;
    } else if (arg == "--requests") {
      if (!number(options.requests)) return std::nullopt;
    } else if (arg == "--rate") {
      if (!number(options.rate)) return std::nullopt;
    } else if (arg == "--bench-duration") {
      if (!number(options.bench_duration)) return std::nullopt;
    } else if (arg == "--clients") {
      if (!number(options.clients)) return std::nullopt;
    } else if (arg == "--zipf") {
      if (!number(options.zipf)) return std::nullopt;
    } else if (arg == "--warmup") {
      options.warmup = true;
    } else if (arg == "--drain-timeout") {
      if (!number(options.drain_timeout)) return std::nullopt;
    } else if (arg == "--chaos") {
      options.chaos = true;
    } else if (arg == "--chaos-seed") {
      if (!number(options.chaos_seed)) return std::nullopt;
    } else if (arg == "--chaos-reset") {
      if (!number(options.chaos_reset)) return std::nullopt;
    } else if (arg == "--chaos-stall") {
      if (!number(options.chaos_stall)) return std::nullopt;
    } else if (arg == "--chaos-partial") {
      if (!number(options.chaos_partial)) return std::nullopt;
    } else if (arg == "--chaos-accept") {
      if (!number(options.chaos_accept)) return std::nullopt;
    } else {
      return std::nullopt;
    }
  }
  return options;
}

/// Sums the per-head counter snapshots into one repository-wide view;
/// the queue peak is the worst single head (the queues are per head, so
/// adding them would invent a depth no server ever saw).
ServeCounters aggregate_counters(
    const std::vector<std::unique_ptr<landlord::serve::Server>>& servers) {
  ServeCounters total;
  for (const auto& server : servers) {
    const ServeCounters counters = server->counters();
    total.connections_accepted += counters.connections_accepted;
    total.connections_closed += counters.connections_closed;
    total.frames_in += counters.frames_in;
    total.frames_out += counters.frames_out;
    total.frames_admitted += counters.frames_admitted;
    total.specs_admitted += counters.specs_admitted;
    total.frames_processed += counters.frames_processed;
    total.requests_served += counters.requests_served;
    total.placements_hit += counters.placements_hit;
    total.placements_merge += counters.placements_merge;
    total.placements_insert += counters.placements_insert;
    total.placements_degraded += counters.placements_degraded;
    total.placements_failed += counters.placements_failed;
    total.rejected_queue_full += counters.rejected_queue_full;
    total.rejected_draining += counters.rejected_draining;
    total.rejected_requests += counters.rejected_requests;
    total.decode_errors += counters.decode_errors;
    total.pings += counters.pings;
    total.stats_requests += counters.stats_requests;
    total.bytes_in += counters.bytes_in;
    total.bytes_out += counters.bytes_out;
    total.batches += counters.batches;
    total.gathered_writes += counters.gathered_writes;
    total.net_read_timeouts += counters.net_read_timeouts;
    total.net_write_timeouts += counters.net_write_timeouts;
    total.net_write_errors += counters.net_write_errors;
    total.dedup_hits += counters.dedup_hits;
    total.dedup_evictions += counters.dedup_evictions;
    total.specs_shed_expired += counters.specs_shed_expired;
    total.queue_depth_peak =
        std::max(total.queue_depth_peak, counters.queue_depth_peak);
  }
  return total;
}

void print_counters(const ServeCounters& counters) {
  std::cout << "connections accepted=" << counters.connections_accepted
            << " closed=" << counters.connections_closed << '\n'
            << "frames in=" << counters.frames_in
            << " out=" << counters.frames_out
            << " admitted=" << counters.frames_admitted
            << " processed=" << counters.frames_processed << '\n'
            << "requests served=" << counters.requests_served
            << " (hit=" << counters.placements_hit
            << " merge=" << counters.placements_merge
            << " insert=" << counters.placements_insert << ")\n"
            << "rejected queue-full=" << counters.rejected_queue_full
            << " draining=" << counters.rejected_draining
            << " decode-errors=" << counters.decode_errors
            << " queue-peak=" << counters.queue_depth_peak << '\n';
}

void print_json_report(const Options& options, const LoadGenReport& report,
                       const ServeCounters& counters,
                       std::size_t pipeline_depth,
                       const landlord::serve::ChaosProxy* proxy) {
  std::cout << "{\n"
            << "  \"mode\": \""
            << (options.mode == LoadMode::kClosed ? "closed" : "open")
            << "\",\n"
            << "  \"heads\": " << options.heads << ",\n"
            << "  \"workers\": " << options.workers << ",\n"
            << "  \"shards\": " << options.shards << ",\n"
            << "  \"pipeline_depth\": " << pipeline_depth << ",\n"
            << "  \"warmup\": " << (options.warmup ? "true" : "false") << ",\n"
            << "  \"connections\": " << options.connections << ",\n"
            << "  \"batch\": " << options.batch << ",\n"
            << "  \"client_universe\": " << options.clients << ",\n"
            << "  \"zipf_s\": " << options.zipf << ",\n"
            << "  \"requests_sent\": " << report.requests_sent << ",\n"
            << "  \"requests_ok\": " << report.requests_ok << ",\n"
            << "  \"requests_rejected\": " << report.requests_rejected << ",\n"
            << "  \"frames_sent\": " << report.frames_sent << ",\n"
            << "  \"distinct_clients\": " << report.distinct_clients << ",\n"
            << "  \"placements_hit\": " << report.placements_hit << ",\n"
            << "  \"placements_merge\": " << report.placements_merge << ",\n"
            << "  \"placements_insert\": " << report.placements_insert << ",\n"
            << "  \"duration_seconds\": " << report.duration_seconds << ",\n"
            << "  \"qps\": " << report.qps << ",\n"
            << "  \"latency_p50_seconds\": " << report.latency_p50 << ",\n"
            << "  \"latency_p99_seconds\": " << report.latency_p99 << ",\n"
            << "  \"latency_p999_seconds\": " << report.latency_p999 << ",\n"
            << "  \"latency_mean_seconds\": " << report.latency_mean << ",\n"
            << "  \"retransmits\": " << report.retransmits << ",\n"
            << "  \"reconnects\": " << report.reconnects << ",\n"
            << "  \"drain_timeouts\": " << report.drain_timeouts << ",\n"
            << "  \"server_dedup_hits\": " << counters.dedup_hits << ",\n"
            << "  \"server_dedup_evictions\": " << counters.dedup_evictions
            << ",\n"
            << "  \"server_deadline_shed\": " << counters.specs_shed_expired
            << ",\n"
            << "  \"server_net_read_timeouts\": " << counters.net_read_timeouts
            << ",\n"
            << "  \"server_net_write_timeouts\": "
            << counters.net_write_timeouts << ",\n"
            << "  \"server_queue_depth_peak\": " << counters.queue_depth_peak
            << ",\n"
            << "  \"server_rejected_queue_full\": "
            << counters.rejected_queue_full;
  if (proxy != nullptr) {
    const landlord::serve::ChaosTally chaos = proxy->tally();
    std::cout << ",\n"
              << "  \"chaos_seed\": " << options.chaos_seed << ",\n"
              << "  \"chaos_connections\": " << chaos.connections << ",\n"
              << "  \"chaos_resets\": " << chaos.resets << ",\n"
              << "  \"chaos_stalls\": " << chaos.stalls << ",\n"
              << "  \"chaos_partials\": " << chaos.partials << ",\n"
              << "  \"chaos_accept_failures\": " << chaos.accept_failures
              << ",\n"
              << "  \"chaos_injected\": " << chaos.injected();
  }
  std::cout << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = parse_args(argc, argv);
  if (!options) {
    std::cerr << "usage: serve_head_node [--port P] [--workers N] [--shards N]"
                 " [--max-queue N]\n"
                 "                       [--heads N] [--pipeline-depth N]"
                 " [--packages N] [--seed S]\n"
                 "                       [--alpha A] [--capacity-fraction F]"
                 " [--duration S]\n"
                 "                       [--metrics-out FILE]\n"
                 "                       [--bench [--mode closed|open]"
                 " [--connections N] [--batch N]\n"
                 "                        [--requests N] [--rate R] [--warmup]"
                 " [--bench-duration S]\n"
                 "                        [--clients N] [--zipf S]"
                 " [--drain-timeout S]\n"
                 "                        [--chaos [--chaos-seed S]"
                 " [--chaos-reset P] [--chaos-stall P]\n"
                 "                         [--chaos-partial P]"
                 " [--chaos-accept P]]]\n";
    return 2;
  }
  if (options->heads == 0) {
    std::cerr << "--heads must be >= 1\n";
    return 2;
  }
  if (options->heads > 1 && options->port != 0) {
    std::cerr << "--heads > 1 requires --port 0 (each head picks its own "
                 "ephemeral port)\n";
    return 2;
  }

  landlord::pkg::SyntheticRepoParams params;
  params.total_packages = options->packages;
  auto repo_result = landlord::pkg::generate_repository(params, options->seed);
  if (!repo_result.ok()) {
    std::cerr << "repository generation failed: "
              << repo_result.error().message << '\n';
    return 1;
  }
  const landlord::pkg::Repository repo = std::move(repo_result).value();

  landlord::core::CacheConfig cache_config;
  cache_config.alpha = options->alpha;
  cache_config.capacity = static_cast<landlord::util::Bytes>(
      static_cast<double>(repo.total_bytes()) * options->capacity_fraction);
  cache_config.shards = options->shards;

  landlord::core::Landlord landlord(repo, cache_config);
  landlord::obs::Observability obs;
  landlord.set_observability(&obs);

  ServerConfig server_config;
  server_config.port = options->port;
  server_config.workers = options->workers;
  server_config.max_queue = options->max_queue;
  if (options->pipeline_depth) {
    server_config.pipeline_depth = *options->pipeline_depth;
  }
  std::vector<std::unique_ptr<landlord::serve::Server>> servers;
  std::vector<std::uint16_t> ports;
  servers.reserve(options->heads);
  for (std::uint32_t h = 0; h < options->heads; ++h) {
    auto server =
        std::make_unique<landlord::serve::Server>(landlord, server_config);
    server->set_observability(&obs);
    const auto started = server->start();
    if (!started.ok()) {
      std::cerr << "server start failed: " << started.error().message << '\n';
      return 1;
    }
    ports.push_back(server->port());
    servers.push_back(std::move(server));
  }

  int exit_code = 0;
  if (options->bench) {
    // Chaos mode: interpose the seeded fault shim between the loadgen
    // and each head, and arm the reconnect/retry layer so the run must
    // recover from every injected fault (warmup stays direct: it
    // pre-populates the cache, it is not part of the fault experiment).
    std::vector<std::unique_ptr<landlord::serve::ChaosProxy>> proxies;
    std::vector<std::uint16_t> load_ports = ports;
    if (options->chaos) {
      landlord::fault::FaultPlan plan;
      plan.seed = options->chaos_seed;
      plan.fail(landlord::fault::FaultOp::kConnReset, options->chaos_reset);
      plan.fail(landlord::fault::FaultOp::kConnStall, options->chaos_stall);
      plan.fail(landlord::fault::FaultOp::kPartialDelivery,
                options->chaos_partial);
      plan.fail(landlord::fault::FaultOp::kAcceptFail, options->chaos_accept);
      load_ports.clear();
      for (std::size_t h = 0; h < ports.size(); ++h) {
        landlord::serve::ChaosProxyConfig proxy_config;
        proxy_config.target_port = ports[h];
        proxy_config.stall_ms = 5;
        proxy_config.plan = plan;
        proxy_config.plan.seed = options->chaos_seed + h;  // per-head tape
        auto proxy =
            std::make_unique<landlord::serve::ChaosProxy>(proxy_config);
        const auto started = proxy->start();
        if (!started.ok()) {
          std::cerr << "chaos proxy start failed: " << started.error().message
                    << '\n';
          return 1;
        }
        load_ports.push_back(proxy->port());
        proxies.push_back(std::move(proxy));
      }
    }
    LoadGenConfig load;
    load.port = load_ports.front();
    load.ports = load_ports;
    load.warmup = options->warmup;
    load.warmup_ports = ports;  // warmup bypasses the shim
    load.seed = options->seed;
    load.mode = options->mode;
    load.connections = options->connections;
    load.batch = options->batch;
    load.total_requests = options->requests;
    load.rate_per_second = options->rate;
    load.duration_seconds = options->bench_duration;
    load.clients = options->clients;
    load.zipf_s = options->zipf;
    load.drain_timeout_s = options->drain_timeout;
    if (options->chaos) {
      landlord::serve::RetryPolicy retry;
      retry.backoff.max_retries = 10;
      retry.backoff.base_delay_s = 0.02;
      retry.backoff.max_delay_s = 0.5;
      retry.reply_timeout_ms = 2000;
      load.retry = retry;
    }
    const auto report = landlord::serve::run_load(repo, load);
    for (auto& proxy : proxies) proxy->stop();
    if (!report.ok()) {
      std::cerr << "load generator failed: " << report.error().message << '\n';
      exit_code = 1;
    } else {
      print_json_report(*options, report.value(), aggregate_counters(servers),
                        servers.front()->pipeline_depth(),
                        proxies.empty() ? nullptr : proxies.front().get());
    }
  } else {
    std::cout << "listening on";
    for (const std::uint16_t port : ports) std::cout << ' ' << port;
    std::cout << " (heads=" << options->heads << " workers="
              << options->workers << " shards=" << options->shards
              << " max-queue=" << options->max_queue << " pipeline="
              << servers.front()->pipeline_depth() << ")" << std::endl;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration_cast<
                              std::chrono::steady_clock::duration>(
                              std::chrono::duration<double>(options->duration));
    while (std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    std::cout << "draining...\n";
  }

  for (auto& server : servers) server->drain();
  for (auto& server : servers) server->stop();
  if (!options->bench) print_counters(aggregate_counters(servers));

  if (options->metrics_out) {
    std::ofstream out(*options->metrics_out);
    obs.registry.render_text(out);
  }
  return exit_code;
}

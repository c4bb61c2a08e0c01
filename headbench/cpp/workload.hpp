// Workloads, seeded inputs, the closed-loop load driver and the
// in-process twin of the head node.
//
// Every input derives from the run's seed: the synthetic repository
// (pkg::generate_repository), the spec catalog (serve::make_catalog) and
// a Zipf trace (serve::make_trace). The driver talks to a live
// serve::Server over one connection, through the public serve::Client
// only.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "landlord/landlord.hpp"
#include "pkg/repository.hpp"
#include "serve/loadgen.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace headbench {

// Settings both workloads share; recorded with every result.
inline constexpr std::uint32_t kPackages = 1500;     ///< synthetic repository size
inline constexpr std::uint32_t kCatalogSpecs = 500;  ///< sim specs (HEP apps added)
inline constexpr double kZipfS = 1.1;                ///< catalog popularity skew
inline constexpr double kAlpha = 0.8;                ///< merge threshold
inline constexpr std::uint32_t kShards = 8;          ///< ShardedCache shards
/// One connection, one decision worker: the server decides specs in
/// arrival order, and client and server never oversubscribe the host.
inline constexpr std::uint32_t kServerWorkers = 1;

/// One traffic mix. Every field is recorded with each result so numbers
/// taken under different settings are never compared.
struct WorkloadConfig {
  std::string name;
  /// Independent head nodes per run, each over inputs from its own seed
  /// (cell_seed), measured one after another for seconds / cells each.
  /// Averaging over cells keeps one seed's catalog from setting a run's
  /// numbers.
  std::uint32_t cells = 8;
  std::uint32_t batch = 32;       ///< specs per submit frame
  double capacity_factor = 1.0;   ///< cache capacity / repository bytes
  /// Submit the whole catalog during set-up. The cache then stays static,
  /// so every reply is compared with the twin's answer for the same
  /// catalog spec; otherwise the reply stream is compared in order.
  bool warm_catalog = false;
  double slo_ms = 10.0;           ///< per-frame latency limit for slo_attainment
  /// Specs (after set-up) over which the decision-quality metrics are
  /// read, from the in-process twin, so they repeat exactly.
  std::uint64_t quality_specs = 2048;
  /// Specs the traced run replays after set-up.
  std::uint64_t traced_specs = 2048;
  /// Trace entries generated; the driver wraps around.
  std::uint64_t trace_length = 1 << 16;
};

/// The named workload ("hot" or "churn"); nullopt for any other name.
[[nodiscard]] std::optional<WorkloadConfig> workload_named(
    const std::string& name);
[[nodiscard]] std::vector<std::string> workload_names();

/// Seed of cell `cell` of a run with seed `seed`.
[[nodiscard]] constexpr std::uint64_t cell_seed(std::uint64_t seed,
                                                std::uint32_t cell) noexcept {
  return seed * 1000 + cell;
}

[[nodiscard]] landlord::core::CacheConfig cache_config(
    const WorkloadConfig& workload, const landlord::pkg::Repository& repo);
[[nodiscard]] landlord::serve::ServerConfig server_config();
[[nodiscard]] landlord::serve::LoadGenConfig load_config(
    const WorkloadConfig& workload, std::uint64_t seed);

/// Generates the synthetic repository (kPackages packages) from `seed`.
[[nodiscard]] std::unique_ptr<landlord::pkg::Repository> make_repository(
    std::uint64_t seed);

/// Catalog and trace.
struct Inputs {
  std::vector<landlord::serve::SubmitRequest> catalog;
  std::vector<landlord::serve::TraceEntry> trace;
};
[[nodiscard]] Inputs make_inputs(const WorkloadConfig& workload,
                                 const landlord::pkg::Repository& repo,
                                 std::uint64_t seed);
/// Every input byte (repository manifest, catalog frame, trace) in one
/// string, so two generations can be compared for equality.
[[nodiscard]] std::string serialize_inputs(
    const landlord::pkg::Repository& repo, const Inputs& inputs);

/// The catalog spec `entry` names, stamped with its client id.
[[nodiscard]] landlord::serve::SubmitRequest request_for(
    const Inputs& inputs, const landlord::serve::TraceEntry& entry);

/// Submits the catalog once, in order, in `batch`-spec frames; an empty
/// string on success, else what went wrong.
[[nodiscard]] std::string warm_catalog(std::uint16_t port, const Inputs& inputs,
                                       std::uint32_t batch);

/// What the driver sends, over one connection.
struct DrivePlan {
  std::uint16_t port = 0;
  std::uint32_t batch = 32;
  std::span<const landlord::serve::TraceEntry> stream;
  /// true: wrap the stream and stop on time (min_seconds elapsed and at
  /// least min_frames answered, or max_seconds); false: send it once.
  bool timed = true;
  double min_seconds = 10.0;
  std::uint64_t min_frames = 0;
  double max_seconds = 120.0;
  bool keep_replies = false;     ///< keep every reply, in order
  bool track_per_spec = false;   ///< remember one reply per catalog spec
};

/// One answered (or refused) frame.
struct FrameRecord {
  double end_s = 0.0;  ///< completion, seconds since the window opened
  double rtt_s = 0.0;  ///< send to full reply
  std::uint32_t specs = 0;
  std::uint32_t ok = 0;  ///< placements that are neither failed nor degraded
  bool all_hits = false;
};

struct DriveResult {
  std::vector<FrameRecord> frames;  ///< in completion order
  std::vector<landlord::serve::PlacementReply> replies;
  /// Per catalog spec: the first reply seen for it (client id zeroed).
  std::vector<std::optional<landlord::serve::PlacementReply>> per_spec;
  std::uint64_t offered = 0;
  std::uint64_t answered = 0;  ///< placements received
  std::uint64_t hits = 0;
  std::uint64_t merges = 0;
  std::uint64_t inserts = 0;
  std::uint64_t degraded = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected = 0;  ///< specs in refused frames
  std::uint64_t inconsistent = 0;  ///< replies disagreeing with per_spec
  double window_s = 0.0;
  /// How late the generator sent frames: summed and worst delay from a
  /// frame's due time (the previous reply, in a closed loop) to its send.
  double generator_lag_s = 0.0;
  double generator_lag_max_s = 0.0;
  std::string error;
};

/// Closed loop: one frame in flight; the next is due when its reply lands.
[[nodiscard]] DriveResult drive(const Inputs& inputs, const DrivePlan& plan);

/// Decision quality as the paper measures it (Fig. 4).
struct Quality {
  double container_efficiency = 0.0;
  double cache_efficiency = 0.0;
  double io_overhead = 0.0;
  double prep_s_per_spec = 0.0;
};
[[nodiscard]] Quality quality_of(const landlord::core::Landlord& landlord);

/// The head node without the network: Landlord::submit from one caller,
/// exactly as a server worker calls it.
class Twin {
 public:
  Twin(const landlord::pkg::Repository& repo, const WorkloadConfig& workload);

  [[nodiscard]] landlord::serve::PlacementReply submit(
      const landlord::serve::SubmitRequest& request);
  /// Submits the catalog once, in order (the set-up warm-up).
  void warm(const Inputs& inputs);
  [[nodiscard]] landlord::core::Landlord& landlord() noexcept { return landlord_; }

 private:
  std::size_t universe_;
  landlord::core::Landlord landlord_;
};

}  // namespace headbench

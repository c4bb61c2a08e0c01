#include "sim/crash.hpp"

#include <sstream>
#include <string>

#include "landlord/persist.hpp"

namespace landlord::sim {

namespace {

/// Decision counters survive a crash in the observer's ledger even
/// though the live cache dies: the jobs those counters describe already
/// ran. Summed at every kill and once at the end.
void accumulate(core::CacheCounters& into, const core::CacheCounters& from) {
  into.requests += from.requests;
  into.hits += from.hits;
  into.merges += from.merges;
  into.inserts += from.inserts;
  into.deletes += from.deletes;
  into.splits += from.splits;
  into.conflict_rejections += from.conflict_rejections;
  into.requested_bytes += from.requested_bytes;
  into.written_bytes += from.written_bytes;
  into.shard_lock_contentions += from.shard_lock_contentions;
  into.optimistic_retries += from.optimistic_retries;
  into.cross_shard_moves += from.cross_shard_moves;
  into.container_efficiency_sum += from.container_efficiency_sum;
  into.delta_merges += from.delta_merges;
  into.repacks += from.repacks;
  into.delta_written_bytes += from.delta_written_bytes;
  into.repack_written_bytes += from.repack_written_bytes;
  into.full_rewrite_bytes += from.full_rewrite_bytes;
}

}  // namespace

CrashReplayResult run_crash_replay(const pkg::Repository& repo,
                                   const CrashReplayConfig& config) {
  // Same stream derivation as run_simulation, so a zero-fault, no-crash
  // replay is comparable request-for-request.
  util::Rng root(config.seed);
  WorkloadGenerator generator(repo, config.workload, root.split(1));
  const auto specs = generator.unique_specifications();
  const auto stream = generator.request_stream();

  core::Landlord landlord(repo, config.cache, {}, {}, {}, config.delta);
  fault::FaultInjector injector(config.faults);
  landlord.set_fault_injector(&injector);
  landlord.set_backoff_policy(config.backoff);

  obs::Counter* checkpoints_ok = nullptr;
  obs::Counter* checkpoints_torn = nullptr;
  obs::Counter* crashes = nullptr;
  obs::EventTrace* trace = nullptr;
  if (config.obs != nullptr) {
    landlord.set_observability(config.obs);
    injector.set_observability(config.obs);
    obs::Registry& reg = config.obs->registry;
    constexpr const char* kCheckpointHelp =
        "Cache snapshots attempted, by write outcome.";
    checkpoints_ok = &reg.counter("landlord_checkpoints_total",
                                  {{"result", "ok"}}, kCheckpointHelp);
    checkpoints_torn = &reg.counter("landlord_checkpoints_total",
                                    {{"result", "torn"}}, kCheckpointHelp);
    crashes = &reg.counter("landlord_crashes_total", {},
                           "Simulated head-node kill+restore cycles.");
    trace = &config.obs->trace;
  }

  CrashReplayResult result;

  // The checkpoint "disk" starts with an empty-cache snapshot, so a
  // crash before the first checkpoint restores to a cold cache rather
  // than failing the restore. A checkpoint too mangled to parse cold
  // restarts from the same text.
  const std::string cold = core::checkpoint(landlord.cache(), repo).text;
  std::string disk = cold;

  for (const std::uint32_t index : stream) {
    const auto placement = landlord.submit(specs[index]);
    ++result.requests;
    result.total_prep_seconds += placement.prep_seconds;
    if (placement.degraded) ++result.degraded_placements;
    if (placement.failed) ++result.failed_placements;

    if (config.crash.checkpoint_every != 0 &&
        result.requests % config.crash.checkpoint_every == 0) {
      ++result.checkpoints;
      core::Checkpoint written = core::checkpoint(landlord.cache(), repo, &injector);
      disk = std::move(written.text);
      const bool ok = !written.torn;
      if (!ok) ++result.torn_checkpoints;
      if (ok && checkpoints_ok != nullptr) checkpoints_ok->inc();
      if (!ok && checkpoints_torn != nullptr) checkpoints_torn->inc();
      if (trace != nullptr) {
        obs::TraceEvent event;
        event.kind = obs::EventKind::kCheckpoint;
        event.detail = ok ? "ok" : "torn";
        event.bytes = disk.size();
        event.aux = result.requests;
        event.failed = !ok;
        trace->record(event);
      }
    }

    if (config.crash.crash_every != 0 &&
        result.requests % config.crash.crash_every == 0) {
      // Kill: the live decision state evaporates. Bank its counters
      // first — the external observer saw those jobs run.
      accumulate(result.counters, landlord.counters());
      ++result.crashes;
      if (crashes != nullptr) crashes->inc();

      // Restart: restore whatever the last checkpoint managed to write.
      core::RestoreReport report;
      std::istringstream snapshot(disk);
      auto restored = landlord.restore(snapshot, &report);
      if (restored.ok()) {
        result.images_recovered += restored.value();
        result.records_lost += report.records_lost;
      } else {
        // Checkpoint too mangled to even parse a header: cold restart.
        // Everything the dead cache held is lost.
        std::istringstream empty(cold);
        (void)landlord.restore(empty, nullptr);
        result.records_lost += report.records_lost;
      }
      // Every restore rebuilds the sublinear decision index from the
      // adopted images; reconcile it against a from-scratch rebuild so a
      // crash can never leave stale postings or a skewed eviction order.
      if (auto divergence = landlord.cache().check_decision_index()) {
        ++result.index_divergences;
        if (result.first_index_divergence.empty()) {
          result.first_index_divergence = std::move(*divergence);
        }
      }
    }
  }

  accumulate(result.counters, landlord.counters());
  result.degraded = landlord.degraded();
  result.final_image_count = landlord.cache().image_count();
  result.final_total_bytes = landlord.total_bytes();
  result.final_unique_bytes = landlord.unique_bytes();
  return result;
}

}  // namespace landlord::sim

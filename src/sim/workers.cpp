#include "sim/workers.hpp"

#include <algorithm>

#include "landlord/sharded.hpp"

namespace landlord::sim {

namespace {

void bump(obs::Counter* counter, std::uint64_t n = 1) {
  if (counter != nullptr) counter->inc(n);
}

}  // namespace

void WorkerPool::set_fault_injector(fault::FaultInjector* injector) {
  std::scoped_lock lock(mutex_);
  injector_ = injector;
  if (injector_ != nullptr) {
    // Dedicated jitter stream keyed off the plan, mirroring
    // Landlord::set_fault_injector: scheduling rng_ never sees a fault
    // draw, so a zero-fault plan leaves dispatch decisions untouched.
    backoff_rng_ = util::Rng(injector_->plan().seed ^ 0xd15bacc0ffULL);
  }
}

void WorkerPool::set_backoff_policy(fault::BackoffPolicy policy) {
  std::scoped_lock lock(mutex_);
  backoff_ = policy;
}

void WorkerPool::set_observability(obs::Observability* observability) {
  std::scoped_lock lock(mutex_);
  if (observability == nullptr) {
    hooks_ = Hooks{};
    return;
  }
  obs::Registry& reg = observability->registry;
  hooks_.transfers = &reg.counter("landlord_dispatch_transfers_total", {},
                                  "Completed head-to-worker image transfers.");
  hooks_.transferred_bytes =
      &reg.counter("landlord_dispatch_transferred_bytes_total", {},
                   "Wire bytes shipped to workers (partial cuts included).");
  hooks_.local_hits =
      &reg.counter("landlord_dispatch_local_hits_total", {},
                   "Dispatches served from a current worker-scratch copy.");
  hooks_.stale_refetches =
      &reg.counter("landlord_dispatch_stale_refetches_total", {},
                   "Worker copies invalidated by a head-node rewrite.");
  hooks_.worker_crashes =
      &reg.counter("landlord_dispatch_worker_crashes_total", {},
                   "Workers crashed by the fault oracle (scratch lost).");
  hooks_.redispatches =
      &reg.counter("landlord_dispatch_redispatches_total", {},
                   "Jobs moved off an unhealthy worker to the next one.");
  hooks_.cold_rejoins =
      &reg.counter("landlord_dispatch_cold_rejoins_total", {},
                   "Crashed workers that rejoined cold after downtime.");
  hooks_.direct_transfers =
      &reg.counter("landlord_dispatch_direct_transfers_total", {},
                   "Jobs served by a direct head-node stream (no scratch).");
  hooks_.transfer_faults =
      &reg.counter("landlord_dispatch_transfer_faults_total", {},
                   "Transfers cut mid-stream by the fault oracle.");
  hooks_.transfer_retries =
      &reg.counter("landlord_dispatch_transfer_retries_total", {},
                   "Transfer re-attempts taken after a cut.");
  hooks_.failed_transfers =
      &reg.counter("landlord_dispatch_failed_transfers_total", {},
                   "Transfers abandoned after the retry budget ran out.");
  hooks_.resumed_bytes =
      &reg.counter("landlord_dispatch_transfer_resumed_bytes_total", {},
                   "Partial bytes kept across a retry (byte-granular resume).");
  hooks_.reshipped_bytes =
      &reg.counter("landlord_dispatch_transfer_reshipped_bytes_total", {},
                   "Partial bytes thrown away because resume is off.");
  hooks_.backoff_seconds =
      &reg.gauge("landlord_dispatch_backoff_seconds", {},
                 "Total modelled seconds spent waiting before retries.");
  hooks_.trace = &observability->trace;
}

std::uint32_t WorkerPool::healthy_workers() const noexcept {
  std::uint32_t up = 0;
  for (const auto& worker : workers_) {
    if (worker_up(worker)) ++up;
  }
  return up;
}

void WorkerPool::crash_worker(std::uint32_t index) {
  Worker& worker = workers_[index];
  worker.copies.clear();
  worker.order.clear();
  worker.used = 0;
  worker.down_until = clock_ + config_.crash_downtime;
  ++dispatch_.worker_crashes;
  bump(hooks_.worker_crashes);
  if (hooks_.trace != nullptr) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kWorkerCrash;
    event.aux = index;
    event.failed = true;
    hooks_.trace->record(event);
  }
}

util::Bytes WorkerPool::ship(util::Bytes total, bool& completed) {
  completed = true;
  if (injector_ == nullptr || total == 0) return total;

  util::Bytes wire = 0;
  util::Bytes remaining = total;
  std::uint32_t attempt = 0;
  while (injector_->should_fail(fault::FaultOp::kWorkerTransfer)) {
    ++dispatch_.transfer_faults;
    bump(hooks_.transfer_faults);
    // Deterministic cut point: 25/50/75% of the attempted bytes, cycling
    // with the per-class injection count — the same discipline as the
    // torn-snapshot writer, so a plan replays the same partial shipments.
    const auto cut =
        injector_->injected(fault::FaultOp::kWorkerTransfer);
    const util::Bytes attempted =
        config_.resume_transfers ? remaining : total;
    const util::Bytes shipped = attempted * ((cut - 1) % 3 + 1) / 4;
    wire += shipped;
    if (config_.resume_transfers) {
      remaining -= shipped;
      dispatch_.resumed_bytes += shipped;
      bump(hooks_.resumed_bytes, shipped);
    } else {
      dispatch_.reshipped_bytes += shipped;
      bump(hooks_.reshipped_bytes, shipped);
    }
    if (hooks_.trace != nullptr) {
      obs::TraceEvent event;
      event.kind = obs::EventKind::kTransferFault;
      event.bytes = shipped;
      event.aux = attempted;
      event.failed = true;
      hooks_.trace->record(event);
    }
    if (attempt >= backoff_.max_retries) {
      ++dispatch_.failed_transfers;
      bump(hooks_.failed_transfers);
      completed = false;
      return wire;
    }
    const double wait = backoff_.delay_for(attempt, backoff_rng_);
    dispatch_.backoff_seconds += wait;
    if (hooks_.backoff_seconds != nullptr) hooks_.backoff_seconds->add(wait);
    ++attempt;
    ++dispatch_.transfer_retries;
    bump(hooks_.transfer_retries);
  }
  wire += config_.resume_transfers ? remaining : total;
  return wire;
}

void WorkerPool::evict_worker(Worker& worker, util::Bytes needed) {
  // LRU by last_used until the copy fits (or the cache is empty; a copy
  // larger than worker scratch is held transiently anyway — the job
  // still has to run).
  while (worker.used + needed > config_.scratch_per_worker &&
         !worker.copies.empty()) {
    std::uint64_t victim_id = 0;
    if (config_.ordered_eviction) {
      victim_id = worker.order.begin()->second;
    } else {
      auto victim = worker.copies.begin();
      for (auto it = worker.copies.begin(); it != worker.copies.end(); ++it) {
        if (it->second.last_used < victim->second.last_used ||
            (it->second.last_used == victim->second.last_used &&
             it->first < victim->first)) {
          victim = it;
        }
      }
      victim_id = victim->first;
    }
    const auto it = worker.copies.find(victim_id);
    worker.used -= it->second.bytes;
    worker.order.erase({it->second.last_used, victim_id});
    worker.copies.erase(it);
  }
}

util::Bytes WorkerPool::dispatch(const core::Image& image) {
  std::scoped_lock lock(mutex_);
  ++clock_;
  std::uint32_t target = 0;
  switch (config_.scheduling) {
    case Scheduling::kRoundRobin:
      target = next_worker_;
      next_worker_ = (next_worker_ + 1) % config_.workers;
      break;
    case Scheduling::kRandom:
      target = static_cast<std::uint32_t>(rng_.uniform(config_.workers));
      break;
  }

  // Worker churn: the fault oracle decides whether the scheduled worker
  // dies under this dispatch. The job itself survives — it re-dispatches
  // to the next healthy worker below.
  if (injector_ != nullptr &&
      injector_->should_fail(fault::FaultOp::kWorkerCrash)) {
    crash_worker(target);
  }

  std::uint32_t chosen = target;
  bool found = false;
  for (std::uint32_t step = 0; step < config_.workers; ++step) {
    const std::uint32_t candidate = (target + step) % config_.workers;
    Worker& worker = workers_[candidate];
    if (!worker_up(worker)) continue;
    if (worker.down_until != 0) {
      // Downtime elapsed: the worker rejoins, cold (copies were cleared
      // at the crash).
      worker.down_until = 0;
      ++dispatch_.cold_rejoins;
      bump(hooks_.cold_rejoins);
    }
    chosen = candidate;
    found = true;
    if (step > 0) {
      ++dispatch_.redispatches;
      bump(hooks_.redispatches);
    }
    break;
  }
  if (!found) {
    // Whole pool down: the head node streams the image straight to the
    // job. Forced success — requests drain, they never hang.
    ++dispatch_.direct_transfers;
    bump(hooks_.direct_transfers);
    transferred_ += image.bytes;
    bump(hooks_.transferred_bytes, image.bytes);
    return image.bytes;
  }
  Worker& worker = workers_[chosen];

  auto it = worker.copies.find(core::to_value(image.id));
  if (it != worker.copies.end()) {
    if (it->second.version == image.version) {
      worker.order.erase({it->second.last_used, it->first});
      it->second.last_used = clock_;
      worker.order.insert({clock_, it->first});
      ++local_hits_;
      bump(hooks_.local_hits);
      return 0;
    }
    // Stale copy: the head-node image was rewritten by a merge/split.
    worker.used -= it->second.bytes;
    worker.order.erase({it->second.last_used, it->first});
    worker.copies.erase(it);
    ++stale_refetches_;
    bump(hooks_.stale_refetches);
  }

  bool completed = true;
  util::Bytes wire = ship(image.bytes, completed);
  if (!completed) {
    // Retry budget exhausted: the partial shipments were wasted; the job
    // still runs off a direct head-node stream, but nothing lands in
    // worker scratch.
    wire += image.bytes;
    ++dispatch_.direct_transfers;
    bump(hooks_.direct_transfers);
    transferred_ += wire;
    bump(hooks_.transferred_bytes, wire);
    return wire;
  }

  evict_worker(worker, image.bytes);
  worker.copies[core::to_value(image.id)] =
      LocalCopy{image.version, image.bytes, clock_};
  worker.order.insert({clock_, core::to_value(image.id)});
  worker.used += image.bytes;
  transferred_ += wire;
  bump(hooks_.transferred_bytes, wire);
  ++transfers_;
  bump(hooks_.transfers);
  return wire;
}

namespace {

TransferResult replay(const pkg::Repository& repo, core::ShardedCache& cache,
                      WorkerPool& pool,
                      const std::vector<spec::Specification>& specs,
                      const std::vector<std::uint32_t>& stream) {
  TransferResult result;
  for (std::uint32_t index : stream) {
    const auto& spec = specs[index];
    const auto outcome = cache.request(spec);
    result.requested_bytes += spec.bytes(repo);
    const auto image = cache.find(outcome.image);
    if (image.has_value()) {
      (void)pool.dispatch(*image);
    }
  }
  result.head_counters = cache.counters();
  result.transferred_bytes = pool.transferred_bytes();
  result.transfers = pool.transfers();
  result.local_hits = pool.local_hits();
  result.stale_refetches = pool.stale_refetches();
  result.dispatches = pool.dispatches();
  result.dispatch = pool.dispatch_counters();
  return result;
}

}  // namespace

TransferResult run_with_workers(const pkg::Repository& repo,
                                const core::CacheConfig& cache_config,
                                const WorkerPoolConfig& pool_config,
                                const std::vector<spec::Specification>& specs,
                                const std::vector<std::uint32_t>& stream,
                                std::uint64_t seed) {
  core::ShardedCache cache(repo, cache_config);
  WorkerPool pool(pool_config, util::Rng(seed));
  return replay(repo, cache, pool, specs, stream);
}

TransferResult run_with_workers(const pkg::Repository& repo,
                                const core::CacheConfig& cache_config,
                                const WorkerPoolConfig& pool_config,
                                const std::vector<spec::Specification>& specs,
                                const std::vector<std::uint32_t>& stream,
                                std::uint64_t seed,
                                const DispatchFaultConfig& faults,
                                obs::Observability* obs) {
  fault::FaultInjector injector(faults.plan);
  WorkerPool pool(pool_config, util::Rng(seed));
  pool.set_fault_injector(&injector);
  pool.set_backoff_policy(faults.backoff);
  if (obs != nullptr) {
    injector.set_observability(obs);
    pool.set_observability(obs);
  }
  core::ShardedCache cache(repo, cache_config);
  if (obs != nullptr) cache.set_observability(obs);
  auto result = replay(repo, cache, pool, specs, stream);
  if (obs != nullptr) cache.publish_metrics();
  return result;
}

}  // namespace landlord::sim

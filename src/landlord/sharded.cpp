#include "landlord/sharded.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "spec/jaccard.hpp"
#include "util/arena.hpp"

namespace landlord::core {

ShardedCache::ShardedCache(const pkg::Repository& repo, CacheConfig config)
    : repo_(&repo),
      config_(config),
      shards_(std::max<std::uint32_t>(1, config.shards)),
      hasher_(kMinHashK) {
  assert(config_.alpha >= 0.0 && config_.alpha <= 1.0);
  for (Shard& shard : shards_) {
    shard.lsh = spec::LshIndex(kLshBands);
    if (config_.decision_index) {
      shard.dindex.emplace(repo.size(), config_.eviction);
    }
  }
  if (config_.record_time_series) ledger_refs_.resize(repo.size(), 0);
}

std::unique_lock<std::mutex> ShardedCache::lock_shard(const Shard& shard) const {
  std::unique_lock<std::mutex> lock(shard.mutex, std::try_to_lock);
  if (!lock.owns_lock()) {
    shard.lock_contentions.fetch_add(1, std::memory_order_relaxed);
    if (hooks_.lock_contentions != nullptr) hooks_.lock_contentions->inc();
    lock.lock();
  }
  add_locked(shard.lock_acquisitions);
  return lock;
}

void ShardedCache::set_observability(obs::Observability* observability) {
  if (observability == nullptr) {
    hooks_ = Hooks{};
    return;
  }
  obs::Registry& reg = observability->registry;
  constexpr const char* kRequestsHelp =
      "Cache requests by Algorithm 1 outcome kind.";
  hooks_.requests_hit =
      &reg.counter("landlord_cache_requests_total", {{"kind", "hit"}}, kRequestsHelp);
  hooks_.requests_merge =
      &reg.counter("landlord_cache_requests_total", {{"kind", "merge"}}, kRequestsHelp);
  hooks_.requests_insert =
      &reg.counter("landlord_cache_requests_total", {{"kind", "insert"}}, kRequestsHelp);
  constexpr const char* kEvictionsHelp =
      "Images removed from the cache, by reason (sums to CacheCounters::deletes).";
  hooks_.evictions_budget =
      &reg.counter("landlord_cache_evictions_total", {{"reason", "budget"}}, kEvictionsHelp);
  hooks_.evictions_idle =
      &reg.counter("landlord_cache_evictions_total", {{"reason", "idle"}}, kEvictionsHelp);
  hooks_.evictions_split =
      &reg.counter("landlord_cache_evictions_total", {{"reason", "split-empty"}},
                   kEvictionsHelp);
  hooks_.splits = &reg.counter("landlord_cache_splits_total", {},
                               "Bloated images split along their merge lineage.");
  hooks_.conflict_rejections =
      &reg.counter("landlord_cache_conflict_rejections_total", {},
                   "Merge candidates rejected for constraint conflicts.");
  hooks_.candidate_scan = &reg.histogram(
      "landlord_cache_candidate_scan_size",
      {0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 1024},
      {}, "Merge candidates within distance alpha per scanned request.");
  hooks_.request_bytes =
      &reg.histogram("landlord_cache_request_bytes", obs::default_bytes_buckets(), {},
                     "Bytes requested per container specification.");
  hooks_.lock_contentions =
      &reg.counter("landlord_shard_lock_contentions_total", {},
                   "Shard-lock acquisitions that had to wait.");
  hooks_.optimistic_retries =
      &reg.counter("landlord_shard_optimistic_retries_total", {},
                   "Decisions invalidated by a racing writer and re-run.");
  hooks_.cross_shard_moves =
      &reg.counter("landlord_shard_cross_moves_total", {},
                   "Images re-homed to another shard after a merge or split.");
  if (config_.delta_chain_cap > 0) {
    hooks_.cas_delta_merges =
        &reg.counter("landlord_cas_delta_merges_total", {},
                     "Merges charged as delta writes (new chunks + manifest).");
    hooks_.cas_repacks =
        &reg.counter("landlord_cas_repacks_total", {},
                     "Merges that hit the delta-chain cap and rewrote in full.");
    constexpr const char* kCasBytesHelp =
        "Bytes written to image storage, by write kind.";
    hooks_.cas_delta_bytes =
        &reg.counter("landlord_cas_written_bytes_total", {{"kind", "delta"}},
                     kCasBytesHelp);
    hooks_.cas_repack_bytes =
        &reg.counter("landlord_cas_written_bytes_total", {{"kind", "repack"}},
                     kCasBytesHelp);
    hooks_.cas_full_rewrite_bytes = &reg.counter(
        "landlord_cas_full_rewrite_bytes_total", {},
        "Counterfactual write charge under the paper's full-rewrite model.");
  }
  if (config_.decision_index) {
    hooks_.postings_probe = &reg.histogram(
        "landlord_index_postings_probe_length",
        {0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096}, {},
        "Postings entries scanned per indexed superset lookup.");
    constexpr const char* kMemoHelp =
        "Spec-memo lookups by result (hits skip the superset probe).";
    hooks_.memo_hit =
        &reg.counter("landlord_index_memo_total", {{"result", "hit"}}, kMemoHelp);
    hooks_.memo_miss =
        &reg.counter("landlord_index_memo_total", {{"result", "miss"}}, kMemoHelp);
    hooks_.eviction_index_updates =
        &reg.counter("landlord_index_eviction_updates_total", {},
                     "Ordered eviction-index mutations (insert/erase/touch).");
  }
  hooks_.shard_images.clear();
  hooks_.shard_bytes.clear();
  hooks_.shard_contentions.clear();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const obs::Labels labels{{"shard", std::to_string(s)}};
    hooks_.shard_images.push_back(&reg.gauge("landlord_shard_images", labels,
                                             "Images resident per shard."));
    hooks_.shard_bytes.push_back(&reg.gauge("landlord_shard_bytes", labels,
                                            "Bytes resident per shard."));
    hooks_.shard_contentions.push_back(
        &reg.gauge("landlord_shard_contentions", labels,
                   "Lock contention count per shard."));
  }
  hooks_.trace = &observability->trace;
}

void ShardedCache::publish_metrics() {
  if (hooks_.shard_images.empty()) return;
  for (const ShardStats& stats : shard_stats()) {
    hooks_.shard_images[stats.shard]->set(static_cast<double>(stats.images));
    hooks_.shard_bytes[stats.shard]->set(static_cast<double>(stats.bytes));
    hooks_.shard_contentions[stats.shard]->set(
        static_cast<double>(stats.lock_contentions));
  }
}

std::size_t ShardedCache::home_of(const spec::PackageSet& contents) const {
  if (shards_.size() <= 1) return 0;
  // Only band 0 of the signature feeds the homing hash, so sign just
  // those k/bands rows — ~30x cheaper than a full signature and
  // bit-identical to hashing the full signature's band 0.
  const auto prefix = hasher_.sign_prefix(contents, kMinHashK / kLshBands);
  return static_cast<std::size_t>(spec::band_signature_hash(prefix, 1) %
                                  shards_.size());
}

void ShardedCache::index_insert(Shard& shard, const Image& image) {
  if (config_.policy != MergePolicy::kMinHashLsh) return;
  auto signature = hasher_.sign(image.contents);
  shard.lsh.insert(to_value(image.id), signature);
  shard.signatures.emplace(to_value(image.id), std::move(signature));
}

void ShardedCache::index_erase(Shard& shard, const Image& image) {
  if (config_.policy != MergePolicy::kMinHashLsh) return;
  auto it = shard.signatures.find(to_value(image.id));
  if (it == shard.signatures.end()) return;
  shard.lsh.erase(to_value(image.id), it->second);
  shard.signatures.erase(it);
}

void ShardedCache::dindex_insert(Shard& shard, const Image& image) {
  if (!shard.dindex) return;
  shard.dindex->insert(image);
  memo_.bump();
  if (hooks_.eviction_index_updates != nullptr) hooks_.eviction_index_updates->inc();
}

void ShardedCache::dindex_erase(Shard& shard, const util::DynamicBitset& old_bits,
                                const EvictionKey& old_key) {
  if (!shard.dindex) return;
  shard.dindex->erase(old_bits, old_key);
  memo_.bump();
  if (hooks_.eviction_index_updates != nullptr) hooks_.eviction_index_updates->inc();
}

void ShardedCache::dindex_update(Shard& shard, const Image& image,
                                 const util::DynamicBitset& old_bits,
                                 const EvictionKey& old_key) {
  if (!shard.dindex) return;
  shard.dindex->update(image, old_bits, old_key);
  memo_.bump();
  if (hooks_.eviction_index_updates != nullptr) hooks_.eviction_index_updates->inc();
}

void ShardedCache::dindex_touch(Shard& shard, const EvictionKey& old_key,
                                const Image& image) {
  if (!shard.dindex) return;
  shard.dindex->touch(old_key, eviction_key(image));
  if (hooks_.eviction_index_updates != nullptr) hooks_.eviction_index_updates->inc();
}

void ShardedCache::sweep_postings(Shard& shard) {
  if (shard.dindex) shard.dindex->sweep(shard.images);
}

void ShardedCache::ledger_adjust(const util::DynamicBitset& bits, bool add) {
  if (!config_.record_time_series) return;
  std::scoped_lock lock(ledger_mutex_);
  bits.for_each_set([this, add](std::size_t i) {
    const auto size = [&] {
      return (*repo_)[pkg::package_id(static_cast<std::uint32_t>(i))].size;
    };
    if (add) {
      if (ledger_refs_[i]++ == 0) ledger_unique_ += size();
    } else {
      assert(ledger_refs_[i] > 0 && "union ledger underflow");
      if (--ledger_refs_[i] == 0) ledger_unique_ -= size();
    }
  });
}

std::pair<std::uint64_t, util::Bytes> ShardedCache::memo_hit_tallies() const {
  std::pair<std::uint64_t, util::Bytes> sum{0, 0};
  for (const Shard& shard : shards_) {
    sum.first += shard.memo_hits.load(std::memory_order_relaxed);
    sum.second += shard.memo_hit_bytes.load(std::memory_order_relaxed);
  }
  return sum;
}

void ShardedCache::record_sample(RequestKind kind) {
  const auto [memo_hits, memo_hit_bytes] = memo_hit_tallies();
  RequestSample sample;
  sample.kind = kind;
  sample.hits = counters_.hits.load(std::memory_order_relaxed) + memo_hits;
  sample.inserts = counters_.inserts.load(std::memory_order_relaxed);
  sample.deletes = counters_.deletes.load(std::memory_order_relaxed);
  sample.merges = counters_.merges.load(std::memory_order_relaxed);
  sample.cached_bytes = total_bytes_.load(std::memory_order_acquire);
  sample.cumulative_written = counters_.written_bytes.load(std::memory_order_relaxed);
  sample.cumulative_requested =
      counters_.requested_bytes.load(std::memory_order_relaxed) + memo_hit_bytes;
  sample.image_count = image_count_.load(std::memory_order_acquire);
  std::scoped_lock lock(ledger_mutex_);
  sample.unique_bytes = ledger_unique_;
  series_.record(sample);
}

ShardedCache::Outcome ShardedCache::request(const spec::Specification& spec) {
  assert(spec.packages().universe() == repo_->size() &&
         "spec universe must match the cache's repository");
  const std::uint64_t now = clock_.fetch_add(1) + 1;
  Outcome outcome = serve(spec, now);
  const util::Bytes requested = outcome.requested_bytes;
  if (hooks_.request_bytes != nullptr) {
    hooks_.request_bytes->observe(static_cast<double>(requested));
  }

  counters_.container_efficiency_sum.fetch_add(
      outcome.image_bytes > 0
          ? static_cast<double>(requested) / static_cast<double>(outcome.image_bytes)
          : 1.0,
      std::memory_order_relaxed);
  if (hooks_.trace != nullptr) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kRequest;
    event.detail = to_string(outcome.kind);
    event.image = to_value(outcome.image);
    event.bytes = outcome.image_bytes;
    event.aux = requested;
    hooks_.trace->record(event);
    if (outcome.split) {
      obs::TraceEvent split_event;
      split_event.kind = obs::EventKind::kSplit;
      split_event.image = to_value(outcome.split_from);
      split_event.bytes = outcome.split_from_bytes;
      split_event.aux = to_value(outcome.image);
      hooks_.trace->record(split_event);
    }
  }

  enforce_budget(now);
  evict_idle(now);
  if (config_.record_time_series) record_sample(outcome.kind);
  return outcome;
}

ShardedCache::Outcome ShardedCache::serve(const spec::Specification& spec,
                                          std::uint64_t now) {
  // Per-thread scratch for this request's short-lived containers
  // (Phase 2 candidate list). thread_local because serve() runs
  // concurrently; reset here reclaims the previous request's scratch.
  thread_local util::ScratchArena scratch_arena;
  scratch_arena.reset();
  // ---- Phase 0: spec memo. A current-epoch entry is exactly what the
  // cross-shard scan below would decide, so apply it directly, with the
  // requested bytes it stored. A stale apply (racing writer — single-
  // threaded replays never see one) falls through to the full decision
  // loop.
  const std::uint64_t memo_epoch = config_.decision_index ? memo_.epoch() : 0;
  if (config_.decision_index) {
    if (const auto memo = memo_.lookup(spec.packages())) {
      if (auto outcome = apply_hit(memo->shard, to_value(memo->image), spec, now,
                                   memo->requested_bytes, /*from_memo=*/true)) {
        if (hooks_.memo_hit != nullptr) hooks_.memo_hit->inc();
        return *std::move(outcome);
      }
      counters_.optimistic_retries.fetch_add(1, std::memory_order_relaxed);
      if (hooks_.optimistic_retries != nullptr) hooks_.optimistic_retries->inc();
    } else if (hooks_.memo_miss != nullptr) {
      hooks_.memo_miss->inc();
    }
  }

  // Counted before any decision counter moves, so a concurrent reader
  // never sees hits + merges + inserts above requests.
  const util::Bytes requested = spec.bytes(*repo_);
  counters_.requests.fetch_add(1, std::memory_order_relaxed);
  counters_.requested_bytes.fetch_add(requested, std::memory_order_relaxed);

  for (;;) {
    // ---- Phase 1: cross-shard superset scan.
    if (const auto hit = find_superset(spec)) {
      // Record the decision before applying it: a split during apply
      // bumps the epoch and correctly invalidates this entry.
      if (config_.decision_index) {
        memo_.store(spec.packages(), ImageId{hit->id}, hit->shard, requested,
                    memo_epoch);
      }
      if (auto outcome = apply_hit(hit->shard, hit->id, spec, now, requested,
                                   /*from_memo=*/false)) {
        return *std::move(outcome);
      }
      // A racing writer evicted or shrank the chosen image between scan
      // and apply; re-run the decision.
      counters_.optimistic_retries.fetch_add(1, std::memory_order_relaxed);
      if (hooks_.optimistic_retries != nullptr) hooks_.optimistic_retries->inc();
      continue;
    }

    // ---- Phase 2: merge-candidate collection across shards. "In the
    // extreme case of α = 1, every pair of images is considered close
    // and merged if possible" (§V) — so α = 1 admits even distance
    // exactly 1 (disjoint sets), while all other thresholds are strict.
    struct MergeCandidate {
      double distance;
      std::uint64_t id;
      std::size_t shard;
    };
    std::vector<MergeCandidate, util::ArenaAllocator<MergeCandidate>>
        candidates{util::ArenaAllocator<MergeCandidate>(scratch_arena)};
    std::optional<spec::MinHashSignature> signature;
    if (config_.policy == MergePolicy::kMinHashLsh) {
      signature = hasher_.sign(spec.packages());
    }
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      auto lock = lock_shard(shards_[s]);
      auto consider = [&](const Image& image) {
        const double d = spec::jaccard_distance(spec.packages(), image.contents);
        if (d < config_.alpha || config_.alpha >= 1.0) {
          candidates.push_back({d, to_value(image.id), s});
        }
      };
      if (config_.policy == MergePolicy::kMinHashLsh) {
        for (std::uint64_t id : shards_[s].lsh.candidates(*signature)) {
          auto it = shards_[s].images.find(id);
          assert(it != shards_[s].images.end() && "LSH index out of sync with shard");
          consider(it->second);
        }
      } else {
        for (const auto& [id, image] : shards_[s].images) consider(image);
      }
    }
    if (hooks_.candidate_scan != nullptr) {
      hooks_.candidate_scan->observe(static_cast<double>(candidates.size()));
    }
    if (config_.policy == MergePolicy::kFirstFit) {
      // First-fit takes the oldest (lowest-id) close-enough image — the
      // deterministic analogue of "first in storage order".
      std::sort(candidates.begin(), candidates.end(),
                [](const MergeCandidate& a, const MergeCandidate& b) {
                  return a.id < b.id;
                });
    } else {
      // "Selection can be sorted by dj()" — closest first; distance ties
      // break on the lower id.
      std::sort(candidates.begin(), candidates.end(),
                [](const MergeCandidate& a, const MergeCandidate& b) {
                  if (a.distance != b.distance) return a.distance < b.distance;
                  return a.id < b.id;
                });
    }

    bool merged = false;
    Outcome merge_outcome;
    for (const auto& candidate : candidates) {
      Shard& shard = shards_[candidate.shard];
      auto lock = lock_shard(shard);
      auto it = shard.images.find(candidate.id);
      if (it == shard.images.end()) continue;  // evicted since the scan
      Image& image = it->second;
      // Revalidate under the lock: a racing merge may have grown the
      // image past the α ball since we measured it.
      const double distance =
          spec::jaccard_distance(spec.packages(), image.contents);
      if (!(distance < config_.alpha || config_.alpha >= 1.0)) continue;
      if (!spec::ConflictChecker::compatible(spec.constraints(), image.constraints)) {
        counters_.conflict_rejections.fetch_add(1, std::memory_order_relaxed);
        if (hooks_.conflict_rejections != nullptr) hooks_.conflict_rejections->inc();
        continue;
      }

      // Apply the merge: Algorithm 1's "replace j in the cache with
      // merge(s, j)", keeping j's id.
      std::optional<util::DynamicBitset> pre_merge_bits;
      EvictionKey pre_merge_key{};
      if (shard.dindex) {
        pre_merge_bits = image.contents.bits();
        pre_merge_key = eviction_key(image);
      }
      index_erase(shard, image);
      const util::Bytes pre_merge_bytes = image.bytes;
      total_bytes_.fetch_sub(image.bytes);
      ledger_adjust(image.contents.bits(), /*add=*/false);
      image.contents.merge(spec.packages());
      ledger_adjust(image.contents.bits(), /*add=*/true);
      image.bytes = repo_->bytes_of(image.contents.bits());
      // Append-if-absent: workloads reuse a small set of distinct
      // constraints, so verbatim appending made a hot image's constraint
      // list (and every ConflictChecker pass over it) grow linearly with
      // its merge count.
      spec::merge_constraints(image.constraints, spec.constraints());
      image.last_used = now;
      ++image.merge_count;
      ++image.version;
      if (image.lineage.size() >= kMaxLineage) {
        // Coalesce the two oldest entries to bound lineage growth.
        image.lineage[0].merge(image.lineage[1]);
        image.lineage.erase(image.lineage.begin() + 1);
      }
      image.lineage.push_back(spec.packages());
      total_bytes_.fetch_add(image.bytes);
      // "Each time a merge occurs, the resulting image must be written
      // out in its entirety" (§VI) — that counterfactual is always
      // tracked; with a delta chain the actual charge is only the bytes
      // the merge added plus a manifest, until the chain caps out and the
      // next merge repacks. Nothing a decision reads depends on it, so
      // delta mode replays bit-identically.
      counters_.full_rewrite_bytes.fetch_add(image.bytes,
                                             std::memory_order_relaxed);
      if (hooks_.cas_full_rewrite_bytes != nullptr) {
        hooks_.cas_full_rewrite_bytes->inc(image.bytes);
      }
      if (config_.delta_chain_cap == 0) {
        counters_.written_bytes.fetch_add(image.bytes, std::memory_order_relaxed);
      } else if (image.chain_depth >= config_.delta_chain_cap) {
        counters_.written_bytes.fetch_add(image.bytes, std::memory_order_relaxed);
        counters_.repack_written_bytes.fetch_add(image.bytes,
                                                 std::memory_order_relaxed);
        counters_.repacks.fetch_add(1, std::memory_order_relaxed);
        if (hooks_.cas_repacks != nullptr) hooks_.cas_repacks->inc();
        if (hooks_.cas_repack_bytes != nullptr) {
          hooks_.cas_repack_bytes->inc(image.bytes);
        }
        if (hooks_.trace != nullptr) {
          obs::TraceEvent repack_event;
          repack_event.kind = obs::EventKind::kRepack;
          repack_event.image = to_value(image.id);
          repack_event.bytes = image.bytes;
          repack_event.aux = image.chain_depth;
          hooks_.trace->record(repack_event);
        }
        image.chain_depth = 0;
      } else {
        // Merging unions contents, so the image can only have grown.
        const util::Bytes charge =
            (image.bytes - pre_merge_bytes) + kDeltaManifestBytes;
        counters_.written_bytes.fetch_add(charge, std::memory_order_relaxed);
        counters_.delta_written_bytes.fetch_add(charge,
                                                std::memory_order_relaxed);
        counters_.delta_merges.fetch_add(1, std::memory_order_relaxed);
        ++image.chain_depth;
        if (hooks_.cas_delta_merges != nullptr) hooks_.cas_delta_merges->inc();
        if (hooks_.cas_delta_bytes != nullptr) hooks_.cas_delta_bytes->inc(charge);
      }
      counters_.merges.fetch_add(1, std::memory_order_relaxed);
      if (hooks_.requests_merge != nullptr) hooks_.requests_merge->inc();
      merge_outcome = {RequestKind::kMerge, image.id, image.bytes, false};
      merge_outcome.contents = image.contents;
      merge_outcome.requested_bytes = requested;

      // The merged contents may band-hash to a different shard.
      const std::size_t new_home = home_of(image.contents);
      if (new_home == candidate.shard) {
        index_insert(shard, image);
        if (shard.dindex) dindex_update(shard, image, *pre_merge_bits, pre_merge_key);
        sweep_postings(shard);
      } else {
        // The source shard's postings only ever saw the pre-merge
        // contents; retire exactly those before the image moves
        // (rehome_locked registers it with the target's index).
        if (shard.dindex) dindex_erase(shard, *pre_merge_bits, pre_merge_key);
        rehome_locked(lock, candidate.shard, new_home, candidate.id);
        counters_.cross_shard_moves.fetch_add(1, std::memory_order_relaxed);
        if (hooks_.cross_shard_moves != nullptr) hooks_.cross_shard_moves->inc();
      }
      merged = true;
      break;
    }
    if (merged) return merge_outcome;

    // ---- Phase 3: insert a fresh image on its home shard.
    Image image;
    image.id = ImageId{id_counter_.fetch_add(1)};
    image.contents = spec.packages();
    image.bytes = requested;
    image.constraints = spec.constraints();
    image.last_used = now;
    image.lineage.push_back(spec.packages());
    counters_.written_bytes.fetch_add(image.bytes, std::memory_order_relaxed);
    counters_.full_rewrite_bytes.fetch_add(image.bytes, std::memory_order_relaxed);
    if (hooks_.cas_full_rewrite_bytes != nullptr) {
      hooks_.cas_full_rewrite_bytes->inc(image.bytes);
    }
    counters_.inserts.fetch_add(1, std::memory_order_relaxed);
    if (hooks_.requests_insert != nullptr) hooks_.requests_insert->inc();
    Outcome outcome{RequestKind::kInsert, image.id, image.bytes, false};
    outcome.contents = image.contents;
    outcome.requested_bytes = requested;
    admit(std::move(image));
    return outcome;
  }
}

void ShardedCache::admit(Image image) {
  total_bytes_.fetch_add(image.bytes);
  ledger_adjust(image.contents.bits(), /*add=*/true);
  const std::size_t home = home_of(image.contents);
  {
    auto lock = lock_shard(shards_[home]);
    ++shards_[home].homed_inserts;
    install_locked(shards_[home], std::move(image));
  }
  image_count_.fetch_add(1);
}

std::optional<ShardedCache::Located> ShardedCache::find_superset(
    const spec::Specification& spec) {
  // "for i ∈ I do: if s ⊆ i then return i" — any superset serves; take
  // the smallest so jobs ship the least unrequested data, byte ties to
  // the lower id so the choice never depends on map iteration order or
  // shard count. With the decision index on, each shard answers with its
  // own postings-probe minimum; the min of per-shard minima is the same
  // global choice the scan makes.
  std::optional<Located> best;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    auto lock = lock_shard(shard);
    const auto consider = [&](const Image& image) {
      if (!best || image.bytes < best->bytes ||
          (image.bytes == best->bytes && to_value(image.id) < best->id)) {
        best = Located{to_value(image.id), image.bytes, s};
      }
    };
    if (shard.dindex && !spec.packages().empty() &&
        shard.images.size() >= config_.scan_cutover) {
      std::size_t probe = 0;
      if (const auto id = shard.dindex->find_superset(spec.packages(), shard.images,
                                                      &probe)) {
        consider(shard.images.at(to_value(*id)));
      }
      if (hooks_.postings_probe != nullptr) {
        hooks_.postings_probe->observe(static_cast<double>(probe));
      }
    } else {
      for (const auto& [id, image] : shard.images) {
        if (spec.packages().is_subset_of(image.contents)) consider(image);
      }
    }
  }
  return best;
}

std::optional<std::pair<EvictionKey, std::size_t>> ShardedCache::find_victim(
    std::uint64_t now) {
  std::optional<std::pair<EvictionKey, std::size_t>> best;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    auto lock = lock_shard(shard);
    const auto consider = [&](const EvictionKey& key) {
      if (!best || evict_before(config_.eviction, key, best->first)) best = {key, s};
    };
    if (shard.dindex) {
      // Each shard's ordered index yields its local minimum in O(log n);
      // the min of minima is the scan's global victim.
      if (const auto key = shard.dindex->victim(now)) consider(*key);
    } else {
      for (const auto& [id, image] : shard.images) {
        // Never evict the image just served.
        if (image.last_used != now) consider(eviction_key(image));
      }
    }
  }
  return best;
}

void ShardedCache::install_locked(Shard& shard, Image image) {
  index_insert(shard, image);
  dindex_insert(shard, image);
  shard.images.emplace(to_value(image.id), std::move(image));
  sweep_postings(shard);
}

std::optional<ShardedCache::Outcome> ShardedCache::apply_hit(
    std::size_t shard_index, std::uint64_t id, const spec::Specification& spec,
    std::uint64_t now, util::Bytes requested, bool from_memo) {
  Shard& shard = shards_[shard_index];
  auto lock = lock_shard(shard);
  auto it = shard.images.find(id);
  if (it == shard.images.end() || !spec.satisfied_by(it->second.contents)) {
    return std::nullopt;
  }
  Image& image = it->second;
  const EvictionKey pre_touch_key = eviction_key(image);
  image.last_used = now;
  ++image.hits;
  dindex_touch(shard, pre_touch_key, image);
  if (from_memo) {
    add_locked(shard.memo_hits);
    add_locked(shard.memo_hit_bytes, requested);
  } else {
    counters_.hits.fetch_add(1, std::memory_order_relaxed);
  }
  if (hooks_.requests_hit != nullptr) hooks_.requests_hit->inc();
  // Extension: a hit on a badly bloated image (the job uses a small
  // fraction of what it would ship) splits it along its merge lineage;
  // the job is served from the tightly fitting part.
  Outcome outcome =
      config_.enable_split && image.merge_count > 0 && image.bytes > 0 &&
              static_cast<double>(requested) / static_cast<double>(image.bytes) <
                  config_.split_utilization
          ? split_locked(lock, shard_index, image, spec, now)
          : Outcome{RequestKind::kHit, image.id, image.bytes, false};
  outcome.requested_bytes = requested;
  return outcome;
}

ShardedCache::Outcome ShardedCache::split_locked(
    std::unique_lock<std::mutex>& source_lock, std::size_t shard_index,
    Image& bloated, const spec::Specification& spec, std::uint64_t now) {
  Shard& shard = shards_[shard_index];
  // Pre-split state for the decision index (apply_hit already stamped
  // the bloated image, so this key matches what the index holds).
  std::optional<util::DynamicBitset> pre_split_bits;
  EvictionKey pre_split_key{};
  if (shard.dindex) {
    pre_split_bits = bloated.contents.bits();
    pre_split_key = eviction_key(bloated);
  }
  index_erase(shard, bloated);
  const util::Bytes pre_split_bytes = bloated.bytes;
  total_bytes_.fetch_sub(bloated.bytes);
  ledger_adjust(bloated.contents.bits(), /*add=*/false);

  // Part A exactly covers the request. Part B is the union of lineage
  // entries not subsumed by the request — lineage entries are
  // dependency-closed, so B is a valid image; constituents the request
  // covers are dropped (their jobs are served by A).
  Image part_a;
  part_a.id = ImageId{id_counter_.fetch_add(1)};
  part_a.contents = spec.packages();
  part_a.bytes = repo_->bytes_of(part_a.contents.bits());
  part_a.constraints = spec.constraints();
  part_a.last_used = now;
  part_a.hits = 1;
  part_a.lineage.push_back(spec.packages());

  spec::PackageSet remainder(repo_->size());
  std::vector<spec::PackageSet> remainder_lineage;
  for (auto& entry : bloated.lineage) {
    if (entry.is_subset_of(part_a.contents)) continue;
    remainder.merge(entry);
    remainder_lineage.push_back(std::move(entry));
  }

  // Both split parts are fresh full writes in either accounting mode (a
  // delta against the bloated chain would pin its dead constituents).
  counters_.written_bytes.fetch_add(part_a.bytes, std::memory_order_relaxed);
  counters_.full_rewrite_bytes.fetch_add(part_a.bytes, std::memory_order_relaxed);
  if (hooks_.cas_full_rewrite_bytes != nullptr) {
    hooks_.cas_full_rewrite_bytes->inc(part_a.bytes);
  }
  counters_.splits.fetch_add(1, std::memory_order_relaxed);
  if (hooks_.splits != nullptr) hooks_.splits->inc();
  total_bytes_.fetch_add(part_a.bytes);
  ledger_adjust(part_a.contents.bits(), /*add=*/true);
  // Carry the unsplit image's identity/size so the degradation ladder's
  // rung-3 fallback can report what the worker actually has on disk.
  Outcome outcome{RequestKind::kHit, part_a.id, part_a.bytes, true};
  outcome.split_from = bloated.id;
  outcome.split_from_bytes = pre_split_bytes;
  outcome.contents = part_a.contents;

  if (!remainder.empty()) {
    // The remainder keeps the bloated image's id (continuation, shrunk).
    bloated.contents = std::move(remainder);
    bloated.bytes = repo_->bytes_of(bloated.contents.bits());
    bloated.lineage = std::move(remainder_lineage);
    bloated.merge_count = static_cast<std::uint32_t>(bloated.lineage.size()) - 1;
    ++bloated.version;
    bloated.chain_depth = 0;  // rewritten in full; the old chain is gone
    total_bytes_.fetch_add(bloated.bytes);
    ledger_adjust(bloated.contents.bits(), /*add=*/true);
    counters_.written_bytes.fetch_add(bloated.bytes, std::memory_order_relaxed);
    counters_.full_rewrite_bytes.fetch_add(bloated.bytes,
                                           std::memory_order_relaxed);
    if (hooks_.cas_full_rewrite_bytes != nullptr) {
      hooks_.cas_full_rewrite_bytes->inc(bloated.bytes);
    }
    index_insert(shard, bloated);
    if (shard.dindex) dindex_update(shard, bloated, *pre_split_bits, pre_split_key);
    // The remainder was rewritten in full: the delta chain built for the
    // pre-split image no longer describes what is on disk. Invalidate it
    // (the next build of this id starts a fresh base).
    if (eviction_listener_) eviction_listener_(bloated.id, 0);
  } else {
    // The erased id's postings entries and eviction key must die with
    // it, or a later probe can resurrect it.
    if (shard.dindex) dindex_erase(shard, *pre_split_bits, pre_split_key);
    const ImageId dying_id = bloated.id;
    shard.images.erase(to_value(bloated.id));  // `bloated` dangles past here
    image_count_.fetch_sub(1);
    counters_.deletes.fetch_add(1, std::memory_order_relaxed);
    if (hooks_.evictions_split != nullptr) hooks_.evictions_split->inc();
    if (eviction_listener_) eviction_listener_(dying_id, pre_split_bytes);
  }
  sweep_postings(shard);

  // Place part A on its home shard. Lock order is increasing index:
  // a higher-index home is locked while still holding the source; a
  // lower-index home is locked only after releasing the source (part A
  // is still private, so it cannot be observed half-placed).
  const std::size_t home = home_of(part_a.contents);
  std::unique_lock<std::mutex> target_lock;
  if (home != shard_index) {
    counters_.cross_shard_moves.fetch_add(1, std::memory_order_relaxed);
    if (hooks_.cross_shard_moves != nullptr) hooks_.cross_shard_moves->inc();
    if (home < shard_index) source_lock.unlock();
    target_lock = lock_shard(shards_[home]);
  }
  install_locked(shards_[home], std::move(part_a));
  image_count_.fetch_add(1);
  return outcome;
}

void ShardedCache::rehome_locked(std::unique_lock<std::mutex>& source_lock,
                                 std::size_t source_index,
                                 std::size_t target_index, std::uint64_t id) {
  // Precondition: the caller holds `source_lock` on shards_[source_index]
  // and has already erased the image's index entries there.
  Shard& source = shards_[source_index];
  auto node = source.images.extract(id);
  assert(!node.empty());
  sweep_postings(source);
  // Increasing-index order: a higher target is locked while holding the
  // source. Never lock a lower index while holding a higher one: release
  // the source first. The image is then briefly invisible to scans but
  // never duplicated or lost.
  if (target_index < source_index) source_lock.unlock();
  auto target_lock = lock_shard(shards_[target_index]);
  install_locked(shards_[target_index], std::move(node.mapped()));
}

void ShardedCache::enforce_budget(std::uint64_t now) {
  while (total_bytes_.load(std::memory_order_acquire) > config_.capacity &&
         image_count_.load(std::memory_order_acquire) > 1) {
    const auto victim = find_victim(now);
    if (!victim) break;  // only the just-served image left
    const auto& [key, s] = *victim;
    Shard& shard = shards_[s];
    auto lock = lock_shard(shard);
    auto it = shard.images.find(key.id);
    if (it == shard.images.end() || it->second.last_used != key.last_used ||
        it->second.bytes != key.bytes) {
      // The victim was touched or evicted by a racing request; rescan.
      counters_.optimistic_retries.fetch_add(1, std::memory_order_relaxed);
      if (hooks_.optimistic_retries != nullptr) hooks_.optimistic_retries->inc();
      continue;
    }
    evict_locked(shard, it, /*idle=*/false);
    sweep_postings(shard);
  }
}

std::unordered_map<std::uint64_t, Image>::iterator ShardedCache::evict_locked(
    Shard& shard, std::unordered_map<std::uint64_t, Image>::iterator it, bool idle) {
  const Image& victim = it->second;
  total_bytes_.fetch_sub(victim.bytes);
  ledger_adjust(victim.contents.bits(), /*add=*/false);
  index_erase(shard, victim);
  dindex_erase(shard, victim.contents.bits(), eviction_key(victim));
  obs::Counter* evictions = idle ? hooks_.evictions_idle : hooks_.evictions_budget;
  if (evictions != nullptr) evictions->inc();
  if (hooks_.trace != nullptr) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kEviction;
    event.image = to_value(victim.id);
    event.bytes = victim.bytes;
    event.aux = victim.hits;
    event.detail = idle ? "idle" : "budget";
    hooks_.trace->record(event);
  }
  const ImageId id = victim.id;
  const util::Bytes bytes = victim.bytes;
  it = shard.images.erase(it);
  image_count_.fetch_sub(1);
  counters_.deletes.fetch_add(1, std::memory_order_relaxed);
  if (eviction_listener_) eviction_listener_(id, bytes);
  return it;
}

void ShardedCache::evict_idle(std::uint64_t now) {
  if (config_.max_idle_requests == 0) return;
  for (Shard& shard : shards_) {
    auto lock = lock_shard(shard);
    bool evicted = false;
    for (auto it = shard.images.begin(); it != shard.images.end();) {
      const Image& image = it->second;
      // `last_used > now` means a racing request stamped it after us.
      if (image.last_used < now && now - image.last_used > config_.max_idle_requests) {
        it = evict_locked(shard, it, /*idle=*/true);
        evicted = true;
      } else {
        ++it;
      }
    }
    if (evicted) sweep_postings(shard);
  }
}

ImageId ShardedCache::adopt(spec::PackageSet contents,
                            std::vector<spec::VersionConstraint> constraints,
                            std::uint64_t hits, std::uint32_t merge_count,
                            std::uint32_t version) {
  assert(contents.universe() == repo_->size());
  const std::uint64_t now = clock_.fetch_add(1) + 1;
  Image image;
  image.id = ImageId{id_counter_.fetch_add(1)};
  image.bytes = repo_->bytes_of(contents.bits());
  image.contents = std::move(contents);
  image.constraints = std::move(constraints);
  image.hits = hits;
  image.merge_count = merge_count;
  image.version = version;
  image.last_used = now;
  image.lineage.push_back(image.contents);
  const ImageId id = image.id;
  admit(std::move(image));
  enforce_budget(now);
  return id;
}

DecisionIndexStats ShardedCache::index_stats() const {
  DecisionIndexStats out;
  for (const Shard& shard : shards_) {
    auto lock = lock_shard(shard);
    if (!shard.dindex) continue;
    const DecisionIndexStats s = shard.dindex->stats();
    out.postings_probes += s.postings_probes;
    out.postings_probe_entries += s.postings_probe_entries;
    out.postings_compactions += s.postings_compactions;
    out.eviction_updates += s.eviction_updates;
    out.postings_live += s.postings_live;
    out.postings_stale += s.postings_stale;
  }
  return out;
}

std::optional<std::string> ShardedCache::check_decision_index() const {
  if (!config_.decision_index) return std::nullopt;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    auto lock = lock_shard(shards_[s]);
    if (auto err = shards_[s].dindex->reconcile(shards_[s].images)) {
      return "shard " + std::to_string(s) + ": " + *err;
    }
  }
  return std::nullopt;
}

util::Bytes ShardedCache::unique_bytes() const {
  if (config_.record_time_series) {
    std::scoped_lock lock(ledger_mutex_);
    return ledger_unique_;
  }
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const Shard& shard : shards_) locks.push_back(lock_shard(shard));
  util::DynamicBitset all(repo_->size());
  bool any = false;
  for (const Shard& shard : shards_) {
    for (const auto& [id, image] : shard.images) {
      all |= image.contents.bits();
      any = true;
    }
  }
  return any ? repo_->bytes_of(all) : 0;
}

TimeSeries ShardedCache::time_series() const {
  std::scoped_lock lock(ledger_mutex_);
  return series_;
}

std::optional<ImageId> ShardedCache::peek_superset(const spec::Specification& spec) {
  const auto hit = find_superset(spec);
  if (!hit) return std::nullopt;
  return ImageId{hit->id};
}

std::optional<ImageId> ShardedCache::peek_victim() {
  const auto victim = find_victim(clock_.load(std::memory_order_acquire));
  if (!victim) return std::nullopt;
  return ImageId{victim->first.id};
}

double ShardedCache::cache_efficiency() const {
  const util::Bytes unique = unique_bytes();
  const util::Bytes total = total_bytes_.load(std::memory_order_acquire);
  if (total == 0) return 1.0;
  return static_cast<double>(unique) / static_cast<double>(total);
}

CacheCounters ShardedCache::counters() const {
  // The memo-hit slots are read once and added to both requests and
  // hits, so a concurrent reader's hits never outrun its requests.
  const auto [memo_hits, memo_hit_bytes] = memo_hit_tallies();
  CacheCounters out;
  out.requests = counters_.requests.load() + memo_hits;
  out.hits = counters_.hits.load() + memo_hits;
  out.merges = counters_.merges.load();
  out.inserts = counters_.inserts.load();
  out.deletes = counters_.deletes.load();
  out.splits = counters_.splits.load();
  out.conflict_rejections = counters_.conflict_rejections.load();
  out.requested_bytes = counters_.requested_bytes.load() + memo_hit_bytes;
  out.written_bytes = counters_.written_bytes.load();
  out.delta_merges = counters_.delta_merges.load();
  out.repacks = counters_.repacks.load();
  out.delta_written_bytes = counters_.delta_written_bytes.load();
  out.repack_written_bytes = counters_.repack_written_bytes.load();
  out.full_rewrite_bytes = counters_.full_rewrite_bytes.load();
  out.container_efficiency_sum = counters_.container_efficiency_sum.load();
  out.optimistic_retries = counters_.optimistic_retries.load();
  out.cross_shard_moves = counters_.cross_shard_moves.load();
  std::uint64_t contentions = 0;
  for (const Shard& shard : shards_) {
    contentions += shard.lock_contentions.load(std::memory_order_relaxed);
  }
  out.shard_lock_contentions = contentions;
  return out;
}

std::optional<Image> ShardedCache::find(ImageId id) const {
  for (const Shard& shard : shards_) {
    auto lock = lock_shard(shard);
    auto it = shard.images.find(to_value(id));
    if (it != shard.images.end()) return it->second;
  }
  return std::nullopt;
}

std::vector<ShardStats> ShardedCache::shard_stats() const {
  std::vector<ShardStats> out;
  out.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = shards_[s];
    auto lock = lock_shard(shard);
    ShardStats stats;
    stats.shard = s;
    stats.images = shard.images.size();
    for (const auto& [id, image] : shard.images) stats.bytes += image.bytes;
    stats.homed_inserts = shard.homed_inserts;
    stats.lock_acquisitions = shard.lock_acquisitions.load(std::memory_order_relaxed);
    stats.lock_contentions = shard.lock_contentions.load(std::memory_order_relaxed);
    out.push_back(stats);
  }
  return out;
}

std::vector<Image> ShardedCache::snapshot_images() const {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const Shard& shard : shards_) locks.push_back(lock_shard(shard));
  // Size from the locked maps, not image_count_: that ledger is updated
  // outside the shard locks and can transiently wrap below zero when a
  // racing eviction erases an image before its insert is counted.
  std::size_t count = 0;
  for (const Shard& shard : shards_) count += shard.images.size();
  std::vector<Image> out;
  out.reserve(count);
  for (const Shard& shard : shards_) {
    for (const auto& [id, image] : shard.images) out.push_back(image);
  }
  std::sort(out.begin(), out.end(), [](const Image& a, const Image& b) {
    return to_value(a.id) < to_value(b.id);
  });
  return out;
}

}  // namespace landlord::core

#include "landlord/cache.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "spec/jaccard.hpp"

namespace landlord::core {

Cache::Cache(const pkg::Repository& repo, CacheConfig config)
    : repo_(&repo),
      config_(config),
      hasher_(config.minhash_k),
      lsh_(config.lsh_bands) {
  assert(config_.alpha >= 0.0 && config_.alpha <= 1.0);
  if (config_.record_time_series) ledger_refs_.resize(repo_->size(), 0);
  if (config_.decision_index) {
    dindex_.emplace(repo_->size(), config_.eviction);
    memo_ = std::make_unique<SpecMemo>();
  }
}

void Cache::set_observability(obs::Observability* observability) {
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
  hooks_.trace = &observability->trace;
}

void Cache::dindex_insert(const Image& image) {
  if (!dindex_) return;
  dindex_->insert(image);
  memo_->bump();
  if (hooks_.eviction_index_updates != nullptr) hooks_.eviction_index_updates->inc();
}

void Cache::dindex_erase(const util::DynamicBitset& old_bits,
                         const EvictionKey& old_key) {
  if (!dindex_) return;
  dindex_->erase(old_bits, old_key);
  memo_->bump();
  if (hooks_.eviction_index_updates != nullptr) hooks_.eviction_index_updates->inc();
}

void Cache::dindex_update(const Image& image,
                          const util::DynamicBitset& old_bits,
                          const EvictionKey& old_key) {
  if (!dindex_) return;
  dindex_->update(image, old_bits, old_key);
  memo_->bump();
  if (hooks_.eviction_index_updates != nullptr) hooks_.eviction_index_updates->inc();
}

void Cache::dindex_touch(const EvictionKey& old_key, const Image& image) {
  if (!dindex_) return;
  dindex_->touch(old_key, eviction_key(image));
  if (hooks_.eviction_index_updates != nullptr) hooks_.eviction_index_updates->inc();
}

void Cache::ledger_add(const util::DynamicBitset& bits) {
  if (!config_.record_time_series) return;
  bits.for_each_set([this](std::size_t i) {
    if (ledger_refs_[i]++ == 0) {
      ledger_unique_ += (*repo_)[pkg::package_id(static_cast<std::uint32_t>(i))].size;
    }
  });
}

void Cache::ledger_remove(const util::DynamicBitset& bits) {
  if (!config_.record_time_series) return;
  bits.for_each_set([this](std::size_t i) {
    assert(ledger_refs_[i] > 0 && "union ledger underflow");
    if (--ledger_refs_[i] == 0) {
      ledger_unique_ -= (*repo_)[pkg::package_id(static_cast<std::uint32_t>(i))].size;
    }
  });
}

void Cache::trace_eviction(const Image& victim, const char* reason) {
  if (hooks_.trace == nullptr) return;
  obs::TraceEvent event;
  event.kind = obs::EventKind::kEviction;
  event.image = to_value(victim.id);
  event.bytes = victim.bytes;
  event.aux = victim.hits;
  event.detail = reason;
  hooks_.trace->record(event);
}

std::optional<Image> Cache::find(ImageId id) const {
  auto it = images_.find(to_value(id));
  if (it == images_.end()) return std::nullopt;
  return it->second;
}

util::Bytes Cache::unique_bytes() const {
  // With time-series recording on, the union is maintained incrementally
  // (ledger_add/ledger_remove at every contents mutation) — O(1) here
  // instead of an O(images × universe) recompute per call.
  if (config_.record_time_series) return ledger_unique_;
  if (images_.empty()) return 0;
  util::DynamicBitset all(repo_->size());
  for (const auto& [id, image] : images_) all |= image.contents.bits();
  return repo_->bytes_of(all);
}

double Cache::cache_efficiency() const {
  if (total_bytes_ == 0) return 1.0;
  return static_cast<double>(unique_bytes()) / static_cast<double>(total_bytes_);
}

void Cache::index_insert(const Image& image) {
  if (config_.policy != MergePolicy::kMinHashLsh) return;
  auto signature = hasher_.sign(image.contents);
  lsh_.insert(to_value(image.id), signature);
  signatures_.emplace(to_value(image.id), std::move(signature));
}

void Cache::index_erase(const Image& image) {
  if (config_.policy != MergePolicy::kMinHashLsh) return;
  auto it = signatures_.find(to_value(image.id));
  if (it == signatures_.end()) return;
  lsh_.erase(to_value(image.id), it->second);
  signatures_.erase(it);
}

std::optional<ImageId> Cache::find_superset_scan(
    const spec::Specification& spec) const {
  // "for i ∈ I do: if s ⊆ i then return i" — any superset serves; we take
  // the smallest so jobs ship the least unrequested data. Byte ties break
  // on the lower id so the choice is independent of map iteration order
  // (the sharded cache must reproduce it shard by shard).
  const Image* best = nullptr;
  for (const auto& [id, image] : images_) {
    if (spec.packages().is_subset_of(image.contents)) {
      if (best == nullptr || image.bytes < best->bytes ||
          (image.bytes == best->bytes && to_value(image.id) < to_value(best->id))) {
        best = &image;
      }
    }
  }
  if (best == nullptr) return std::nullopt;
  return best->id;
}

std::optional<ImageId> Cache::find_superset(const spec::Specification& spec) {
  if (!dindex_) return find_superset_scan(spec);
  // Memo first: back-to-back identical specs (the common HTC case) skip
  // even the postings probe. An entry only answers while the epoch it
  // was stored at is still current, so it is exactly the scan's answer.
  const std::uint64_t epoch = memo_->epoch();
  if (auto memo = memo_->lookup(spec.packages())) {
    if (hooks_.memo_hit != nullptr) hooks_.memo_hit->inc();
    return memo->image;
  }
  if (hooks_.memo_miss != nullptr) hooks_.memo_miss->inc();
  std::optional<ImageId> best;
  if (spec.packages().empty() || images_.size() < config_.scan_cutover) {
    // Empty specs have no rarest package; and below the cutover the
    // linear scan beats the postings probe (same answer either way).
    best = find_superset_scan(spec);
  } else {
    std::size_t probe = 0;
    best = dindex_->find_superset(spec.packages(), images_, &probe);
    if (hooks_.postings_probe != nullptr) {
      hooks_.postings_probe->observe(static_cast<double>(probe));
    }
  }
  if (best) memo_->store(spec.packages(), *best, 0, epoch);
  return best;
}

std::optional<ImageId> Cache::peek_superset(const spec::Specification& spec) {
  if (dindex_ && !spec.packages().empty() &&
      images_.size() >= config_.scan_cutover) {
    return dindex_->find_superset(spec.packages(), images_);
  }
  return find_superset_scan(spec);
}

std::optional<ImageId> Cache::peek_victim() {
  if (dindex_) {
    const auto key = dindex_->victim(clock_);
    if (!key) return std::nullopt;
    return ImageId{key->id};
  }
  const auto it = find_victim_scan();
  if (it == images_.end()) return std::nullopt;
  return it->second.id;
}

std::optional<ImageId> Cache::find_merge_candidate(const spec::Specification& spec) {
  struct Candidate {
    double distance;
    ImageId id;
  };
  // Scratch-arena backed: the list dies with this call, so it bump-
  // allocates from the per-request arena instead of the global heap.
  std::vector<Candidate, util::ArenaAllocator<Candidate>> candidates{
      util::ArenaAllocator<Candidate>(arena_)};

  // "In the extreme case of α = 1, every pair of images is considered
  // close and merged if possible" (§V) — so α = 1 admits even distance
  // exactly 1 (disjoint sets), while all other thresholds are strict.
  auto consider = [&](const Image& image) {
    const double d = spec::jaccard_distance(spec.packages(), image.contents);
    if (d < config_.alpha || config_.alpha >= 1.0) {
      candidates.push_back({d, image.id});
    }
  };

  switch (config_.policy) {
    case MergePolicy::kFirstFit:
    case MergePolicy::kBestFit:
      for (const auto& [id, image] : images_) consider(image);
      break;
    case MergePolicy::kMinHashLsh: {
      const auto signature = hasher_.sign(spec.packages());
      for (std::uint64_t id : lsh_.candidates(signature)) {
        auto it = images_.find(id);
        assert(it != images_.end() && "LSH index out of sync with cache");
        consider(it->second);
      }
      break;
    }
  }
  if (hooks_.candidate_scan != nullptr) {
    hooks_.candidate_scan->observe(static_cast<double>(candidates.size()));
  }
  if (candidates.empty()) return std::nullopt;

  if (config_.policy != MergePolicy::kFirstFit) {
    // "Selection can be sorted by dj()" — try closest first; distance
    // ties break on the lower id so the order is deterministic.
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.distance != b.distance) return a.distance < b.distance;
                return to_value(a.id) < to_value(b.id);
              });
  } else {
    // First-fit takes the oldest (lowest-id) close-enough image — the
    // deterministic analogue of "first in storage order".
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                return to_value(a.id) < to_value(b.id);
              });
  }
  for (const auto& candidate : candidates) {
    const Image& image = images_.at(to_value(candidate.id));
    if (spec::ConflictChecker::compatible(spec.constraints(), image.constraints)) {
      return candidate.id;
    }
    ++counters_.conflict_rejections;
    if (hooks_.conflict_rejections != nullptr) hooks_.conflict_rejections->inc();
  }
  return std::nullopt;
}

Cache::Outcome Cache::request(const spec::Specification& spec) {
  assert(spec.packages().universe() == repo_->size() &&
         "spec universe must match the cache's repository");
  arena_.reset();  // reclaim the previous request's scratch in O(1)
  ++clock_;
  ++counters_.requests;
  const util::Bytes requested = spec.bytes(*repo_);
  counters_.requested_bytes += requested;
  if (hooks_.request_bytes != nullptr) {
    hooks_.request_bytes->observe(static_cast<double>(requested));
  }

  Outcome outcome;

  if (auto hit = find_superset(spec)) {
    Image& image = images_.at(to_value(*hit));
    const EvictionKey pre_touch_key = eviction_key(image);
    image.last_used = clock_;
    ++image.hits;
    dindex_touch(pre_touch_key, image);
    ++counters_.hits;
    ImageId served = image.id;
    util::Bytes served_bytes = image.bytes;
    bool split = false;
    ImageId split_from{};
    util::Bytes split_from_bytes = 0;
    // Extension: a hit on a badly bloated image (job uses a small
    // fraction of what it would ship) triggers a split along the merge
    // lineage; the job is served from the tightly fitting part.
    if (config_.enable_split && image.merge_count > 0 && image.bytes > 0 &&
        static_cast<double>(requested) / static_cast<double>(image.bytes) <
            config_.split_utilization) {
      // The ladder's rung-3 fallback needs the *unsplit* image's
      // identity and size, so capture them before the split rewrites
      // (or erases) the bloated image.
      split_from = image.id;
      split_from_bytes = image.bytes;
      served = split_image(image.id, spec);
      served_bytes = images_.at(to_value(served)).bytes;
      split = true;
    }
    outcome = {RequestKind::kHit, served,     served_bytes,
               split,             split_from, split_from_bytes};
  } else if (auto candidate = find_merge_candidate(spec)) {
    Image& image = images_.at(to_value(*candidate));
    // Snapshot pre-merge state so the decision index can word-diff the
    // contents and replace the eviction key after the rewrite.
    std::optional<util::DynamicBitset> pre_merge_bits;
    EvictionKey pre_merge_key{};
    if (dindex_) {
      pre_merge_bits = image.contents.bits();
      pre_merge_key = eviction_key(image);
    }
    const util::Bytes pre_merge_bytes = image.bytes;
    index_erase(image);
    total_bytes_ -= image.bytes;
    ledger_remove(image.contents.bits());
    image.contents.merge(spec.packages());
    ledger_add(image.contents.bits());
    image.bytes = repo_->bytes_of(image.contents.bits());
    // Append-if-absent: workloads reuse a small set of distinct
    // constraints, so verbatim appending made a hot image's constraint
    // list (and every ConflictChecker pass over it) grow linearly with
    // its merge count.
    spec::merge_constraints(image.constraints, spec.constraints());
    image.last_used = clock_;
    ++image.merge_count;
    ++image.version;
    if (image.lineage.size() >= config_.max_lineage) {
      // Coalesce the two oldest entries to bound lineage growth.
      image.lineage[0].merge(image.lineage[1]);
      image.lineage.erase(image.lineage.begin() + 1);
    }
    image.lineage.push_back(spec.packages());
    total_bytes_ += image.bytes;
    // "Each time a merge occurs, the resulting image must be written out
    // in its entirety" (§VI, Overhead of LANDLORD) — the counterfactual
    // is always tracked; with a delta chain the actual charge is only
    // the bytes the merge added plus a manifest, until the chain caps
    // out and the next merge repacks. The branch never touches anything
    // a decision reads, so delta mode replays bit-identically.
    counters_.full_rewrite_bytes += image.bytes;
    if (hooks_.cas_full_rewrite_bytes != nullptr) {
      hooks_.cas_full_rewrite_bytes->inc(image.bytes);
    }
    if (config_.delta_chain_cap == 0) {
      counters_.written_bytes += image.bytes;
    } else if (image.chain_depth >= config_.delta_chain_cap) {
      counters_.written_bytes += image.bytes;
      counters_.repack_written_bytes += image.bytes;
      ++counters_.repacks;
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
          (image.bytes - pre_merge_bytes) + config_.delta_manifest_bytes;
      counters_.written_bytes += charge;
      counters_.delta_written_bytes += charge;
      ++counters_.delta_merges;
      ++image.chain_depth;
      if (hooks_.cas_delta_merges != nullptr) hooks_.cas_delta_merges->inc();
      if (hooks_.cas_delta_bytes != nullptr) hooks_.cas_delta_bytes->inc(charge);
    }
    ++counters_.merges;
    index_insert(image);
    if (dindex_) dindex_update(image, *pre_merge_bits, pre_merge_key);
    outcome = {RequestKind::kMerge, image.id, image.bytes};
  } else {
    Image image;
    image.id = next_id();
    image.contents = spec.packages();
    image.bytes = requested;
    image.constraints = spec.constraints();
    image.last_used = clock_;
    image.lineage.push_back(spec.packages());
    total_bytes_ += image.bytes;
    ledger_add(image.contents.bits());
    counters_.written_bytes += image.bytes;
    counters_.full_rewrite_bytes += image.bytes;
    if (hooks_.cas_full_rewrite_bytes != nullptr) {
      hooks_.cas_full_rewrite_bytes->inc(image.bytes);
    }
    ++counters_.inserts;
    const ImageId id = image.id;
    const util::Bytes bytes = image.bytes;
    index_insert(image);
    dindex_insert(image);
    images_.emplace(to_value(id), std::move(image));
    outcome = {RequestKind::kInsert, id, bytes};
  }

  outcome.requested_bytes = requested;
  // Inserts, merges and splits rewrite the image set and build the
  // decided image; plain hits do neither.
  const bool mutated = outcome.kind != RequestKind::kHit || outcome.split;
  if (mutated) outcome.contents = images_.at(to_value(outcome.image)).contents;
  counters_.container_efficiency_sum +=
      outcome.image_bytes > 0
          ? static_cast<double>(requested) / static_cast<double>(outcome.image_bytes)
          : 1.0;

  switch (outcome.kind) {
    case RequestKind::kHit:
      if (hooks_.requests_hit != nullptr) hooks_.requests_hit->inc();
      break;
    case RequestKind::kMerge:
      if (hooks_.requests_merge != nullptr) hooks_.requests_merge->inc();
      break;
    case RequestKind::kInsert:
      if (hooks_.requests_insert != nullptr) hooks_.requests_insert->inc();
      break;
  }
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

  evict_over_budget();
  evict_idle();
  // Structural mutations leave postings tombstones; sweep them here,
  // where the image map and the index agree, because below scan_cutover
  // no probe ever runs to do it.
  if (dindex_ && mutated) dindex_->sweep(images_);
  record_sample(outcome.kind, outcome);
  return outcome;
}

ImageId Cache::adopt(spec::PackageSet contents,
                     std::vector<spec::VersionConstraint> constraints,
                     std::uint64_t hits, std::uint32_t merge_count,
                     std::uint32_t version) {
  assert(contents.universe() == repo_->size());
  Image image;
  image.id = next_id();
  image.bytes = repo_->bytes_of(contents.bits());
  image.contents = std::move(contents);
  image.constraints = std::move(constraints);
  image.hits = hits;
  image.merge_count = merge_count;
  image.version = version;
  image.last_used = ++clock_;
  image.lineage.push_back(image.contents);
  total_bytes_ += image.bytes;
  ledger_add(image.contents.bits());
  const ImageId id = image.id;
  index_insert(image);
  dindex_insert(image);
  images_.emplace(to_value(id), std::move(image));
  evict_over_budget();
  if (dindex_) dindex_->sweep(images_);
  return id;
}

ImageId Cache::split_image(ImageId id, const spec::Specification& spec) {
  Image& bloated = images_.at(to_value(id));
  // Pre-split state for the decision index (the hit arm already stamped
  // last_used/hits, so this key matches what the index holds right now).
  std::optional<util::DynamicBitset> pre_split_bits;
  EvictionKey pre_split_key{};
  if (dindex_) {
    pre_split_bits = bloated.contents.bits();
    pre_split_key = eviction_key(bloated);
  }
  index_erase(bloated);
  total_bytes_ -= bloated.bytes;
  ledger_remove(bloated.contents.bits());

  // Part A exactly covers the request. Part B is the union of lineage
  // entries not subsumed by the request — lineage entries are
  // dependency-closed, so B is a valid image; constituents the request
  // covers are dropped (their jobs are served by A).
  Image part_a;
  part_a.id = next_id();
  part_a.contents = spec.packages();
  part_a.bytes = repo_->bytes_of(part_a.contents.bits());
  part_a.constraints = spec.constraints();
  part_a.last_used = clock_;
  part_a.hits = 1;
  part_a.lineage.push_back(spec.packages());

  spec::PackageSet remainder(repo_->size());
  std::vector<spec::PackageSet> remainder_lineage;
  for (auto& entry : bloated.lineage) {
    if (entry.is_subset_of(part_a.contents)) continue;
    remainder.merge(entry);
    remainder_lineage.push_back(std::move(entry));
  }

  // Both split parts are fresh full writes in either accounting mode
  // (a delta against the bloated chain would pin its dead constituents).
  counters_.written_bytes += part_a.bytes;
  counters_.full_rewrite_bytes += part_a.bytes;
  if (hooks_.cas_full_rewrite_bytes != nullptr) {
    hooks_.cas_full_rewrite_bytes->inc(part_a.bytes);
  }
  ++counters_.splits;
  if (hooks_.splits != nullptr) hooks_.splits->inc();
  const ImageId part_a_id = part_a.id;
  total_bytes_ += part_a.bytes;
  ledger_add(part_a.contents.bits());
  index_insert(part_a);
  dindex_insert(part_a);
  images_.emplace(to_value(part_a_id), std::move(part_a));

  if (!remainder.empty()) {
    // The remainder keeps the bloated image's id (it is the continuation
    // of that image, shrunk) so worker caches can version-check it.
    bloated.contents = std::move(remainder);
    bloated.bytes = repo_->bytes_of(bloated.contents.bits());
    bloated.lineage = std::move(remainder_lineage);
    bloated.merge_count = static_cast<std::uint32_t>(bloated.lineage.size()) - 1;
    ++bloated.version;
    bloated.chain_depth = 0;  // rewritten in full; the old chain is gone
    total_bytes_ += bloated.bytes;
    ledger_add(bloated.contents.bits());
    counters_.written_bytes += bloated.bytes;
    counters_.full_rewrite_bytes += bloated.bytes;
    if (hooks_.cas_full_rewrite_bytes != nullptr) {
      hooks_.cas_full_rewrite_bytes->inc(bloated.bytes);
    }
    index_insert(bloated);
    if (dindex_) dindex_update(bloated, *pre_split_bits, pre_split_key);
    // The remainder was rewritten in full, so the delta chain built for
    // the pre-split image no longer describes what is on disk: invalidate
    // it (the next build of this id starts a fresh base).
    if (eviction_listener_) eviction_listener_(id, 0);
  } else {
    // The whole lineage was subsumed by part A: the bloated image dies.
    // Its postings entries and eviction key must die with it, or a
    // later probe can resurrect the erased id (the stale-postings
    // regression in tests/landlord/decision_index_test.cpp).
    if (dindex_) dindex_erase(*pre_split_bits, pre_split_key);
    const util::Bytes dying_bytes = bloated.bytes;
    images_.erase(to_value(id));
    ++counters_.deletes;
    if (hooks_.evictions_split != nullptr) hooks_.evictions_split->inc();
    if (eviction_listener_) eviction_listener_(id, dying_bytes);
  }
  return part_a_id;
}

std::unordered_map<std::uint64_t, Image>::iterator Cache::find_victim_scan() {
  // Pick a victim per the configured policy. The image serving the
  // current request carries the freshest LRU stamp and (for hit-based
  // policies) a just-incremented hit count, so under kLru it is never
  // chosen while any other image exists.
  auto victim = images_.end();
  for (auto it = images_.begin(); it != images_.end(); ++it) {
    if (it->second.last_used == clock_) continue;  // never evict the
                                                   // image just served
    if (victim == images_.end() ||
        evict_before(config_.eviction, eviction_key(it->second),
                     eviction_key(victim->second))) {
      victim = it;
    }
  }
  return victim;
}

void Cache::evict_over_budget() {
  while (total_bytes_ > config_.capacity && images_.size() > 1) {
    auto victim = images_.end();
    if (dindex_) {
      // The ordered index's minimum is the scan's choice, O(log n).
      if (const auto key = dindex_->victim(clock_)) {
        victim = images_.find(key->id);
        assert(victim != images_.end() && "eviction index out of sync");
      }
    } else {
      victim = find_victim_scan();
    }
    if (victim == images_.end()) break;  // only the just-served image left
    total_bytes_ -= victim->second.bytes;
    ledger_remove(victim->second.contents.bits());
    index_erase(victim->second);
    if (dindex_) dindex_erase(victim->second.contents.bits(),
                              eviction_key(victim->second));
    if (hooks_.evictions_budget != nullptr) hooks_.evictions_budget->inc();
    trace_eviction(victim->second, "budget");
    const ImageId victim_id = victim->second.id;
    const util::Bytes victim_bytes = victim->second.bytes;
    images_.erase(victim);
    ++counters_.deletes;
    if (eviction_listener_) eviction_listener_(victim_id, victim_bytes);
  }
}

void Cache::evict_idle() {
  if (config_.max_idle_requests == 0) return;
  for (auto it = images_.begin(); it != images_.end();) {
    if (clock_ - it->second.last_used > config_.max_idle_requests) {
      total_bytes_ -= it->second.bytes;
      ledger_remove(it->second.contents.bits());
      index_erase(it->second);
      if (dindex_) dindex_erase(it->second.contents.bits(),
                                eviction_key(it->second));
      if (hooks_.evictions_idle != nullptr) hooks_.evictions_idle->inc();
      trace_eviction(it->second, "idle");
      const ImageId victim_id = it->second.id;
      const util::Bytes victim_bytes = it->second.bytes;
      it = images_.erase(it);
      ++counters_.deletes;
      if (eviction_listener_) eviction_listener_(victim_id, victim_bytes);
    } else {
      ++it;
    }
  }
}

void Cache::record_sample(RequestKind kind, const Outcome& outcome) {
  (void)outcome;
  if (!config_.record_time_series) return;
  RequestSample sample;
  sample.kind = kind;
  sample.hits = counters_.hits;
  sample.inserts = counters_.inserts;
  sample.deletes = counters_.deletes;
  sample.merges = counters_.merges;
  sample.cached_bytes = total_bytes_;
  sample.unique_bytes = unique_bytes();
  sample.cumulative_written = counters_.written_bytes;
  sample.cumulative_requested = counters_.requested_bytes;
  sample.image_count = images_.size();
  series_.record(sample);
}

}  // namespace landlord::core

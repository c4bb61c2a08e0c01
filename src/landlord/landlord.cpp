#include "landlord/landlord.hpp"

#include <cassert>
#include <istream>

namespace landlord::core {

void Landlord::wire_eviction_listener() {
  if (!builder_.delta_enabled()) return;
  // The listener fires under the cache's internal lock; ImageStore's own
  // mutex is a leaf, so the drop cannot deadlock or re-enter the cache.
  cache_->set_eviction_listener([this](ImageId id, util::Bytes) {
    builder_.image_store().drop(to_value(id));
  });
}

std::optional<shrinkwrap::BuiltImage> Landlord::build_with_retry(
    const spec::Specification& spec, fault::FaultOp op, double& backoff_seconds,
    std::uint32_t& retries, std::uint64_t image_key) {
  for (std::uint32_t attempt = 0;; ++attempt) {
    auto built = builder_.try_build(spec, injector_, op, image_key);
    if (built.ok()) return std::move(built).value();
    degraded_.build_failures.fetch_add(1, std::memory_order_relaxed);
    if (attempt >= backoff_.max_retries) return std::nullopt;
    // Wait (modelled seconds) before retrying; jitter decorrelates a
    // fleet of head nodes hammering the same failed mirror.
    const double delay = backoff_.delay_for(attempt, backoff_rng_);
    backoff_seconds += delay;
    ++retries;
    degraded_.retries.fetch_add(1, std::memory_order_relaxed);
    degraded_.backoffs.fetch_add(1, std::memory_order_relaxed);
    degraded_.backoff_seconds.fetch_add(delay, std::memory_order_relaxed);
    if (hooks_.build_retries != nullptr) hooks_.build_retries->inc();
    if (hooks_.backoff_seconds != nullptr) hooks_.backoff_seconds->add(delay);
    if (hooks_.trace != nullptr) {
      obs::TraceEvent event;
      event.kind = obs::EventKind::kBuildRetry;
      event.detail = fault::to_string(op);
      event.aux = attempt;
      event.seconds = delay;
      hooks_.trace->record(event);
    }
  }
}

void Landlord::set_observability(obs::Observability* observability) {
  obs_ = observability;
  cache_->set_observability(observability);
  if (observability == nullptr) {
    hooks_ = Hooks{};
    return;
  }
  obs::Registry& reg = observability->registry;
  constexpr const char* kRungHelp =
      "Degradation-ladder rungs taken by submit() (docs/fault_model.md).";
  hooks_.rung_hit =
      &reg.counter("landlord_submit_rung_total", {{"rung", "hit"}}, kRungHelp);
  hooks_.rung_build =
      &reg.counter("landlord_submit_rung_total", {{"rung", "build"}}, kRungHelp);
  hooks_.rung_exact = &reg.counter("landlord_submit_rung_total",
                                   {{"rung", "exact-fallback"}}, kRungHelp);
  hooks_.rung_unsplit = &reg.counter("landlord_submit_rung_total",
                                     {{"rung", "unsplit-fallback"}}, kRungHelp);
  hooks_.rung_error =
      &reg.counter("landlord_submit_rung_total", {{"rung", "error"}}, kRungHelp);
  hooks_.build_retries =
      &reg.counter("landlord_submit_build_retries_total", {},
                   "Failed image builds retried after backoff.");
  hooks_.backoff_seconds =
      &reg.gauge("landlord_submit_backoff_seconds_total", {},
                 "Modelled seconds spent in retry backoff.");
  hooks_.prep_seconds =
      &reg.histogram("landlord_submit_prep_seconds", obs::default_seconds_buckets(),
                     {}, "Modelled image-preparation seconds per placement.");
  hooks_.invariant_violations =
      &reg.counter("landlord_placement_invariant_violations_total", {},
                   "Placements that failed the placement_violation() check.");
  hooks_.trace = &observability->trace;
}

JobPlacement Landlord::submit(const spec::Specification& spec) {
  ShardedCache::Outcome outcome = cache_->request(spec);
  JobPlacement placement = place(spec, outcome);
  if (hooks_.prep_seconds != nullptr) {
    hooks_.prep_seconds->observe(placement.prep_seconds);
  }
  // Self-check the reporting invariants against the decision itself, so
  // a racing eviction cannot turn a sound placement into a false alarm.
  if (hooks_.invariant_violations != nullptr) {
    if (auto violation = decision_violation(outcome, placement)) {
      hooks_.invariant_violations->inc();
      if (hooks_.trace != nullptr) {
        obs::TraceEvent event;
        event.kind = obs::EventKind::kInvariantViolation;
        event.detail = to_string(placement.kind);
        event.image = to_value(placement.image);
        event.bytes = placement.image_bytes;
        event.degraded = placement.degraded;
        event.failed = placement.failed;
        hooks_.trace->record(event);
      }
    }
  }
  return placement;
}

JobPlacement Landlord::place(const spec::Specification& spec,
                             ShardedCache::Outcome& outcome) {
  JobPlacement placement;
  placement.kind = outcome.kind;
  placement.image = outcome.image;
  placement.image_bytes = outcome.image_bytes;
  placement.requested_bytes = outcome.requested_bytes;

  // Plain hits ship an image that already exists on disk: no build, no
  // fault surface.
  if (outcome.kind == RequestKind::kHit && !outcome.split) {
    if (hooks_.rung_hit != nullptr) hooks_.rung_hit->inc();
    return placement;
  }

  if (submit_test_hook_) submit_test_hook_();

  // Materialise (or re-materialise after a merge or split) the image the
  // cache decided on. request() copied its contents under the decision's
  // lock, so a concurrent eviction between here and the build cannot
  // take them away: each spec is decided once and its build charged.
  // The builder's persistent chunk cache means only content not fetched
  // before is downloaded; the whole image is still written.
  assert(outcome.contents.has_value() && "building outcomes carry contents");
  const spec::Specification materialised{std::move(*outcome.contents)};
  // The builder mutates its chunk cache; one lock keeps concurrent
  // sharded submissions safe without slowing the hit path above.
  std::scoped_lock lock(build_mutex_);
  double backoff_seconds = 0.0;
  std::uint32_t retries = 0;

  // Rung 1: build what the cache decided. A fresh insert is a cold
  // download; merges and split rebuilds rewrite an existing image.
  const fault::FaultOp op = outcome.kind == RequestKind::kInsert
                                ? fault::FaultOp::kBuilderDownload
                                : fault::FaultOp::kMergeRewrite;
  // Rung-1 builds materialise a cached image: key the delta store by its
  // decision-layer id so merges stack deltas on its chain. Fallback
  // rungs build one-off images and stay unkeyed (full-write accounting).
  auto built = build_with_retry(materialised, op, backoff_seconds, retries,
                                to_value(outcome.image));

  if (!built.has_value() && outcome.kind == RequestKind::kMerge) {
    // Rung 2: the merged image cannot be rewritten. Build an exact,
    // uncached image of just this spec so the job still runs; the cached
    // (decision-layer) merge stays and can be rebuilt by a later job.
    degraded_.fallback_exact_builds.fetch_add(1, std::memory_order_relaxed);
    if (hooks_.rung_exact != nullptr) hooks_.rung_exact->inc();
    placement.degraded = true;
    built = build_with_retry(spec, fault::FaultOp::kBuilderDownload,
                             backoff_seconds, retries);
    if (built.has_value()) {
      // The job runs in a one-off image that was never admitted to the
      // cache — report the sentinel, not the cached merged image the
      // placement previously (wrongly) pointed at.
      placement.kind = RequestKind::kInsert;
      placement.image = kUncachedImage;
      placement.image_bytes = placement.requested_bytes;
      if (hooks_.trace != nullptr) {
        obs::TraceEvent event;
        event.kind = obs::EventKind::kFallbackExact;
        event.image = to_value(kUncachedImage);
        event.bytes = placement.requested_bytes;
        event.aux = to_value(outcome.image);  // the merge that failed
        event.degraded = true;
        hooks_.trace->record(event);
      }
    }
  }

  if (!built.has_value() && outcome.kind == RequestKind::kHit && outcome.split) {
    // Rung 3: the split part cannot be rebuilt, but the unsplit image
    // file is still on disk and is a superset of the spec — serve from
    // it. Report that image's identity and size, not the split part the
    // worker never received.
    degraded_.fallback_unsplit_hits.fetch_add(1, std::memory_order_relaxed);
    if (hooks_.rung_unsplit != nullptr) hooks_.rung_unsplit->inc();
    placement.degraded = true;
    placement.image = outcome.split_from;
    placement.image_bytes = outcome.split_from_bytes;
    placement.prep_seconds = backoff_seconds;
    placement.build_retries = retries;
    prep_seconds_.fetch_add(backoff_seconds, std::memory_order_relaxed);
    if (hooks_.trace != nullptr) {
      obs::TraceEvent event;
      event.kind = obs::EventKind::kFallbackUnsplit;
      event.image = to_value(outcome.split_from);
      event.bytes = outcome.split_from_bytes;
      event.aux = to_value(outcome.image);  // the part that failed to build
      event.degraded = true;
      hooks_.trace->record(event);
    }
    return placement;
  }

  if (!built.has_value()) {
    // Ladder exhausted: surface an error placement instead of aborting.
    // The decision layer already recorded the operation; the job's
    // scheduler sees failed=true and can re-queue.
    degraded_.error_placements.fetch_add(1, std::memory_order_relaxed);
    if (hooks_.rung_error != nullptr) hooks_.rung_error->inc();
    placement.failed = true;
    placement.error = std::string("image build failed after ") +
                      std::to_string(retries) + " retries (" +
                      fault::to_string(op) + ")";
    placement.prep_seconds = backoff_seconds;
    placement.build_retries = retries;
    prep_seconds_.fetch_add(backoff_seconds, std::memory_order_relaxed);
    if (hooks_.trace != nullptr) {
      obs::TraceEvent event;
      event.kind = obs::EventKind::kErrorPlacement;
      event.image = to_value(outcome.image);
      event.aux = retries;
      event.seconds = backoff_seconds;
      event.failed = true;
      event.detail = fault::to_string(op);
      hooks_.trace->record(event);
    }
    return placement;
  }

  if (!placement.degraded && hooks_.rung_build != nullptr) {
    hooks_.rung_build->inc();
  }
  placement.content_digest = built->content_digest;
  placement.bytes_written = built->written_bytes;
  placement.prep_seconds = built->prep_seconds + backoff_seconds;
  placement.build_retries = retries;
  prep_seconds_.fetch_add(placement.prep_seconds, std::memory_order_relaxed);
  return placement;
}

namespace {

/// The rules that need no cache state: a failed placement carries an
/// error; the uncached sentinel appears only degraded, at the requested
/// size. Call only for failed or uncached placements.
std::optional<std::string> uncached_violation(const JobPlacement& placement) {
  if (placement.failed) {
    if (placement.error.empty()) return "failed placement carries no error message";
    return std::nullopt;
  }
  if (!placement.degraded) {
    return "uncached-image sentinel on a non-degraded placement";
  }
  if (placement.image_bytes != placement.requested_bytes) {
    return "uncached exact build reports " + std::to_string(placement.image_bytes) +
           " bytes, expected the requested " +
           std::to_string(placement.requested_bytes);
  }
  return std::nullopt;
}

std::string degraded_insert_violation(const JobPlacement& placement) {
  return "degraded insert placement claims resident cache image " +
         std::to_string(to_value(placement.image)) +
         " instead of the uncached sentinel";
}

}  // namespace

std::optional<std::string> placement_violation(const Landlord& landlord,
                                               const JobPlacement& placement) {
  if (placement.failed || is_uncached(placement.image)) {
    return uncached_violation(placement);
  }
  const auto image = landlord.find(placement.image);
  if (!image.has_value()) {
    if (placement.degraded) return std::nullopt;  // served from disk, since gone
    return "placement reports image " + std::to_string(to_value(placement.image)) +
           " which is not resident in the cache";
  }
  if (placement.degraded) {
    // A resident image on a degraded placement is only legal on rung 3,
    // where the (shrunk) remainder keeps the unsplit image's id; its
    // cached size then legitimately differs from the on-disk copy served.
    if (placement.kind == RequestKind::kInsert) {
      return degraded_insert_violation(placement);
    }
    return std::nullopt;
  }
  if (image->bytes != placement.image_bytes) {
    return "placement reports " + std::to_string(placement.image_bytes) +
           " bytes for image " + std::to_string(to_value(placement.image)) +
           " but the cache holds " + std::to_string(image->bytes);
  }
  return std::nullopt;
}

std::optional<std::string> decision_violation(const ShardedCache::Outcome& outcome,
                                              const JobPlacement& placement) {
  if (placement.failed || is_uncached(placement.image)) {
    return uncached_violation(placement);
  }
  if (placement.degraded) {
    // Only rung 3 serves a cached id degraded: the unsplit image the
    // split was carved from, at its pre-split size.
    if (placement.kind == RequestKind::kInsert) {
      return degraded_insert_violation(placement);
    }
    if (!outcome.split || placement.image != outcome.split_from ||
        placement.image_bytes != outcome.split_from_bytes) {
      return "degraded placement reports image " +
             std::to_string(to_value(placement.image)) +
             " which is not the unsplit image of its decision";
    }
    return std::nullopt;
  }
  if (placement.image != outcome.image || placement.kind != outcome.kind ||
      placement.image_bytes != outcome.image_bytes) {
    return "placement reports image " + std::to_string(to_value(placement.image)) +
           " (" + std::to_string(placement.image_bytes) +
           " bytes) but the cache decided image " +
           std::to_string(to_value(outcome.image)) + " (" +
           std::to_string(outcome.image_bytes) + " bytes)";
  }
  return std::nullopt;
}

util::Result<std::size_t> Landlord::restore(std::istream& in,
                                            RestoreReport* report) {
  RestoreReport local;
  RestoreReport& out = report != nullptr ? *report : local;

  auto result = restore_cache(in, *repo_, cache_->config(), &out);
  if (!result.ok()) return result.error();
  cache_ = std::move(result).value();
  const std::size_t adopted = cache_->image_count();
  degraded_.recovered_images.fetch_add(adopted, std::memory_order_relaxed);
  degraded_.lost_records.fetch_add(out.records_lost, std::memory_order_relaxed);
  // The fresh decision layer numbers images from zero again, so stale
  // delta chains keyed by pre-crash ids would collide with (and corrupt
  // the accounting of) newly admitted images. Restored images are full
  // on-disk files; their chains restart at a base write. The listener
  // must also be re-wired — it was bound to the replaced cache.
  builder_.image_store().clear();
  wire_eviction_listener();
  // The decision layer was just replaced wholesale; without this the
  // observability attachment would silently vanish across a restart.
  if (obs_ != nullptr) {
    set_observability(obs_);
    if (hooks_.trace != nullptr) {
      obs::TraceEvent event;
      event.kind = obs::EventKind::kRestore;
      event.aux = adopted;             // images re-admitted
      event.bytes = out.records_lost;  // snapshot records lost
      hooks_.trace->record(event);
    }
  }
  return adopted;
}

fault::DegradedCounters Landlord::degraded() const {
  fault::DegradedCounters out;
  out.build_failures = degraded_.build_failures.load(std::memory_order_relaxed);
  out.retries = degraded_.retries.load(std::memory_order_relaxed);
  out.backoffs = degraded_.backoffs.load(std::memory_order_relaxed);
  out.backoff_seconds = degraded_.backoff_seconds.load(std::memory_order_relaxed);
  out.fallback_exact_builds =
      degraded_.fallback_exact_builds.load(std::memory_order_relaxed);
  out.fallback_unsplit_hits =
      degraded_.fallback_unsplit_hits.load(std::memory_order_relaxed);
  out.error_placements = degraded_.error_placements.load(std::memory_order_relaxed);
  out.recovered_images = degraded_.recovered_images.load(std::memory_order_relaxed);
  out.lost_records = degraded_.lost_records.load(std::memory_order_relaxed);
  return out;
}

}  // namespace landlord::core

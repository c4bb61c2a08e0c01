// LANDLORD facade: the job-wrapper entry point.
//
// "On job submission, LANDLORD first scans its configured cache directory
// for existing images that are 'close' to the job's specification,
// creates/updates images in the cache as necessary, and finally launches
// the job inside the prepared container." (§V, LANDLORD Deployment)
//
// Landlord couples the decision layer (core::ShardedCache, Algorithm 1)
// with the materialisation layer (shrinkwrap::ImageBuilder) so callers
// get both the placement decision and the modelled preparation cost.
//
// Failure story (docs/fault_model.md): when a fault::FaultInjector is
// attached, image builds can fail. submit() retries with exponential
// backoff + jitter (modelled seconds, charged to prep time), then walks
// a degradation ladder — a failed merge rewrite falls back to an exact
// uncached image of just the spec, a failed split rebuild serves the
// still-on-disk unsplit image, and only full exhaustion surfaces an
// error placement (JobPlacement::failed) instead of aborting the job.
// With no injector (or an empty plan) every path is bit-identical to
// the fault-free code.
#pragma once

#include <atomic>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "fault/fault.hpp"
#include "landlord/persist.hpp"
#include "landlord/sharded.hpp"
#include "shrinkwrap/builder.hpp"

namespace landlord::core {

/// What submit() decided and what it cost.
struct JobPlacement {
  RequestKind kind = RequestKind::kHit;  ///< hit / merge / insert
  /// Image the job runs in. kUncachedImage when a degraded exact build
  /// (ladder rung 2) produced a one-off image that was never admitted to
  /// the cache; the id of the *unsplit* on-disk image when a failed
  /// split rebuild fell back to serving it (rung 3).
  ImageId image{};
  util::Bytes image_bytes = 0;           ///< size of the image actually served
  util::Bytes requested_bytes = 0;       ///< size the spec actually needed
  double prep_seconds = 0.0;             ///< 0 for hits; build model + backoff
  std::uint32_t build_retries = 0;       ///< failed build attempts retried
  bool degraded = false;  ///< served via a fallback rung (docs/fault_model.md)
  bool failed = false;    ///< degradation ladder exhausted: no image prepared
  std::string error;      ///< why, when failed (empty otherwise)
  /// Content digest of the image materialised for this placement (0 when
  /// nothing was built — plain hits, rung-3 fallbacks, failures). The
  /// delta-equivalence oracle compares these across accounting modes.
  std::uint64_t content_digest = 0;
  /// Bytes the build wrote to image storage (full image, or the delta
  /// receipt when the builder's delta store is enabled). 0 when nothing
  /// was built.
  util::Bytes bytes_written = 0;
};

class Landlord {
 public:
  /// submit() may be called from multiple threads concurrently at any
  /// `cache_config.shards` (the builder is serialised behind its own
  /// mutex; decisions take shard locks). With one submitting thread the
  /// placements are the same at every shard count. `delta` enables
  /// chunk-level delta storage for built images: rung-1 builds are
  /// recorded in the builder's ImageStore keyed by their decision-layer
  /// image id, and evictions drop the corresponding chains. Decisions are
  /// unaffected (tests/sim/delta_oracle_test.cpp).
  Landlord(const pkg::Repository& repo, CacheConfig cache_config,
           shrinkwrap::FileTreeParams tree_params = {},
           shrinkwrap::BuildTimeModel time_model = {},
           shrinkwrap::BuildNoiseModel noise = {},
           shrinkwrap::DeltaBuildConfig delta = {})
      : repo_(&repo),
        cache_(std::make_unique<ShardedCache>(repo, cache_config)),
        builder_(repo, tree_params, time_model, noise, delta) {
    wire_eviction_listener();
  }

  /// Prepares a suitable container image for the job's specification and
  /// reports the placement. Image (re)builds are charged through the
  /// Shrinkwrap time model; hits cost nothing. Build failures (injected
  /// via set_fault_injector) are retried, degraded, and — only when the
  /// whole ladder is exhausted — reported as a failed placement.
  [[nodiscard]] JobPlacement submit(const spec::Specification& spec);

  /// Attaches a fault oracle consulted by every image build and, via the
  /// persistence wrappers, snapshot I/O. Non-owning; pass nullptr to
  /// detach. Not thread-safe against in-flight submit() calls.
  void set_fault_injector(fault::FaultInjector* injector) noexcept {
    injector_ = injector;
    if (injector != nullptr) {
      backoff_rng_.reseed(injector->plan().seed ^ 0xbacc0ffULL);
    }
  }
  /// Attaches an observability bundle to this facade and to the decision
  /// layer (metric handles resolve once; the hot path bumps relaxed
  /// atomics). Survives restore(): the fresh decision layer is
  /// re-attached automatically. Pass nullptr to detach.
  /// Instrumentation never perturbs placements. Not thread-safe against
  /// in-flight submit() calls.
  void set_observability(obs::Observability* observability);

  /// Replaces the retry/backoff policy for failed builds.
  void set_backoff_policy(fault::BackoffPolicy policy) noexcept {
    backoff_ = policy;
  }
  [[nodiscard]] const fault::BackoffPolicy& backoff_policy() const noexcept {
    return backoff_;
  }

  /// Replaces the decision-layer state from a cache snapshot — the
  /// head-node restart path (image files and the builder's chunk cache
  /// live on disk and survive the crash; decision state comes back from
  /// the last checkpoint). v2 snapshots recover their valid prefix; the
  /// report (optional) says what was lost. Returns the number of images
  /// re-admitted. Not thread-safe against concurrent submit() calls.
  util::Result<std::size_t> restore(std::istream& in,
                                    RestoreReport* report = nullptr);

  /// The decision layer. restore() replaces it, so do not keep the
  /// reference across a restore.
  [[nodiscard]] const ShardedCache& cache() const noexcept { return *cache_; }
  [[nodiscard]] const shrinkwrap::ImageBuilder& builder() const noexcept {
    return builder_;
  }
  [[nodiscard]] const pkg::Repository& repository() const noexcept { return *repo_; }

  /// Decision-layer reads; everything else goes through cache().
  [[nodiscard]] CacheCounters counters() const { return cache_->counters(); }
  [[nodiscard]] util::Bytes total_bytes() const { return cache_->total_bytes(); }
  [[nodiscard]] util::Bytes unique_bytes() const { return cache_->unique_bytes(); }

  /// Total modelled seconds spent preparing images so far (builds plus
  /// backoff waits).
  [[nodiscard]] double total_prep_seconds() const noexcept {
    return prep_seconds_.load(std::memory_order_relaxed);
  }

  /// Degraded-mode telemetry snapshot (retries, backoffs, fallbacks,
  /// recovered/lost snapshot records) — the fault-path companion of
  /// counters().
  [[nodiscard]] fault::DegradedCounters degraded() const;

  /// Test-only: runs between the placement decision and the build, so
  /// tests can deterministically interleave the concurrent eviction of
  /// the decided image (tests/landlord/fault_test.cpp).
  void set_submit_test_hook(std::function<void()> hook) {
    submit_test_hook_ = std::move(hook);
  }

 private:
  /// Materialises a decided outcome: submit() minus the invariant
  /// self-check and prep histogram. Consumes `outcome.contents`.
  [[nodiscard]] JobPlacement place(const spec::Specification& spec,
                                   ShardedCache::Outcome& outcome);

  /// Builds `spec` under build_mutex_, retrying per backoff_ while the
  /// injector keeps failing the `op` class. Accumulates modelled waits
  /// into `backoff_seconds` and retry counts into `retries`.
  [[nodiscard]] std::optional<shrinkwrap::BuiltImage> build_with_retry(
      const spec::Specification& spec, fault::FaultOp op,
      double& backoff_seconds, std::uint32_t& retries,
      std::uint64_t image_key = shrinkwrap::kNoImageKey);

  /// Connects the decision layer's eviction stream to the builder's
  /// delta store so evicted images release their chunk chains.
  /// No-op (no listener installed) when delta storage is disabled.
  void wire_eviction_listener();

  const pkg::Repository* repo_;
  std::unique_ptr<ShardedCache> cache_;  ///< replaced wholesale by restore()
  shrinkwrap::ImageBuilder builder_;
  std::mutex build_mutex_;  ///< serialises builder_ under concurrent submit()
  std::atomic<double> prep_seconds_ = 0.0;

  fault::FaultInjector* injector_ = nullptr;  ///< non-owning; may be null
  fault::BackoffPolicy backoff_;
  util::Rng backoff_rng_{0xbacc0ffULL};  ///< jitter stream; under build_mutex_
  std::function<void()> submit_test_hook_;

  /// Monotone degraded-mode counters (relaxed atomics: telemetry only).
  struct AtomicDegraded {
    std::atomic<std::uint64_t> build_failures{0};
    std::atomic<std::uint64_t> retries{0};
    std::atomic<std::uint64_t> backoffs{0};
    std::atomic<double> backoff_seconds{0.0};
    std::atomic<std::uint64_t> fallback_exact_builds{0};
    std::atomic<std::uint64_t> fallback_unsplit_hits{0};
    std::atomic<std::uint64_t> error_placements{0};
    std::atomic<std::uint64_t> recovered_images{0};
    std::atomic<std::uint64_t> lost_records{0};
  };
  AtomicDegraded degraded_;

  obs::Observability* obs_ = nullptr;  ///< non-owning; kept for restore()

  /// Metric handles resolved at set_observability; null ⇒ no-op.
  struct Hooks {
    obs::Counter* rung_hit = nullptr;      ///< plain hit, nothing to build
    obs::Counter* rung_build = nullptr;    ///< rung 1: decided image built
    obs::Counter* rung_exact = nullptr;    ///< rung 2: exact uncached build
    obs::Counter* rung_unsplit = nullptr;  ///< rung 3: unsplit on-disk hit
    obs::Counter* rung_error = nullptr;    ///< ladder exhausted
    obs::Counter* build_retries = nullptr;
    obs::Gauge* backoff_seconds = nullptr;
    obs::Histogram* prep_seconds = nullptr;
    obs::Counter* invariant_violations = nullptr;
    obs::EventTrace* trace = nullptr;
  };
  Hooks hooks_;
};

/// Placement-field invariants every submit() result must satisfy,
/// checked against the Outcome the decision layer returned (read under
/// the decision's lock, so a racing eviction cannot raise a false alarm):
///   * a failed placement carries an error message;
///   * the uncached sentinel appears only on degraded placements and
///     reports exactly the requested bytes (rung 2 builds the request);
///   * a degraded placement that names a cached id is rung 3: the
///     unsplit image its split was carved from, at its pre-split size
///     (a degraded kInsert never claims a cached image);
///   * any other placement reports the decided image, kind and size.
/// Returns a description of the violation, or nullopt when sound.
/// Landlord::submit runs it on every placement when observability is
/// attached and counts failures in
/// landlord_placement_invariant_violations_total.
[[nodiscard]] std::optional<std::string> decision_violation(
    const ShardedCache::Outcome& outcome, const JobPlacement& placement);

}  // namespace landlord::core

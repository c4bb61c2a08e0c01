// Self test of the benchmark's own code: seeded inputs are byte-identical,
// the percentile helper applies the ten-samples-beyond rule, and the
// placement digest catches a perturbed reply stream.
//
//   headbench_selftest      (exit status 0 when every check passes)
#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workload.hpp"

namespace {

int failures = 0;

void expect(bool condition, const std::string& what) {
  if (!condition) {
    ++failures;
    std::cerr << "FAIL: " << what << '\n';
  } else {
    std::cout << "ok: " << what << '\n';
  }
}

void same_seed_same_inputs() {
  for (const std::string& name : headbench::workload_names()) {
    auto w = *headbench::workload_named(name);
    w.trace_length = 4096;
    const auto repo_a = headbench::make_repository(7);
    const auto repo_b = headbench::make_repository(7);
    const auto repo_c = headbench::make_repository(8);
    const std::string a =
        headbench::serialize_inputs(*repo_a, headbench::make_inputs(w, *repo_a, 7));
    const std::string b =
        headbench::serialize_inputs(*repo_b, headbench::make_inputs(w, *repo_b, 7));
    const std::string c =
        headbench::serialize_inputs(*repo_c, headbench::make_inputs(w, *repo_c, 8));
    expect(!a.empty() && a == b, name + ": the same seed gives byte-identical inputs");
    expect(a != c, name + ": another seed gives other inputs");
  }
}

void percentile_rule() {
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(static_cast<double>(i));
  const auto p99 = headbench::supported_quantile(thousand, 0.99);
  expect(p99 && *p99 == 990.0, "p99 of 1..1000 is 990 with ten samples beyond");
  std::vector<double> short_sample(thousand.begin(), thousand.end() - 1);
  expect(!headbench::supported_quantile(short_sample, 0.99),
         "p99 of 999 samples is refused (nine beyond)");
  std::vector<double> twenty(thousand.begin(), thousand.begin() + 20);
  const auto p50 = headbench::supported_quantile(twenty, 0.50);
  expect(p50 && *p50 == 10.0, "p50 of 1..20 is 10 with ten beyond");
  std::vector<double> nineteen(thousand.begin(), thousand.begin() + 19);
  expect(!headbench::supported_quantile(nineteen, 0.50),
         "p50 of 19 samples is refused (nine beyond)");
  expect(!headbench::supported_quantile({}, 0.5), "an empty sample supports nothing");
  std::vector<double> reversed(thousand.rbegin(), thousand.rend());
  expect(headbench::supported_quantile(reversed, 0.99) == p99,
         "the percentile does not depend on sample order");
  expect(headbench::median({3.0, 1.0, 2.0, 4.0}) == 2.5, "median of an even sample");

  expect(headbench::quantile_window(0.99) == 1000 &&
             headbench::quantile_window(0.50) == 20,
         "windows are the smallest samples supporting the percentile");
  expect(headbench::windowed_quantile(thousand, 0.99) == p99,
         "one window: the windowed p99 is the plain p99");
  expect(!headbench::windowed_quantile(short_sample, 0.99),
         "the windowed p99 of 999 samples is refused");
  // Ten windows of 1.0 where one whole window is a 100x burst: the
  // pooled p99 is the burst, the windowed p99 is the typical window.
  std::vector<double> bursty(10000, 1.0);
  std::fill(bursty.begin() + 3000, bursty.begin() + 4000, 100.0);
  expect(headbench::supported_quantile(bursty, 0.99) == 100.0 &&
             headbench::windowed_quantile(bursty, 0.99) == 1.0,
         "a burst inside one window does not move the windowed p99");
  std::fill(bursty.begin(), bursty.begin() + 6000, 100.0);
  expect(headbench::windowed_quantile(bursty, 0.99) == 100.0,
         "a shift across most windows moves the windowed p99");
  // Host phases: the first 40% of the frames run at half speed. The
  // median over windows sits at the fast level and would jump to the
  // slow one past half; the mean moves with the slowed share.
  std::vector<double> phased(1000, 1.0);
  std::fill(phased.begin(), phased.begin() + 400, 2.0);
  expect(headbench::windowed_quantile(phased, 0.50) == 1.0 &&
             headbench::windowed_quantile(phased, 0.50, headbench::Across::kMean) == 1.4,
         "the mean over windows moves in proportion to the slowed share");
}

void digest_catches_perturbation() {
  // A real reply stream: the churn twin over a short trace.
  auto w = *headbench::workload_named("churn");
  w.trace_length = 256;
  const auto repo = headbench::make_repository(3);
  const headbench::Inputs inputs = headbench::make_inputs(w, *repo, 3);
  std::vector<landlord::serve::PlacementReply> stream;
  {
    headbench::Twin twin(*repo, w);
    for (const auto& entry : inputs.trace) {
      stream.push_back(twin.submit(headbench::request_for(inputs, entry)));
    }
  }
  std::vector<landlord::serve::PlacementReply> again;
  {
    headbench::Twin twin(*repo, w);
    for (const auto& entry : inputs.trace) {
      again.push_back(twin.submit(headbench::request_for(inputs, entry)));
    }
  }
  const std::uint64_t digest = headbench::placement_digest(stream);
  expect(headbench::placement_digest(again) == digest &&
             !headbench::first_mismatch(stream, again),
         "two replays of one seed digest equal");
  bool builds = false;
  for (const auto& r : stream) builds = builds || r.kind != landlord::core::RequestKind::kHit;
  expect(builds, "the churn stream contains merges or inserts");

  const std::size_t at = stream.size() / 2;
  const auto perturbed = [&](auto mutate, const std::string& what) {
    auto copy = stream;
    mutate(copy[at]);
    expect(headbench::placement_digest(copy) != digest &&
               headbench::first_mismatch(stream, copy) == at,
           "a perturbed " + what + " fails the digest check");
  };
  perturbed([](auto& r) { r.image ^= 1; }, "image id");
  perturbed([](auto& r) { r.image_bytes += 1; }, "image size");
  perturbed([](auto& r) { r.requested_bytes += 1; }, "requested size");
  perturbed([](auto& r) { r.prep_seconds = std::nextafter(r.prep_seconds, 1e9); },
            "prep time");
  perturbed([](auto& r) {
    r.kind = r.kind == landlord::core::RequestKind::kHit
                 ? landlord::core::RequestKind::kMerge
                 : landlord::core::RequestKind::kHit;
  }, "decision kind");
  perturbed([](auto& r) { r.degraded = !r.degraded; }, "degraded flag");
  perturbed([](auto& r) { r.client_id += 1; }, "client id");

  auto swapped = stream;
  std::size_t j = at + 1;
  while (j < swapped.size() && swapped[j] == swapped[at]) ++j;
  std::swap(swapped[at], swapped[j]);
  expect(headbench::placement_digest(swapped) != digest,
         "two replies in swapped order fail the digest check");
  auto truncated = stream;
  truncated.pop_back();
  expect(headbench::placement_digest(truncated) != digest &&
             headbench::first_mismatch(stream, truncated) == truncated.size(),
         "a missing reply fails the digest check");
}

}  // namespace

int main() {
  same_seed_same_inputs();
  percentile_rule();
  digest_catches_perturbation();
  std::cout << (failures == 0 ? "selftest: all checks passed"
                              : "selftest: " + std::to_string(failures) + " failed")
            << '\n';
  return failures == 0 ? 0 : 1;
}

// Golden-corpus gate: the decision engine must reproduce, digest for
// digest, the per-request outcomes, final counters, persisted snapshot
// and time series that the retired sequential cache produced for every
// (α, merge policy, eviction policy, split, idle TTL, delta) combination
// (golden_corpus.hpp). Each combination is replayed at one and four
// shards, with the decision index on and off; a single replay thread
// makes every shard count bit-identical.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <string>
#include <tuple>

#include "golden_corpus.hpp"
#include "landlord/sharded.hpp"

namespace landlord::core {
namespace {

/// key -> digests, read from the checked-in corpus.
const std::map<std::string, std::string>& corpus() {
  static const std::map<std::string, std::string> lines = [] {
    std::map<std::string, std::string> out;
    std::ifstream in(LANDLORD_CORPUS_DIR "/golden_decisions.txt");
    EXPECT_TRUE(in.good()) << "golden_decisions.txt missing";
    std::string line;
    while (std::getline(in, line)) {
      const auto digests = line.find(" outcomes=");
      if (digests == std::string::npos) continue;
      out.emplace(line.substr(0, digests), line.substr(digests + 1));
    }
    return out;
  }();
  return lines;
}

TEST(GoldenCorpus, CoversEveryCombination) {
  EXPECT_EQ(corpus().size(), golden::combos().size());
  for (const golden::Combo& combo : golden::combos()) {
    EXPECT_EQ(corpus().count(golden::key(combo)), 1u) << golden::key(combo);
  }
}

class GoldenCorpusTest
    : public testing::TestWithParam<std::tuple<double, MergePolicy>> {};

TEST_P(GoldenCorpusTest, EngineReproducesTheReference) {
  const auto [alpha, policy] = GetParam();
  for (const golden::Combo& combo : golden::combos()) {
    if (combo.alpha != alpha || combo.policy != policy) continue;
    const std::string key = golden::key(combo);
    const auto expected = corpus().find(key);
    ASSERT_NE(expected, corpus().end()) << key;
    for (const std::uint32_t shards : {1u, 4u}) {
      for (const bool indexed : {true, false}) {
        CacheConfig config = golden::config_of(combo);
        config.shards = shards;
        config.decision_index = indexed;
        ShardedCache cache(golden::repo(), config);
        EXPECT_EQ(golden::digests(cache), expected->second)
            << key << " shards=" << shards << " indexed=" << indexed;
      }
    }
    // Recording the series is observation only: with it off, every
    // other digest is unchanged.
    CacheConfig config = golden::config_of(combo);
    config.record_time_series = false;
    ShardedCache cache(golden::repo(), config);
    const std::string unrecorded = golden::digests(cache);
    const auto cut = [](const std::string& line) {
      return line.substr(0, line.find(" series="));
    };
    EXPECT_EQ(cut(unrecorded), cut(expected->second)) << key << " unrecorded";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlphaByPolicy, GoldenCorpusTest,
    testing::Combine(testing::Values(0.0, 0.6, 1.0),
                     testing::Values(MergePolicy::kBestFit, MergePolicy::kFirstFit,
                                     MergePolicy::kMinHashLsh)));

}  // namespace
}  // namespace landlord::core

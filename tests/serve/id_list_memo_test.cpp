// The server's submit decode path (decode_submit_frame over the
// per-server IdListMemo) against the plain decoder:
//  * differential: every corpus frame and every single-byte mutation of
//    the corpus submits decodes, with a cold memo and with a warm one, to
//    decode_frame's status, and on success to the client ids, sets and
//    constraints of to_specification(decode_frame(...)) — including
//    frames whose id list matches a cached entry byte for byte but whose
//    count or length is corrupted, and cached lists under a smaller
//    universe;
//  * bounds: capacity + 1 distinct lists clear the table, an all-distinct
//    stream stays within the byte budget, a list seen again after a
//    clear decodes identically, and a frame with more new lists than the
//    capacity stores none;
//  * concurrency: eight connections submitting overlapping catalogs
//    through one server's memo place exactly as one connection does
//    (tier1.sh runs the serve label under TSan and ASan).

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "landlord/landlord.hpp"
#include "pkg/synthetic.hpp"
#include "serve/client.hpp"
#include "serve/id_list_memo.hpp"
#include "serve/loadgen.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

#ifndef LANDLORD_SERVE_CORPUS_DIR
#error "LANDLORD_SERVE_CORPUS_DIR must point at tests/serve/corpus"
#endif

namespace landlord::serve {
namespace {

// The corpus is generated against a 64-package universe.
constexpr std::size_t kUniverse = 64;
constexpr std::uint64_t kSeed = 0x5eed;

std::filesystem::path corpus_dir() { return LANDLORD_SERVE_CORPUS_DIR; }

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::vector<std::pair<std::string, std::string>> corpus() {
  std::vector<std::pair<std::string, std::string>> files;
  for (const auto& entry : std::filesystem::directory_iterator(corpus_dir())) {
    if (entry.path().extension() != ".bin") continue;
    files.emplace_back(entry.path().filename().string(),
                       read_file(entry.path()));
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// The corpus frames a client sends with specs in them.
const std::vector<std::string>& submit_frames() {
  static const std::vector<std::string> frames = [] {
    std::vector<std::string> out;
    for (const char* name :
         {"ok__submit.bin", "ok__submit_v2.bin", "ok__batch_submit.bin",
          "ok__batch_submit_v2.bin", "ok__batch_submit_zero.bin",
          "ok__submit_empty_spec.bin"}) {
      out.push_back(read_file(corpus_dir() / name));
    }
    return out;
  }();
  return frames;
}

bool is_submit(FrameType type) {
  return type == FrameType::kSubmit || type == FrameType::kBatchSubmit;
}

/// Decodes `bytes` the way Server::reader_loop does (submits through the
/// memo) and checks the result against decode_frame + to_specification.
/// Returns the memo hits of the frame.
std::size_t expect_same_decode(std::string_view bytes, std::size_t universe,
                               IdListMemo& memo, const std::string& what) {
  const Decoded<Frame> want = decode_frame(bytes, universe);
  const Decoded<FrameHeader> header = decode_header(bytes);
  const Decoded<SubmitFrame> got = decode_submit_frame(bytes, universe, memo);
  if (!header.ok() || !is_submit(header.value.type)) {
    // The server decodes these with decode_frame itself; the submit
    // decoder must still agree up to the type dispatch.
    DecodeStatus expected = DecodeStatus::kUnexpectedType;
    if (!header.ok()) {
      expected = header.status;
    } else if (bytes.size() - kHeaderSize < header.value.payload_size) {
      expected = DecodeStatus::kTruncated;
    } else if (bytes.size() - kHeaderSize > header.value.payload_size) {
      expected = DecodeStatus::kTrailingBytes;
    }
    EXPECT_EQ(to_string(got.status), std::string(to_string(expected))) << what;
    return 0;
  }
  EXPECT_EQ(to_string(got.status), std::string(to_string(want.status))) << what;
  if (!got.ok() || !want.ok()) return 0;
  const Frame& ref = want.value;
  const SubmitFrame& frame = got.value;
  EXPECT_EQ(frame.header.request_id, ref.header.request_id) << what;
  EXPECT_EQ(frame.header.type, ref.header.type) << what;
  EXPECT_EQ(frame.session_id, ref.session_id) << what;
  EXPECT_EQ(frame.deadline_ms, ref.deadline_ms) << what;
  EXPECT_EQ(frame.memo_hits + frame.memo_misses, frame.specs.size()) << what;
  if (frame.specs.size() != ref.submits.size()) {
    ADD_FAILURE() << what << ": " << frame.specs.size() << " specs, want "
                  << ref.submits.size();
    return frame.memo_hits;
  }
  for (std::size_t i = 0; i < frame.specs.size(); ++i) {
    const spec::Specification expected = to_specification(ref.submits[i], universe);
    const SubmitSpec& submit = frame.specs[i];
    EXPECT_EQ(submit.client_id, ref.submits[i].client_id) << what << " #" << i;
    EXPECT_EQ(submit.spec.packages(), expected.packages()) << what << " #" << i;
    EXPECT_EQ(submit.spec.size(), expected.size()) << what << " #" << i;
    EXPECT_EQ(submit.spec.constraints(), expected.constraints())
        << what << " #" << i;
    EXPECT_EQ(submit.spec.provenance(), expected.provenance()) << what;
  }
  return frame.memo_hits;
}

void feed_submit_frames(IdListMemo& memo) {
  for (const std::string& frame : submit_frames()) {
    ASSERT_TRUE(decode_submit_frame(frame, kUniverse, memo).ok());
  }
}

TEST(ServeIdListMemo, CorpusDecodesAsDecodeFrameColdAndWarm) {
  const auto files = corpus();
  ASSERT_GE(files.size(), 40u);
  IdListMemo warm(kSeed);
  feed_submit_frames(warm);
  for (const auto& [name, bytes] : files) {
    IdListMemo cold(kSeed);
    expect_same_decode(bytes, kUniverse, cold, name + " (cold)");
    expect_same_decode(bytes, kUniverse, warm, name + " (warm)");
  }
}

TEST(ServeIdListMemo, RepeatedFramesHitAndDecodeIdentically) {
  IdListMemo memo(kSeed);
  for (const std::string& frame : submit_frames()) {
    const auto first = decode_submit_frame(frame, kUniverse, memo);
    ASSERT_TRUE(first.ok());
    const std::size_t hits =
        expect_same_decode(frame, kUniverse, memo, "second pass");
    // Every list the first pass saw is now a hit.
    EXPECT_EQ(hits, first.value.specs.size());
  }
}

TEST(ServeIdListMemo, ByteMutationSweepMatchesDecodeFrame) {
  const unsigned char flips[] = {0x01, 0x80, 0xFF};
  IdListMemo warm(kSeed ^ 1);
  feed_submit_frames(warm);
  for (std::size_t f = 0; f < submit_frames().size(); ++f) {
    const std::string& base = submit_frames()[f];
    for (std::size_t i = 0; i < base.size(); ++i) {
      for (const unsigned char flip : flips) {
        std::string mutated = base;
        mutated[i] = static_cast<char>(mutated[i] ^ flip);
        const std::string what = "frame " + std::to_string(f) + " byte " +
                                 std::to_string(i) + " ^ " +
                                 std::to_string(flip);
        IdListMemo cold(kSeed);
        expect_same_decode(mutated, kUniverse, cold, what + " (cold)");
        expect_same_decode(mutated, kUniverse, warm, what + " (warm)");
      }
    }
  }
}

/// One v1 kSubmit frame whose id list is `ids`, raw: the count and the
/// payload length are whatever the caller says.
std::string raw_submit(std::uint32_t count, const std::vector<std::uint32_t>& ids,
                       std::size_t payload_delta = 0) {
  std::string payload(8, '\0');  // client id 0
  const auto put32 = [&payload](std::uint32_t v) {
    for (int shift = 0; shift < 32; shift += 8) {
      payload.push_back(static_cast<char>((v >> shift) & 0xff));
    }
  };
  put32(count);
  for (const std::uint32_t id : ids) put32(id);
  payload.append(2, '\0');  // no constraints
  const std::uint32_t size =
      static_cast<std::uint32_t>(payload.size() + payload_delta);
  std::string out(kHeaderSize, '\0');
  out[0] = static_cast<char>(kMagic & 0xff);
  out[1] = static_cast<char>(kMagic >> 8);
  out[2] = static_cast<char>(kProtocolVersion);
  out[3] = static_cast<char>(FrameType::kSubmit);
  std::memcpy(out.data() + 4, &size, 4);
  return out + payload;
}

// A cached list's exact bytes framed by a wrong count or length must not
// be served from the memo: the walk decides where the list ends before
// any lookup, so these draw decode_frame's status, not a hit.
TEST(ServeIdListMemo, CachedBytesUnderCorruptCountOrLengthAreNotHits) {
  const std::vector<std::uint32_t> ids = {1, 5, 9, 13, 40, 63};
  const auto n = static_cast<std::uint32_t>(ids.size());
  IdListMemo memo(kSeed);
  const std::string good = raw_submit(n, ids);
  ASSERT_TRUE(decode_submit_frame(good, kUniverse, memo).ok());
  ASSERT_EQ(expect_same_decode(good, kUniverse, memo, "good"), 1u);

  const std::vector<std::pair<std::string, std::string>> bad = {
      {"count + 1", raw_submit(n + 1, ids)},
      {"count - 1", raw_submit(n - 1, ids)},
      {"count 0", raw_submit(0, ids)},
      {"count huge", raw_submit(1u << 30, ids)},
      {"count over universe", raw_submit(kUniverse + 1, ids)},
      {"payload length + 4", raw_submit(n, ids, 4)},
      {"payload length - 1", raw_submit(n, ids, static_cast<std::size_t>(-1))},
      {"frame cut after the ids", good.substr(0, good.size() - 2)},
      {"trailing bytes", good + std::string(3, '\0')},
  };
  for (const auto& [what, bytes] : bad) {
    const Decoded<Frame> want = decode_frame(bytes, kUniverse);
    EXPECT_FALSE(want.ok()) << what;
    expect_same_decode(bytes, kUniverse, memo, what);
  }
  // The id bytes stay cached and still hit in a well-formed frame.
  EXPECT_EQ(expect_same_decode(good, kUniverse, memo, "good again"), 1u);
}

/// A 3-id list whose bytes differ from `a`'s (3 ids) but whose
/// IdListMemo::hash under `seed` is equal: it mirrors the hash for
/// 12-byte lists and inverts the first lane's multiply. The caller
/// asserts the two hashes agree, so a change to the hash fails there.
std::vector<std::uint32_t> colliding_ids(std::uint64_t seed,
                                         const std::vector<std::uint32_t>& a) {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  std::uint64_t inverse = kMul;  // Newton's iteration mod 2^64
  for (int i = 0; i < 6; ++i) inverse *= 2 - kMul * inverse;
  const std::uint64_t h0 = seed ^ 12;
  const std::uint64_t h1 = std::rotl(seed, 16) ^ 0xc2b2ae3d27d4eb4fULL;
  const std::uint64_t a01 = a[0] | (std::uint64_t{a[1]} << 32);
  const std::uint32_t b2 = a[2] + 1;
  const std::uint64_t lane0 = ((h0 ^ a01) * kMul) ^
                              std::rotl((h1 ^ a[2]) * kMul, 16) ^
                              std::rotl((h1 ^ b2) * kMul, 16);
  const std::uint64_t b01 = (lane0 * inverse) ^ h0;
  return {static_cast<std::uint32_t>(b01), static_cast<std::uint32_t>(b01 >> 32),
          b2};
}

std::string_view id_bytes(const std::vector<std::uint32_t>& ids) {
  return {reinterpret_cast<const char*>(ids.data()), 4 * ids.size()};
}

// A hash collision is a miss, never the cached set: the stored bytes are
// compared in full before an entry is served.
TEST(ServeIdListMemo, HashCollisionIsAMissNotTheCachedSet) {
  const std::vector<std::uint32_t> cached = {1, 5, 9};
  const std::vector<std::uint32_t> other = colliding_ids(kSeed, cached);
  IdListMemo memo(kSeed);
  ASSERT_NE(other, cached);
  ASSERT_EQ(memo.hash(id_bytes(other)), memo.hash(id_bytes(cached)));
  const std::string good = raw_submit(3, cached);
  ASSERT_TRUE(decode_submit_frame(good, kUniverse, memo).ok());
  const std::string colliding = raw_submit(3, other);
  EXPECT_FALSE(decode_frame(colliding, kUniverse).ok());
  EXPECT_EQ(expect_same_decode(colliding, kUniverse, memo, "colliding"), 0u);
  EXPECT_EQ(expect_same_decode(good, kUniverse, memo, "cached"), 1u);
  // Offered for storage (as a list that checked out would be), the
  // colliding bytes do not take the cached list's entry and stay a miss.
  const spec::PackageSet set(kUniverse);
  const IdListMemo::Insert insert{id_bytes(other), memo.hash(id_bytes(other)),
                                  &set};
  memo.insert(kUniverse, std::span<const IdListMemo::Insert>(&insert, 1));
  EXPECT_EQ(memo.stats().entries, 1u);
  const IdListMemo::Reader reader(memo, kUniverse);
  EXPECT_EQ(reader.find(id_bytes(other), insert.hash), nullptr);
  const spec::PackageSet* cached_set =
      reader.find(id_bytes(cached), memo.hash(id_bytes(cached)));
  ASSERT_NE(cached_set, nullptr);
  EXPECT_EQ(*cached_set, to_specification(decode_frame(good, kUniverse)
                                              .value.submits.front(),
                                          kUniverse)
                             .packages());
}

// Entries are validated under one universe: the same bytes under a
// smaller universe are range-checked again, never served.
TEST(ServeIdListMemo, CachedListUnderSmallerUniverseIsRechecked) {
  IdListMemo memo(kSeed);
  feed_submit_frames(memo);
  for (const std::string& frame : submit_frames()) {
    expect_same_decode(frame, 10, memo, "universe 10");
    expect_same_decode(frame, kUniverse, memo, "universe 64 again");
  }
}

// The set is built over the universe's bits, so an empty universe
// admits no id (decode_frame's 0 means "skip the range check").
TEST(ServeIdListMemo, EmptyUniverseAdmitsNoId) {
  IdListMemo memo(kSeed);
  for (int pass = 0; pass < 2; ++pass) {
    EXPECT_EQ(decode_submit_frame(submit_frames()[0], 0, memo).status,
              DecodeStatus::kPackageOutOfRange);
    const auto empty = decode_submit_frame(submit_frames()[5], 0, memo);
    ASSERT_TRUE(empty.ok());
    EXPECT_TRUE(empty.value.specs.front().spec.empty());
  }
}

/// A frame of one spec per id list, batched.
std::string batch_of(const std::vector<std::vector<std::uint32_t>>& lists,
                     std::uint64_t request_id = 1) {
  std::vector<SubmitRequest> requests;
  for (std::size_t i = 0; i < lists.size(); ++i) {
    SubmitRequest request;
    request.client_id = i;
    request.packages = lists[i];
    requests.push_back(std::move(request));
  }
  return encode_batch_submit(request_id, requests);
}

TEST(ServeIdListMemo, CapacityPlusOneDistinctListsClearTheTable) {
  // Singleton lists under a universe wide enough for capacity + 1 of
  // them; their bytes stay far below the budget, so capacity binds.
  const std::size_t universe = kIdListMemoCapacity + 1;
  IdListMemo memo(kSeed);
  for (std::uint32_t id = 0; id < kIdListMemoCapacity; ++id) {
    ASSERT_TRUE(decode_submit_frame(batch_of({{id}}), universe, memo).ok());
  }
  EXPECT_EQ(memo.stats().entries, kIdListMemoCapacity);
  EXPECT_EQ(memo.stats().clears, 0u);
  EXPECT_LE(memo.stats().bytes, kIdListMemoBudgetBytes);
  const auto last = decode_submit_frame(
      batch_of({{static_cast<std::uint32_t>(kIdListMemoCapacity)}}), universe,
      memo);
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(memo.stats().clears, 1u);
  EXPECT_EQ(memo.stats().entries, 1u);
  // Everything before the clear is gone; the newest list survived it.
  EXPECT_EQ(decode_submit_frame(batch_of({{0}}), universe, memo).value.memo_hits, 0u);
  EXPECT_EQ(decode_submit_frame(
                batch_of({{static_cast<std::uint32_t>(kIdListMemoCapacity)}}),
                universe, memo)
                .value.memo_hits,
            1u);
}

TEST(ServeIdListMemo, AllDistinctStreamStaysWithinTheBudget) {
  // ~600-id lists over a 4096-package universe: ~2.9 KiB stored each, so
  // the byte budget binds long before the entry capacity does.
  constexpr std::size_t universe = 4096;
  util::Rng rng(99);
  IdListMemo memo(kSeed);
  std::size_t frames = 0;
  std::uint64_t specs = 0;
  for (; frames < 150; ++frames) {
    std::vector<std::vector<std::uint32_t>> lists;
    for (int s = 0; s < 8; ++s) {
      auto picked = rng.sample_without_replacement(universe, 600);
      std::vector<std::uint32_t> ids(picked.begin(), picked.end());
      std::sort(ids.begin(), ids.end());
      lists.push_back(std::move(ids));
    }
    const std::string frame = batch_of(lists, frames);
    const auto decoded = decode_submit_frame(frame, universe, memo);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value.memo_hits, 0u);
    specs += decoded.value.specs.size();
    const IdListMemo::Stats stats = memo.stats();
    ASSERT_LE(stats.bytes, kIdListMemoBudgetBytes) << "frame " << frames;
    ASSERT_LE(stats.entries, kIdListMemoCapacity) << "frame " << frames;
  }
  EXPECT_EQ(specs, 1200u);
  EXPECT_GE(memo.stats().clears, 2u);
}

TEST(ServeIdListMemo, ListSeenAgainAfterAClearDecodesIdentically) {
  const std::string frame = submit_frames()[2];  // ok__batch_submit.bin
  // Singleton lists over a universe wide enough for a full table's worth
  // of them besides the frame's own lists.
  const std::size_t universe = kIdListMemoCapacity + kUniverse;
  IdListMemo memo(kSeed);
  const auto first = decode_submit_frame(frame, universe, memo);
  ASSERT_TRUE(first.ok());
  ASSERT_GT(first.value.memo_misses, 0u);
  // Capacity + 1 lists in all: the last singleton clears the table.
  const std::size_t others = kIdListMemoCapacity + 1 - memo.stats().entries;
  for (std::size_t k = 0; k < others; ++k) {
    const auto id = static_cast<std::uint32_t>(kUniverse + k);
    ASSERT_TRUE(decode_submit_frame(batch_of({{id}}), universe, memo).ok());
  }
  ASSERT_EQ(memo.stats().clears, 1u);
  const auto again = decode_submit_frame(frame, universe, memo);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value.memo_misses, first.value.memo_misses);
  ASSERT_EQ(again.value.specs.size(), first.value.specs.size());
  for (std::size_t i = 0; i < again.value.specs.size(); ++i) {
    EXPECT_EQ(again.value.specs[i].client_id, first.value.specs[i].client_id);
    EXPECT_EQ(again.value.specs[i].spec.packages(),
              first.value.specs[i].spec.packages());
  }
  expect_same_decode(frame, universe, memo, "after the clear, warm");
}

TEST(ServeIdListMemo, ListOverTheBudgetDecodesButIsNotStored) {
  // One list whose id bytes alone pass the budget.
  const std::size_t count = kIdListMemoBudgetBytes / 4 + 1;
  std::vector<std::uint32_t> ids(count);
  for (std::size_t i = 0; i < count; ++i) ids[i] = static_cast<std::uint32_t>(i);
  const std::string frame = batch_of({ids});
  IdListMemo memo(kSeed);
  for (int pass = 0; pass < 2; ++pass) {
    EXPECT_EQ(expect_same_decode(frame, count, memo, "oversize"), 0u);
  }
  EXPECT_EQ(memo.stats().entries, 0u);
}

// A frame with more new lists than the memo holds stores none of them:
// storing would clear the table on the way and keep only the tail.
TEST(ServeIdListMemo, FrameWithMoreMissesThanTheCapacityStoresNone) {
  const std::size_t universe = 2 * kIdListMemoCapacity;
  IdListMemo memo(kSeed);
  ASSERT_TRUE(decode_submit_frame(batch_of({{0}}), universe, memo).ok());
  std::vector<std::vector<std::uint32_t>> lists;
  for (std::size_t k = 1; k <= kIdListMemoCapacity + 1; ++k) {
    lists.push_back({static_cast<std::uint32_t>(k)});
  }
  const auto big = decode_submit_frame(batch_of(lists), universe, memo);
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(big.value.memo_misses, kIdListMemoCapacity + 1);
  EXPECT_EQ(memo.stats().entries, 1u);
  EXPECT_EQ(memo.stats().clears, 0u);
  // The list stored before the frame is still served.
  EXPECT_EQ(decode_submit_frame(batch_of({{0}}), universe, memo).value.memo_hits,
            1u);
}

// ---- Eight connections through one server's memo ----

const pkg::Repository& repo() {
  static const pkg::Repository r = [] {
    pkg::SyntheticRepoParams params;
    params.total_packages = 400;
    auto result = pkg::generate_repository(params, 97);
    EXPECT_TRUE(result.ok());
    return std::move(result).value();
  }();
  return r;
}

core::CacheConfig roomy_config() {
  core::CacheConfig config;
  config.alpha = 0.8;
  config.capacity = repo().total_bytes() * 4;  // nothing is evicted
  config.shards = 4;
  return config;
}

/// A landlord that has decided every catalog spec once, in order, so
/// every later submit of a catalog spec is a hit on a fixed cache.
void warm(core::Landlord& landlord, const std::vector<SubmitRequest>& catalog) {
  for (const SubmitRequest& request : catalog) {
    (void)landlord.submit(to_specification(request, repo().size()));
  }
}

TEST(ServeIdListMemo, EightConnectionsPlaceAsOneConnectionDoes) {
  LoadGenConfig load;
  load.seed = 31;
  load.catalog_specs = 48;
  load.max_initial_selection = 30;
  const std::vector<SubmitRequest> catalog = make_catalog(repo(), load);
  ASSERT_GE(catalog.size(), 40u);
  std::set<std::vector<std::uint32_t>> distinct;
  for (const SubmitRequest& request : catalog) distinct.insert(request.packages);

  // One connection, one frame at a time: the reference placements.
  core::Landlord one_landlord(repo(), roomy_config());
  warm(one_landlord, catalog);
  std::vector<PlacementReply> reference;
  {
    ServerConfig config;
    config.workers = 1;
    Server server(one_landlord, config);
    ASSERT_TRUE(server.start().ok());
    Client client;
    ASSERT_TRUE(client.connect(server.port()).ok());
    for (const SubmitRequest& request : catalog) {
      const auto reply = client.submit(request);
      ASSERT_TRUE(reply.ok()) << reply.error().message;
      EXPECT_EQ(reply.value().kind, core::RequestKind::kHit);
      reference.push_back(reply.value());
    }
    server.stop();
  }

  // Eight connections over an identically warmed landlord, each sending
  // the catalog in its own rotated order, batched, several times: the
  // memo starts cold, so readers race on the same lists' first inserts
  // and then share their entries.
  core::Landlord landlord(repo(), roomy_config());
  warm(landlord, catalog);
  ServerConfig config;
  config.workers = 4;
  Server server(landlord, config);
  ASSERT_TRUE(server.start().ok());
  constexpr std::size_t kConnections = 8;
  constexpr std::size_t kRounds = 3;
  constexpr std::size_t kBatch = 7;
  std::vector<std::vector<std::string>> failures(kConnections);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      if (!client.connect(server.port()).ok()) {
        failures[c].push_back("connect");
        return;
      }
      std::vector<std::size_t> order;
      for (std::size_t round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < catalog.size(); ++i) {
          order.push_back((i + c * 5 + round) % catalog.size());
        }
      }
      for (std::size_t at = 0; at < order.size(); at += kBatch) {
        const std::size_t end = std::min(order.size(), at + kBatch);
        std::vector<SubmitRequest> batch;
        for (std::size_t k = at; k < end; ++k) {
          batch.push_back(catalog[order[k]]);
          batch.back().client_id = 1000 * c + k;
        }
        const auto replies = client.submit_batch(batch);
        if (!replies.ok()) {
          failures[c].push_back("submit: " + replies.error().message);
          return;
        }
        for (std::size_t k = at; k < end; ++k) {
          PlacementReply want = reference[order[k]];
          want.client_id = 1000 * c + k;
          if (!(replies.value()[k - at] == want)) {
            failures[c].push_back("spec " + std::to_string(order[k]) +
                                  " placed differently");
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  server.stop();
  for (std::size_t c = 0; c < kConnections; ++c) {
    EXPECT_TRUE(failures[c].empty())
        << "connection " << c << ": " << failures[c].front();
  }
  const ServeCounters counters = server.counters();
  const std::uint64_t specs = kConnections * kRounds * catalog.size();
  EXPECT_EQ(counters.requests_served, specs);
  EXPECT_EQ(counters.spec_memo_hits + counters.spec_memo_misses, specs);
  // Each distinct list misses at least once, and at most once per reader
  // that raced the first insert.
  EXPECT_GE(counters.spec_memo_misses, distinct.size());
  EXPECT_LE(counters.spec_memo_misses, kConnections * distinct.size());
  EXPECT_GT(counters.spec_memo_hits, 0u);
}

}  // namespace
}  // namespace landlord::serve

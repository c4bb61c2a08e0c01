// Wire compatibility of the client-sent frame encoders and the bulk
// package-id decoder:
//  * every client-sent `ok__*` frame of the checked-in corpus (written by
//    the independent generate.py) decodes and re-encodes byte-identical;
//  * seeded random submits encode byte-identical to a byte-at-a-time
//    reference encoder kept here as the oracle;
//  * a malformed id list draws the typed status of its first failing id,
//    a range failure before an order failure.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/protocol.hpp"
#include "util/rng.hpp"

#ifndef LANDLORD_SERVE_CORPUS_DIR
#error "LANDLORD_SERVE_CORPUS_DIR must point at tests/serve/corpus"
#endif

namespace landlord::serve {
namespace {

// ---- Reference encoder: one byte at a time into a payload string ----

void ref_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void ref_u16(std::string& out, std::uint16_t v) {
  for (int shift = 0; shift < 16; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

void ref_u32(std::string& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

void ref_u64(std::string& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

void ref_string(std::string& out, const std::string& s) {
  ref_u16(out, static_cast<std::uint16_t>(s.size()));
  out.append(s);
}

void ref_submit(std::string& out, const SubmitRequest& request) {
  ref_u64(out, request.client_id);
  ref_u32(out, static_cast<std::uint32_t>(request.packages.size()));
  for (const std::uint32_t id : request.packages) ref_u32(out, id);
  ref_u16(out, static_cast<std::uint16_t>(request.constraints.size()));
  for (const auto& constraint : request.constraints) {
    ref_u8(out, static_cast<std::uint8_t>(constraint.op));
    ref_string(out, constraint.package);
    ref_string(out, constraint.version);
  }
}

std::string ref_frame(FrameType type, std::uint8_t version,
                      std::uint64_t request_id, const std::string& payload) {
  std::string out;
  ref_u16(out, kMagic);
  ref_u8(out, version);
  ref_u8(out, static_cast<std::uint8_t>(type));
  ref_u32(out, static_cast<std::uint32_t>(payload.size()));
  ref_u64(out, request_id);
  return out + payload;
}

/// v2 = false encodes the v1 frame (no session/deadline prefix).
std::string ref_encode(bool batch, bool v2, std::uint64_t request_id,
                       const std::vector<SubmitRequest>& requests,
                       std::uint64_t session_id = 0,
                       std::uint32_t deadline_ms = 0) {
  std::string payload;
  if (v2) {
    ref_u64(payload, session_id);
    ref_u32(payload, deadline_ms);
  }
  if (batch) ref_u32(payload, static_cast<std::uint32_t>(requests.size()));
  for (const auto& request : requests) ref_submit(payload, request);
  return ref_frame(batch ? FrameType::kBatchSubmit : FrameType::kSubmit,
                   v2 ? kProtocolVersion2 : kProtocolVersion, request_id,
                   payload);
}

// ---- Corpus re-encode ----

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Re-encodes a decoded client-sent frame; empty for other frame types.
std::string reencode(const Frame& frame) {
  const auto& h = frame.header;
  const bool v2 = h.version == kProtocolVersion2;
  switch (h.type) {
    case FrameType::kSubmit:
      return v2 ? encode_submit_v2(h.request_id, frame.submits.at(0),
                                   frame.session_id, frame.deadline_ms)
                : encode_submit(h.request_id, frame.submits.at(0));
    case FrameType::kBatchSubmit:
      return v2 ? encode_batch_submit_v2(h.request_id, frame.submits,
                                         frame.session_id, frame.deadline_ms)
                : encode_batch_submit(h.request_id, frame.submits);
    case FrameType::kPing:
      return encode_ping(h.request_id);
    case FrameType::kStats:
      return encode_stats_request(h.request_id);
    default:
      return {};
  }
}

TEST(ServeSubmitCodec, CorpusClientFramesReencodeByteIdentical) {
  std::set<std::string> reencoded;
  for (const auto& entry :
       std::filesystem::directory_iterator(LANDLORD_SERVE_CORPUS_DIR)) {
    const std::string name = entry.path().filename().string();
    if (!name.starts_with("ok__") || entry.path().extension() != ".bin") continue;
    const std::string bytes = read_file(entry.path());
    const auto decoded = decode_frame(bytes, 0);
    ASSERT_TRUE(decoded.ok()) << name << ": " << to_string(decoded.status);
    const std::string again = reencode(decoded.value);
    if (again.empty()) continue;  // server-sent frame type
    EXPECT_EQ(again, bytes) << name;
    reencoded.insert(name);
  }
  // The corpus's client-sent positive controls; a shrunken checkout
  // would silently weaken the comparison.
  EXPECT_EQ(reencoded,
            (std::set<std::string>{
                "ok__batch_submit.bin", "ok__batch_submit_v2.bin",
                "ok__batch_submit_zero.bin", "ok__ping.bin",
                "ok__stats_request.bin", "ok__submit.bin",
                "ok__submit_empty_spec.bin", "ok__submit_v2.bin"}));
}

// ---- Randomized comparison against the reference encoder ----

std::string random_string(util::Rng& rng, std::size_t length) {
  std::string s(length, '\0');
  for (char& c : s) c = static_cast<char>(rng.uniform(256));
  return s;
}

SubmitRequest random_submit(util::Rng& rng, std::uint32_t universe,
                            std::uint32_t max_ids) {
  SubmitRequest request;
  request.client_id = rng();
  const auto count = static_cast<std::uint32_t>(rng.uniform(max_ids + 1));
  for (const std::uint32_t id :
       rng.sample_without_replacement(universe, count)) {
    request.packages.push_back(id);
  }
  std::sort(request.packages.begin(), request.packages.end());
  const auto constraints = rng.uniform(4);
  for (std::uint64_t i = 0; i < constraints; ++i) {
    spec::VersionConstraint constraint;
    constraint.op = static_cast<spec::ConstraintOp>(
        rng.uniform(static_cast<std::uint64_t>(spec::ConstraintOp::kGe) + 1));
    // Empty, short, and maximum-length strings.
    const auto length = [&rng]() -> std::size_t {
      switch (rng.uniform(3)) {
        case 0: return 0;
        case 1: return rng.uniform(1, 16);
        default: return kMaxStringBytes;
      }
    };
    constraint.package = random_string(rng, length());
    constraint.version = random_string(rng, length());
    request.constraints.push_back(std::move(constraint));
  }
  return request;
}

void expect_round_trip(const std::string& wire,
                       const std::vector<SubmitRequest>& requests,
                       std::size_t universe) {
  const auto decoded = decode_frame(wire, universe);
  ASSERT_TRUE(decoded.ok()) << to_string(decoded.status);
  ASSERT_EQ(decoded.value.submits.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(decoded.value.submits[i].client_id, requests[i].client_id);
    EXPECT_EQ(decoded.value.submits[i].packages, requests[i].packages);
    EXPECT_EQ(decoded.value.submits[i].constraints, requests[i].constraints);
  }
}

TEST(ServeSubmitCodec, SingleSubmitsMatchReferenceEncoder) {
  constexpr std::uint32_t kUniverse = 1500;
  util::Rng rng(20261018);
  for (int round = 0; round < 200; ++round) {
    // Every 50th round takes the whole universe: the 1500-id extreme.
    const std::uint32_t max_ids = round % 50 == 0 ? kUniverse : 200;
    SubmitRequest request = random_submit(rng, kUniverse, max_ids);
    if (round % 50 == 0) {
      request.packages.resize(kUniverse);
      for (std::uint32_t i = 0; i < kUniverse; ++i) request.packages[i] = i;
    }
    const std::uint64_t request_id = rng();
    const std::uint64_t session_id = rng();
    const auto deadline_ms = static_cast<std::uint32_t>(rng());
    const std::vector<SubmitRequest> one{request};

    const std::string v1 = encode_submit(request_id, request);
    EXPECT_EQ(v1, ref_encode(false, false, request_id, one)) << round;
    expect_round_trip(v1, one, kUniverse);

    const std::string v2 =
        encode_submit_v2(request_id, request, session_id, deadline_ms);
    EXPECT_EQ(v2, ref_encode(false, true, request_id, one, session_id,
                             deadline_ms))
        << round;
    expect_round_trip(v2, one, kUniverse);
  }
}

TEST(ServeSubmitCodec, BatchSubmitsMatchReferenceEncoder) {
  constexpr std::uint32_t kUniverse = 1500;
  util::Rng rng(15);
  for (const std::size_t batch : {std::size_t{0}, std::size_t{1},
                                  std::size_t{7}, std::size_t{256}}) {
    std::vector<SubmitRequest> requests;
    for (std::size_t i = 0; i < batch; ++i) {
      requests.push_back(random_submit(rng, kUniverse, 400));
    }
    const std::uint64_t request_id = rng();
    const std::uint64_t session_id = rng();
    const auto deadline_ms = static_cast<std::uint32_t>(rng());

    const std::string v1 = encode_batch_submit(request_id, requests);
    EXPECT_EQ(v1, ref_encode(true, false, request_id, requests)) << batch;
    expect_round_trip(v1, requests, kUniverse);

    const std::string v2 =
        encode_batch_submit_v2(request_id, requests, session_id, deadline_ms);
    EXPECT_EQ(v2, ref_encode(true, true, request_id, requests, session_id,
                             deadline_ms))
        << batch;
    expect_round_trip(v2, requests, kUniverse);
  }
}

TEST(ServeSubmitCodec, EmptyFramesMatchReferenceEncoder) {
  for (const std::uint64_t id : {0ull, 1ull, 0xFEDCBA9876543210ull}) {
    EXPECT_EQ(encode_ping(id), ref_frame(FrameType::kPing, kProtocolVersion, id, {}));
    EXPECT_EQ(encode_stats_request(id),
              ref_frame(FrameType::kStats, kProtocolVersion, id, {}));
  }
}

// ---- Bulk id decode: typed statuses on malformed id lists ----

constexpr std::size_t kUniverse = 64;

SubmitRequest with_ids(std::vector<std::uint32_t> ids) {
  SubmitRequest request;
  request.client_id = 5;
  request.packages = std::move(ids);
  return request;
}

DecodeStatus decode_status(const std::string& wire) {
  return decode_frame(wire, kUniverse).status;
}

/// Keeps the first `keep` payload bytes and patches the header's payload
/// size to match, so the cut is seen by the submit reader, not by the
/// frame-length check.
std::string cut_payload(const std::string& wire, std::size_t keep) {
  std::string out = wire.substr(0, kHeaderSize + keep);
  for (int i = 0; i < 4; ++i) {
    out[4 + static_cast<std::size_t>(i)] =
        static_cast<char>((keep >> (8 * i)) & 0xff);
  }
  return out;
}

TEST(ServeSubmitCodec, IdListCutMidIdIsTruncated) {
  const std::string wire = ref_encode(false, false, 1, {with_ids({1, 2, 3})});
  // Payload: u64 client + u32 count + 3 ids; keep 2 of the third id's bytes.
  EXPECT_EQ(decode_status(cut_payload(wire, 8 + 4 + 4 + 4 + 2)),
            DecodeStatus::kTruncated);
  // Cut inside the first id, and right after the count.
  EXPECT_EQ(decode_status(cut_payload(wire, 8 + 4 + 1)), DecodeStatus::kTruncated);
  EXPECT_EQ(decode_status(cut_payload(wire, 8 + 4)), DecodeStatus::kTruncated);
  // Every id present but the constraint count cut.
  EXPECT_EQ(decode_status(cut_payload(wire, 8 + 4 + 12 + 1)),
            DecodeStatus::kTruncated);
}

TEST(ServeSubmitCodec, DuplicateLastIdIsUnsorted) {
  EXPECT_EQ(decode_status(ref_encode(false, false, 1, {with_ids({1, 2, 9, 9})})),
            DecodeStatus::kUnsortedPackages);
  EXPECT_EQ(decode_status(ref_encode(true, true, 1,
                                     {with_ids({1, 2}), with_ids({4, 63, 63})})),
            DecodeStatus::kUnsortedPackages);
}

TEST(ServeSubmitCodec, OutOfRangeIdAtEitherEndIsTyped) {
  EXPECT_EQ(decode_status(ref_encode(false, false, 1, {with_ids({64, 65})})),
            DecodeStatus::kPackageOutOfRange);
  EXPECT_EQ(decode_status(ref_encode(false, false, 1, {with_ids({0, 1, 64})})),
            DecodeStatus::kPackageOutOfRange);
  EXPECT_EQ(decode_status(ref_encode(
                true, false, 1, {with_ids({3}), with_ids({0, 5, 0xFFFFFFFFu})})),
            DecodeStatus::kPackageOutOfRange);
  // Universe 0 skips only the range check.
  EXPECT_TRUE(decode_frame(ref_encode(false, false, 1, {with_ids({0, 64})}), 0).ok());
}

TEST(ServeSubmitCodec, FirstFailingIdDecidesTheStatus) {
  // Unsorted at position 1 comes before out-of-range at position 2...
  EXPECT_EQ(decode_status(ref_encode(false, false, 1, {with_ids({5, 3, 99})})),
            DecodeStatus::kUnsortedPackages);
  // ...and out-of-range at position 0 before unsorted at position 1.
  EXPECT_EQ(decode_status(ref_encode(false, false, 1, {with_ids({99, 3})})),
            DecodeStatus::kPackageOutOfRange);
  // An id both out of range and unsorted reports out-of-range.
  EXPECT_EQ(decode_status(ref_encode(false, false, 1, {with_ids({70, 66})})),
            DecodeStatus::kPackageOutOfRange);
}

}  // namespace
}  // namespace landlord::serve

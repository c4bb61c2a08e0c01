// Wire protocol for the head-node service plane (docs/serve.md).
//
// Frames are length-prefixed binary records: a fixed 16-byte header
// (magic, version, type, payload size, request id) followed by a typed
// payload. All integers are little-endian fixed width; doubles travel as
// their IEEE-754 bit pattern, so a placement decoded on the client is
// bit-identical to the one the server computed — the loopback
// equivalence suite depends on that.
//
// Encoding and decoding are pure functions over byte buffers: nothing in
// this header touches a socket, so the codec corpus tests
// (tests/serve/codec_corpus_test.cpp) can drive the decoder with
// malformed frames under ASan/UBSan without standing up a server. The
// decoder never throws and never reads past the buffer; every malformed
// input maps to a typed DecodeStatus.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "landlord/landlord.hpp"
#include "spec/specification.hpp"
#include "util/bytes.hpp"

namespace landlord::serve {

/// "PL" on the wire (little-endian u16 0x4C50).
inline constexpr std::uint16_t kMagic = 0x4C50;
inline constexpr std::uint8_t kProtocolVersion = 1;
/// Version 2 keeps every v1 frame byte-identical and adds one thing: a
/// 12-byte `[u64 session_id][u32 deadline_ms]` prefix on kSubmit /
/// kBatchSubmit payloads. session_id keys the server's idempotent-retry
/// dedup window (0 = no retry identity); deadline_ms is a relative time
/// budget — workers shed specs whose budget expired before execution
/// (0 = no deadline). Both decoders accept both versions; v1 frames
/// decode with session_id = deadline_ms = 0.
inline constexpr std::uint8_t kProtocolVersion2 = 2;
inline constexpr std::size_t kHeaderSize = 16;
/// Bytes of the v2 submit payload prefix.
inline constexpr std::size_t kSubmitPrefixV2Bytes = 12;
/// Hard cap on a frame payload; anything larger is rejected unread so a
/// hostile length field cannot make the server allocate.
inline constexpr std::uint32_t kMaxPayloadBytes = 8u << 20;
/// Specs per batch frame.
inline constexpr std::uint32_t kMaxBatch = 4096;
/// Constraint name/version strings and error messages.
inline constexpr std::uint32_t kMaxStringBytes = 4096;

enum class FrameType : std::uint8_t {
  kSubmit = 1,          ///< client → server: one container specification
  kPlacement = 2,       ///< server → client: one placement decision
  kBatchSubmit = 3,     ///< client → server: N specifications, one frame
  kBatchPlacement = 4,  ///< server → client: N placements, one frame
  kPing = 5,            ///< client → server: liveness probe (empty)
  kPong = 6,            ///< server → client: probe echo (empty)
  kStats = 7,           ///< client → server: counter snapshot request
  kStatsReply = 8,      ///< server → client: decision-layer counters
  kRejected = 9,        ///< server → client: admission control said no
  kDrained = 10,        ///< server → client: graceful-drain goodbye
  kError = 11,          ///< server → client: your frame failed to decode
};

[[nodiscard]] constexpr const char* to_string(FrameType type) noexcept {
  switch (type) {
    case FrameType::kSubmit: return "submit";
    case FrameType::kPlacement: return "placement";
    case FrameType::kBatchSubmit: return "batch-submit";
    case FrameType::kBatchPlacement: return "batch-placement";
    case FrameType::kPing: return "ping";
    case FrameType::kPong: return "pong";
    case FrameType::kStats: return "stats";
    case FrameType::kStatsReply: return "stats-reply";
    case FrameType::kRejected: return "rejected";
    case FrameType::kDrained: return "drained";
    case FrameType::kError: return "error";
  }
  return "?";
}

/// Why admission control turned a submit away (kRejected payload).
enum class RejectReason : std::uint8_t {
  kQueueFull = 1,  ///< the bounded work queue is at capacity; back off
  kDraining = 2,   ///< the server is draining; no new work is admitted
};

[[nodiscard]] constexpr const char* to_string(RejectReason reason) noexcept {
  switch (reason) {
    case RejectReason::kQueueFull: return "queue-full";
    case RejectReason::kDraining: return "draining";
  }
  return "?";
}

/// Every way a frame can fail to decode. The decoder returns exactly one
/// of these per malformed input and never crashes — proven file by file
/// against the checked-in corpus (tests/serve/corpus/).
enum class DecodeStatus : std::uint8_t {
  kOk = 0,
  kShortHeader,        ///< fewer than kHeaderSize bytes
  kBadMagic,           ///< first two bytes are not "PL"
  kBadVersion,         ///< protocol version this build does not speak
  kBadType,            ///< FrameType byte outside the enum
  kOversized,          ///< payload length exceeds kMaxPayloadBytes
  kTruncated,          ///< payload shorter than a field needs
  kTrailingBytes,      ///< payload longer than its fields consume
  kBatchTooLarge,      ///< batch count exceeds kMaxBatch
  kPackageOutOfRange,  ///< package id >= the repository universe
  kUnsortedPackages,   ///< package ids not strictly increasing
  kStringTooLong,      ///< constraint/error string exceeds kMaxStringBytes
  kBadConstraintOp,    ///< constraint op byte outside the enum
  kBadKind,            ///< placement kind byte outside RequestKind
  kBadReason,          ///< reject reason byte outside RejectReason
  kUnexpectedType,     ///< well-formed frame the receiver cannot serve
};

[[nodiscard]] constexpr const char* to_string(DecodeStatus status) noexcept {
  switch (status) {
    case DecodeStatus::kOk: return "ok";
    case DecodeStatus::kShortHeader: return "short-header";
    case DecodeStatus::kBadMagic: return "bad-magic";
    case DecodeStatus::kBadVersion: return "bad-version";
    case DecodeStatus::kBadType: return "bad-type";
    case DecodeStatus::kOversized: return "oversized";
    case DecodeStatus::kTruncated: return "truncated";
    case DecodeStatus::kTrailingBytes: return "trailing-bytes";
    case DecodeStatus::kBatchTooLarge: return "batch-too-large";
    case DecodeStatus::kPackageOutOfRange: return "package-out-of-range";
    case DecodeStatus::kUnsortedPackages: return "unsorted-packages";
    case DecodeStatus::kStringTooLong: return "string-too-long";
    case DecodeStatus::kBadConstraintOp: return "bad-constraint-op";
    case DecodeStatus::kBadKind: return "bad-kind";
    case DecodeStatus::kBadReason: return "bad-reason";
    case DecodeStatus::kUnexpectedType: return "unexpected-type";
  }
  return "?";
}

/// Decoder result: `value` is meaningful iff status == kOk.
template <typename T>
struct Decoded {
  DecodeStatus status = DecodeStatus::kOk;
  T value{};

  [[nodiscard]] bool ok() const noexcept { return status == DecodeStatus::kOk; }
};

/// The fixed 16-byte frame prelude.
struct FrameHeader {
  std::uint16_t magic = kMagic;
  std::uint8_t version = kProtocolVersion;
  FrameType type = FrameType::kPing;
  std::uint32_t payload_size = 0;
  /// Client-chosen correlation id, echoed verbatim in every response —
  /// pipelined clients match replies to requests with it.
  std::uint64_t request_id = 0;
};

/// One container-specification request. `packages` carries the
/// dependency-closed package-id set (strictly increasing ids into the
/// repository universe); the server does not re-close it. `client_id`
/// identifies the logical submitter (the load generator synthesizes
/// millions of them) and is echoed in the placement.
struct SubmitRequest {
  std::uint64_t client_id = 0;
  std::vector<std::uint32_t> packages;
  std::vector<spec::VersionConstraint> constraints;
};

/// One placement decision — core::JobPlacement, flattened for the wire.
struct PlacementReply {
  std::uint64_t client_id = 0;
  core::RequestKind kind = core::RequestKind::kHit;
  bool degraded = false;
  bool failed = false;
  std::uint32_t build_retries = 0;
  std::uint64_t image = 0;
  util::Bytes image_bytes = 0;
  util::Bytes requested_bytes = 0;
  double prep_seconds = 0.0;
  std::string error;

  [[nodiscard]] bool operator==(const PlacementReply&) const = default;
};

/// Decision-layer counter snapshot (kStatsReply payload).
struct StatsReply {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  std::uint64_t merges = 0;
  std::uint64_t inserts = 0;
  std::uint64_t deletes = 0;
  std::uint64_t splits = 0;
  std::uint64_t conflict_rejections = 0;
  util::Bytes requested_bytes = 0;
  util::Bytes written_bytes = 0;
  std::uint64_t image_count = 0;
  util::Bytes total_bytes = 0;
  util::Bytes unique_bytes = 0;
  double container_efficiency_sum = 0.0;
  double prep_seconds = 0.0;

  [[nodiscard]] bool operator==(const StatsReply&) const = default;
};

/// A fully decoded frame. Which members carry data depends on
/// header.type: submits for kSubmit (one entry) / kBatchSubmit,
/// placements for kPlacement / kBatchPlacement, stats for kStatsReply,
/// reject_reason for kRejected, error_status for kError. kPing / kPong /
/// kStats / kDrained have empty payloads.
struct Frame {
  FrameHeader header;
  std::vector<SubmitRequest> submits;
  std::vector<PlacementReply> placements;
  StatsReply stats;
  RejectReason reject_reason = RejectReason::kQueueFull;
  DecodeStatus error_status = DecodeStatus::kOk;
  /// v2 submit prefix (zero on v1 frames): retry-identity session and
  /// relative deadline budget in milliseconds.
  std::uint64_t session_id = 0;
  std::uint32_t deadline_ms = 0;
};

// ---- Encoding (pure; each returns one complete frame) ----

[[nodiscard]] std::string encode_submit(std::uint64_t request_id,
                                        const SubmitRequest& request);
[[nodiscard]] std::string encode_batch_submit(
    std::uint64_t request_id, std::span<const SubmitRequest> requests);
/// v2 submits: same payload as v1 preceded by the
/// [session_id][deadline_ms] prefix, header version byte = 2.
[[nodiscard]] std::string encode_submit_v2(std::uint64_t request_id,
                                           const SubmitRequest& request,
                                           std::uint64_t session_id,
                                           std::uint32_t deadline_ms);
[[nodiscard]] std::string encode_batch_submit_v2(
    std::uint64_t request_id, std::span<const SubmitRequest> requests,
    std::uint64_t session_id, std::uint32_t deadline_ms);
[[nodiscard]] std::string encode_placement(std::uint64_t request_id,
                                           const PlacementReply& reply);
[[nodiscard]] std::string encode_batch_placement(
    std::uint64_t request_id, std::span<const PlacementReply> replies);
[[nodiscard]] std::string encode_ping(std::uint64_t request_id);
[[nodiscard]] std::string encode_pong(std::uint64_t request_id);
[[nodiscard]] std::string encode_stats_request(std::uint64_t request_id);
[[nodiscard]] std::string encode_stats_reply(std::uint64_t request_id,
                                             const StatsReply& stats);
[[nodiscard]] std::string encode_rejected(std::uint64_t request_id,
                                          RejectReason reason);
[[nodiscard]] std::string encode_drained(std::uint64_t request_id);
[[nodiscard]] std::string encode_error(std::uint64_t request_id,
                                       DecodeStatus status);

// ---- Sized encoding (single-pass, for the zero-copy reply path) ----
//
// Every server-emitted reply type has an exact wire-size function and an
// in-place writer that emits the complete frame (header + payload) into
// a caller-provided buffer of exactly that many bytes, returning one past
// the last byte written. The payload length is known before the first
// byte is laid down, so the header is written once — no intermediate
// payload string, no length patching. All string encoders above, the
// client-sent submits included, size their frame first and write it
// through the same raw writers, so there is one writer family; the
// protocol suite pins the string and in-place forms byte-identical.

/// kPing / kPong / kStats / kDrained: header only.
inline constexpr std::size_t kEmptyFrameWireSize = kHeaderSize;
/// kRejected / kError: header plus one status byte.
inline constexpr std::size_t kStatusFrameWireSize = kHeaderSize + 1;
/// kStatsReply: header plus twelve u64 and two f64 fields.
inline constexpr std::size_t kStatsReplyWireSize = kHeaderSize + 112;

[[nodiscard]] std::size_t placement_wire_size(const PlacementReply& reply);
[[nodiscard]] std::size_t batch_placement_wire_size(
    std::span<const PlacementReply> replies);

char* encode_placement_at(char* out, std::uint64_t request_id,
                          const PlacementReply& reply);
char* encode_batch_placement_at(char* out, std::uint64_t request_id,
                                std::span<const PlacementReply> replies);
char* encode_pong_at(char* out, std::uint64_t request_id);
char* encode_stats_reply_at(char* out, std::uint64_t request_id,
                            const StatsReply& stats);
char* encode_rejected_at(char* out, std::uint64_t request_id,
                         RejectReason reason);
char* encode_drained_at(char* out, std::uint64_t request_id);
char* encode_error_at(char* out, std::uint64_t request_id,
                      DecodeStatus status);

// ---- Decoding (pure; never throws, never over-reads) ----

/// Decodes just the 16-byte prelude: magic, version, type and payload
/// bounds are validated; the payload is not touched. Servers call this
/// first so an oversized length is refused before any payload read.
[[nodiscard]] Decoded<FrameHeader> decode_header(std::string_view bytes);

/// Decodes one complete frame (header + payload). `universe` is the
/// repository package-universe size used to range-check submit package
/// ids; pass 0 to skip the range check (client side, corpus tooling).
[[nodiscard]] Decoded<Frame> decode_frame(std::string_view bytes,
                                          std::size_t universe);

// ---- Server-side submit decoding ----

class IdListMemo;

/// One decoded submit in the form the decision layer takes.
struct SubmitSpec {
  std::uint64_t client_id = 0;
  spec::Specification spec;
};

/// A kSubmit / kBatchSubmit frame decoded for the decision layer: the
/// server's form of Frame, with each id list already a package set.
struct SubmitFrame {
  FrameHeader header;
  std::uint64_t session_id = 0;  ///< v2 prefix; zero on v1 frames
  std::uint32_t deadline_ms = 0;
  std::vector<SubmitSpec> specs;
  /// Specs whose id list the memo resolved / had to check and build.
  std::size_t memo_hits = 0;
  std::size_t memo_misses = 0;
};

/// Decodes a submit frame the way decode_frame does, with the same walk
/// and the same status for every malformed input, but resolves each id
/// list through `memo`: a list whose bytes the memo has validated under
/// `universe` is copied out as its stored set, with no id vector, order
/// or range pass, or bit setting; any other list is checked as
/// decode_frame checks it, built, and stored once the frame decodes.
/// `universe` is the server's repository size; unlike decode_frame, 0
/// does not skip the range check but admits no id at all. Frames of
/// other types draw kUnexpectedType once their header and length check
/// out.
[[nodiscard]] Decoded<SubmitFrame> decode_submit_frame(std::string_view bytes,
                                                       std::size_t universe,
                                                       IdListMemo& memo);

// ---- Bridges to the core types ----

/// Flattens a specification for the wire.
[[nodiscard]] SubmitRequest to_request(const spec::Specification& spec,
                                       std::uint64_t client_id);

/// Rebuilds the specification a decoded submit names. The decoder has
/// already range-checked the ids against `universe`.
[[nodiscard]] spec::Specification to_specification(const SubmitRequest& request,
                                                   std::size_t universe);

/// Flattens a placement for the wire.
[[nodiscard]] PlacementReply to_reply(const core::JobPlacement& placement,
                                      std::uint64_t client_id);

}  // namespace landlord::serve

#include "serve/protocol.hpp"

#include <bit>
#include <cstring>

#include "serve/id_list_memo.hpp"

namespace landlord::serve {
namespace {

// ---- Bounds-checked primitive readers ----
//
// A Cursor walks the payload; every read checks the remaining length and
// latches kTruncated instead of advancing past the end, so decode code
// can read a whole record and test failure once.

// Package-id lists are the bulk of every submit payload, and w_submit
// writes each with one memcpy of the host's u32 array: that is the
// wire's little-endian layout only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "submit id lists are memcpy'd: the wire is little-endian");

/// Little-endian integers assembled from byte shifts; each compiles to a
/// single load on little-endian hosts.
std::uint32_t le32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return std::uint32_t{b[0]} | (std::uint32_t{b[1]} << 8) |
         (std::uint32_t{b[2]} << 16) | (std::uint32_t{b[3]} << 24);
}

std::uint64_t le64(const char* p) {
  return le32(p) | (std::uint64_t{le32(p + 4)} << 32);
}

class Cursor {
 public:
  Cursor() = default;
  explicit Cursor(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] bool failed() const noexcept { return failed_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - pos_;
  }

  std::uint8_t u8() {
    const auto b = take(1);
    if (failed_) return 0;
    return static_cast<std::uint8_t>(b[0]);
  }

  std::uint16_t u16() {
    const auto b = take(2);
    if (failed_) return 0;
    return static_cast<std::uint16_t>(static_cast<std::uint8_t>(b[0]) |
                                      (static_cast<std::uint8_t>(b[1]) << 8));
  }

  std::uint32_t u32() {
    const auto b = take(4);
    return failed_ ? 0 : le32(b.data());
  }

  std::uint64_t u64() {
    const auto b = take(8);
    return failed_ ? 0 : le64(b.data());
  }

  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::string_view raw(std::size_t n) { return take(n); }

 private:
  std::string_view take(std::size_t n) {
    if (failed_ || remaining() < n) {
      failed_ = true;
      return {};
    }
    const std::string_view out(bytes_.data() + pos_, n);
    pos_ += n;
    return out;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

// ---- Raw single-pass writers (the only encoding path) ----
//
// Little-endian byte-shift stores that bump a raw pointer through a
// buffer the caller has already sized exactly. Every frame, client-sent
// or server-sent, is computed to its exact size first and then written
// once through these.

char* w_u8(char* p, std::uint8_t v) {
  *p++ = static_cast<char>(v);
  return p;
}

char* w_u16(char* p, std::uint16_t v) {
  *p++ = static_cast<char>(v & 0xff);
  *p++ = static_cast<char>((v >> 8) & 0xff);
  return p;
}

char* w_u32(char* p, std::uint32_t v) {
  p[0] = static_cast<char>(v & 0xff);
  p[1] = static_cast<char>((v >> 8) & 0xff);
  p[2] = static_cast<char>((v >> 16) & 0xff);
  p[3] = static_cast<char>((v >> 24) & 0xff);
  return p + 4;
}

char* w_u64(char* p, std::uint64_t v) {
  p = w_u32(p, static_cast<std::uint32_t>(v & 0xffffffffu));
  return w_u32(p, static_cast<std::uint32_t>(v >> 32));
}

char* w_f64(char* p, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return w_u64(p, bits);
}

char* w_string(char* p, std::string_view s) {
  p = w_u16(p, static_cast<std::uint16_t>(s.size()));
  std::memcpy(p, s.data(), s.size());
  return p + s.size();
}

char* w_header(char* p, FrameType type, std::uint64_t request_id,
               std::size_t payload_size,
               std::uint8_t version = kProtocolVersion) {
  p = w_u16(p, kMagic);
  p = w_u8(p, version);
  p = w_u8(p, static_cast<std::uint8_t>(type));
  p = w_u32(p, static_cast<std::uint32_t>(payload_size));
  return w_u64(p, request_id);
}

char* w_placement(char* p, const PlacementReply& reply) {
  p = w_u64(p, reply.client_id);
  p = w_u8(p, static_cast<std::uint8_t>(reply.kind));
  p = w_u8(p, static_cast<std::uint8_t>((reply.degraded ? 1u : 0u) |
                                        (reply.failed ? 2u : 0u)));
  p = w_u32(p, reply.build_retries);
  p = w_u64(p, reply.image);
  p = w_u64(p, reply.image_bytes);
  p = w_u64(p, reply.requested_bytes);
  p = w_f64(p, reply.prep_seconds);
  return w_string(p, reply.error);
}

/// Payload bytes of one flattened placement.
std::size_t placement_payload_size(const PlacementReply& reply) {
  return 8 + 1 + 1 + 4 + 8 + 8 + 8 + 8 + 2 + reply.error.size();
}

/// Payload bytes of one flattened submit.
std::size_t submit_payload_size(const SubmitRequest& request) {
  std::size_t size = 8 + 4 + 4 * request.packages.size() + 2;
  for (const auto& constraint : request.constraints) {
    size += 1 + 2 + constraint.package.size() + 2 + constraint.version.size();
  }
  return size;
}

char* w_submit(char* p, const SubmitRequest& request) {
  p = w_u64(p, request.client_id);
  p = w_u32(p, static_cast<std::uint32_t>(request.packages.size()));
  if (!request.packages.empty()) {
    std::memcpy(p, request.packages.data(), 4 * request.packages.size());
    p += 4 * request.packages.size();
  }
  p = w_u16(p, static_cast<std::uint16_t>(request.constraints.size()));
  for (const auto& constraint : request.constraints) {
    p = w_u8(p, static_cast<std::uint8_t>(constraint.op));
    p = w_string(p, constraint.package);
    p = w_string(p, constraint.version);
  }
  return p;
}

/// One complete kSubmit (exactly one request) or kBatchSubmit frame,
/// sized first and written once. Version 2 frames carry the
/// [session_id][deadline_ms] prefix.
std::string encode_submits(FrameType type, std::uint8_t version,
                           std::uint64_t request_id,
                           std::span<const SubmitRequest> requests,
                           std::uint64_t session_id = 0,
                           std::uint32_t deadline_ms = 0) {
  const bool v2 = version == kProtocolVersion2;
  const bool batch = type == FrameType::kBatchSubmit;
  std::size_t payload = (v2 ? kSubmitPrefixV2Bytes : 0) + (batch ? 4 : 0);
  for (const auto& request : requests) payload += submit_payload_size(request);
  std::string out(kHeaderSize + payload, '\0');
  char* p = w_header(out.data(), type, request_id, payload, version);
  if (v2) {
    p = w_u64(p, session_id);
    p = w_u32(p, deadline_ms);
  }
  if (batch) p = w_u32(p, static_cast<std::uint32_t>(requests.size()));
  for (const auto& request : requests) p = w_submit(p, request);
  return out;
}

// ---- The submit parser ----
//
// One submit is three steps, shared by decode_frame and the server's
// decode_submit_frame: the bounds walk that yields the raw id-list bytes
// (read_id_list), the id-list check (check_id_list, which decode_submit_frame
// skips for bytes its memo has already validated) and the constraints
// (read_constraints). The statuses are those of a reader that checks
// one field at a time, in wire order.

/// The client id and the raw id-list bytes (4 per id, unchecked).
DecodeStatus read_id_list(Cursor& cursor, std::size_t universe,
                          std::uint64_t& client_id, std::string_view& ids) {
  client_id = cursor.u64();
  const std::uint32_t package_count = cursor.u32();
  if (cursor.failed()) return DecodeStatus::kTruncated;
  if (universe != 0 && package_count > universe) {
    return DecodeStatus::kPackageOutOfRange;
  }
  // Allocation cap: each package id takes 4 payload bytes, so a count
  // the remaining payload cannot hold is hostile (or truncated) and must
  // be refused *before* any id vector is sized — with universe == 0
  // (client side, corpus tooling) the range check above does not bound
  // it, and a 16-byte header + u32 count could otherwise demand a
  // multi-GB allocation.
  if (package_count > cursor.remaining() / 4) return DecodeStatus::kTruncated;
  ids = cursor.raw(std::size_t{package_count} * 4);
  return cursor.failed() ? DecodeStatus::kTruncated : DecodeStatus::kOk;
}

/// The id-list check: assembles `ids` into `dst` (ids.size() / 4 ids)
/// and requires them strictly increasing and below `universe` (below
/// 2^32 when it is 0).
DecodeStatus check_id_list(std::string_view ids, std::size_t universe,
                           std::uint32_t* dst) {
  // The whole list assembled and order-checked in one branch-free loop
  // that vectorises. (A memcpy followed by a separate order pass measured
  // slower: the short lists pay for the zero-fill, the copy call and a
  // second walk.) A strictly increasing list is in range iff its last id
  // is. Only a malformed list is walked again, to report its first
  // failing id (range before order).
  const std::size_t count = ids.size() / 4;
  std::uint32_t unsorted = 0;
  if (count > 0) dst[0] = le32(ids.data());
  for (std::size_t i = 1; i < count; ++i) {
    const std::uint32_t id = le32(ids.data() + 4 * i);
    unsorted |= id <= le32(ids.data() + 4 * (i - 1)) ? 1u : 0u;
    dst[i] = id;
  }
  const std::uint64_t limit = universe != 0 ? universe : std::uint64_t{1} << 32;
  if (unsorted != 0 || (count > 0 && dst[count - 1] >= limit)) {
    for (std::size_t i = 0;; ++i) {
      if (dst[i] >= limit) return DecodeStatus::kPackageOutOfRange;
      if (i > 0 && dst[i] <= dst[i - 1]) return DecodeStatus::kUnsortedPackages;
    }
  }
  return DecodeStatus::kOk;
}

/// The constraint list; `add(VersionConstraint&&)` takes each one.
template <typename Add>
DecodeStatus read_constraints(Cursor& cursor, Add&& add) {
  const std::uint16_t constraint_count = cursor.u16();
  if (cursor.failed()) return DecodeStatus::kTruncated;
  for (std::uint16_t i = 0; i < constraint_count; ++i) {
    const std::uint8_t op = cursor.u8();
    if (cursor.failed()) return DecodeStatus::kTruncated;
    if (op > static_cast<std::uint8_t>(spec::ConstraintOp::kGe)) {
      return DecodeStatus::kBadConstraintOp;
    }
    spec::VersionConstraint constraint;
    constraint.op = static_cast<spec::ConstraintOp>(op);
    for (std::string* field : {&constraint.package, &constraint.version}) {
      const std::uint16_t length = cursor.u16();
      if (cursor.failed()) return DecodeStatus::kTruncated;
      if (length > kMaxStringBytes) return DecodeStatus::kStringTooLong;
      const auto bytes = cursor.raw(length);
      if (cursor.failed()) return DecodeStatus::kTruncated;
      field->assign(bytes);
    }
    add(std::move(constraint));
  }
  return DecodeStatus::kOk;
}

DecodeStatus read_submit(Cursor& cursor, std::size_t universe,
                         SubmitRequest& out) {
  std::string_view ids;
  DecodeStatus status = read_id_list(cursor, universe, out.client_id, ids);
  if (status != DecodeStatus::kOk) return status;
  out.packages.resize(ids.size() / 4);
  status = check_id_list(ids, universe, out.packages.data());
  if (status != DecodeStatus::kOk) return status;
  out.constraints.clear();
  return read_constraints(cursor, [&out](spec::VersionConstraint&& constraint) {
    out.constraints.push_back(std::move(constraint));
  });
}

/// Specs in a submit payload: one for kSubmit, the u32 count of a
/// kBatchSubmit.
DecodeStatus read_submit_count(Cursor& cursor, FrameType type,
                               std::uint32_t& count) {
  count = 1;
  if (type != FrameType::kBatchSubmit) return DecodeStatus::kOk;
  count = cursor.u32();
  if (cursor.failed()) return DecodeStatus::kTruncated;
  return count > kMaxBatch ? DecodeStatus::kBatchTooLarge : DecodeStatus::kOk;
}

/// What every frame passes before its typed payload: the header, the
/// payload length against the buffer, and the v2 submit prefix. Fills
/// `out`'s header / session_id / deadline_ms and, on kOk, leaves
/// `cursor` at the typed payload.
template <typename Out>
DecodeStatus open_frame(std::string_view bytes, Out& out, Cursor& cursor) {
  const auto header = decode_header(bytes);
  if (!header.ok()) return header.status;
  out.header = header.value;
  const std::string_view payload = bytes.substr(kHeaderSize);
  if (payload.size() < header.value.payload_size) return DecodeStatus::kTruncated;
  if (payload.size() > header.value.payload_size) {
    return DecodeStatus::kTrailingBytes;
  }
  cursor = Cursor(payload);
  // v2 extends the two submit payloads with a fixed prefix; every other
  // frame type is version-invariant.
  if (header.value.version == kProtocolVersion2 &&
      (header.value.type == FrameType::kSubmit ||
       header.value.type == FrameType::kBatchSubmit)) {
    out.session_id = cursor.u64();
    out.deadline_ms = cursor.u32();
    if (cursor.failed()) return DecodeStatus::kTruncated;
  }
  return DecodeStatus::kOk;
}

DecodeStatus read_placement(Cursor& cursor, PlacementReply& out) {
  out.client_id = cursor.u64();
  const std::uint8_t kind = cursor.u8();
  const std::uint8_t flags = cursor.u8();
  out.build_retries = cursor.u32();
  out.image = cursor.u64();
  out.image_bytes = cursor.u64();
  out.requested_bytes = cursor.u64();
  out.prep_seconds = cursor.f64();
  const std::uint16_t error_length = cursor.u16();
  if (cursor.failed()) return DecodeStatus::kTruncated;
  if (kind > static_cast<std::uint8_t>(core::RequestKind::kInsert)) {
    return DecodeStatus::kBadKind;
  }
  if (error_length > kMaxStringBytes) return DecodeStatus::kStringTooLong;
  const auto bytes = cursor.raw(error_length);
  if (cursor.failed()) return DecodeStatus::kTruncated;
  out.kind = static_cast<core::RequestKind>(kind);
  out.degraded = (flags & 1u) != 0;
  out.failed = (flags & 2u) != 0;
  out.error.assign(bytes);
  return DecodeStatus::kOk;
}

}  // namespace

std::string encode_submit(std::uint64_t request_id, const SubmitRequest& request) {
  return encode_submits(FrameType::kSubmit, kProtocolVersion, request_id,
                        {&request, 1});
}

std::string encode_batch_submit(std::uint64_t request_id,
                                std::span<const SubmitRequest> requests) {
  return encode_submits(FrameType::kBatchSubmit, kProtocolVersion, request_id,
                        requests);
}

std::string encode_submit_v2(std::uint64_t request_id,
                             const SubmitRequest& request,
                             std::uint64_t session_id,
                             std::uint32_t deadline_ms) {
  return encode_submits(FrameType::kSubmit, kProtocolVersion2, request_id,
                        {&request, 1}, session_id, deadline_ms);
}

std::string encode_batch_submit_v2(std::uint64_t request_id,
                                   std::span<const SubmitRequest> requests,
                                   std::uint64_t session_id,
                                   std::uint32_t deadline_ms) {
  return encode_submits(FrameType::kBatchSubmit, kProtocolVersion2, request_id,
                        requests, session_id, deadline_ms);
}

std::string encode_placement(std::uint64_t request_id, const PlacementReply& reply) {
  std::string out(placement_wire_size(reply), '\0');
  encode_placement_at(out.data(), request_id, reply);
  return out;
}

std::string encode_batch_placement(std::uint64_t request_id,
                                   std::span<const PlacementReply> replies) {
  std::string out(batch_placement_wire_size(replies), '\0');
  encode_batch_placement_at(out.data(), request_id, replies);
  return out;
}

std::string encode_ping(std::uint64_t request_id) {
  std::string out(kEmptyFrameWireSize, '\0');
  w_header(out.data(), FrameType::kPing, request_id, 0);
  return out;
}

std::string encode_pong(std::uint64_t request_id) {
  std::string out(kEmptyFrameWireSize, '\0');
  encode_pong_at(out.data(), request_id);
  return out;
}

std::string encode_stats_request(std::uint64_t request_id) {
  std::string out(kEmptyFrameWireSize, '\0');
  w_header(out.data(), FrameType::kStats, request_id, 0);
  return out;
}

std::string encode_stats_reply(std::uint64_t request_id, const StatsReply& stats) {
  std::string out(kStatsReplyWireSize, '\0');
  encode_stats_reply_at(out.data(), request_id, stats);
  return out;
}

std::string encode_rejected(std::uint64_t request_id, RejectReason reason) {
  std::string out(kStatusFrameWireSize, '\0');
  encode_rejected_at(out.data(), request_id, reason);
  return out;
}

std::string encode_drained(std::uint64_t request_id) {
  std::string out(kEmptyFrameWireSize, '\0');
  encode_drained_at(out.data(), request_id);
  return out;
}

std::string encode_error(std::uint64_t request_id, DecodeStatus status) {
  std::string out(kStatusFrameWireSize, '\0');
  encode_error_at(out.data(), request_id, status);
  return out;
}

std::size_t placement_wire_size(const PlacementReply& reply) {
  return kHeaderSize + placement_payload_size(reply);
}

std::size_t batch_placement_wire_size(std::span<const PlacementReply> replies) {
  std::size_t payload = 4;  // u32 count
  for (const auto& reply : replies) payload += placement_payload_size(reply);
  return kHeaderSize + payload;
}

char* encode_placement_at(char* out, std::uint64_t request_id,
                          const PlacementReply& reply) {
  out = w_header(out, FrameType::kPlacement, request_id,
                 placement_payload_size(reply));
  return w_placement(out, reply);
}

char* encode_batch_placement_at(char* out, std::uint64_t request_id,
                                std::span<const PlacementReply> replies) {
  std::size_t payload = 4;
  for (const auto& reply : replies) payload += placement_payload_size(reply);
  out = w_header(out, FrameType::kBatchPlacement, request_id, payload);
  out = w_u32(out, static_cast<std::uint32_t>(replies.size()));
  for (const auto& reply : replies) out = w_placement(out, reply);
  return out;
}

char* encode_pong_at(char* out, std::uint64_t request_id) {
  return w_header(out, FrameType::kPong, request_id, 0);
}

char* encode_stats_reply_at(char* out, std::uint64_t request_id,
                            const StatsReply& stats) {
  out = w_header(out, FrameType::kStatsReply, request_id,
                 kStatsReplyWireSize - kHeaderSize);
  out = w_u64(out, stats.requests);
  out = w_u64(out, stats.hits);
  out = w_u64(out, stats.merges);
  out = w_u64(out, stats.inserts);
  out = w_u64(out, stats.deletes);
  out = w_u64(out, stats.splits);
  out = w_u64(out, stats.conflict_rejections);
  out = w_u64(out, stats.requested_bytes);
  out = w_u64(out, stats.written_bytes);
  out = w_u64(out, stats.image_count);
  out = w_u64(out, stats.total_bytes);
  out = w_u64(out, stats.unique_bytes);
  out = w_f64(out, stats.container_efficiency_sum);
  return w_f64(out, stats.prep_seconds);
}

char* encode_rejected_at(char* out, std::uint64_t request_id,
                         RejectReason reason) {
  out = w_header(out, FrameType::kRejected, request_id, 1);
  return w_u8(out, static_cast<std::uint8_t>(reason));
}

char* encode_drained_at(char* out, std::uint64_t request_id) {
  return w_header(out, FrameType::kDrained, request_id, 0);
}

char* encode_error_at(char* out, std::uint64_t request_id,
                      DecodeStatus status) {
  out = w_header(out, FrameType::kError, request_id, 1);
  return w_u8(out, static_cast<std::uint8_t>(status));
}

Decoded<FrameHeader> decode_header(std::string_view bytes) {
  Decoded<FrameHeader> out;
  if (bytes.size() < kHeaderSize) {
    out.status = DecodeStatus::kShortHeader;
    return out;
  }
  Cursor cursor(bytes.substr(0, kHeaderSize));
  out.value.magic = cursor.u16();
  out.value.version = cursor.u8();
  const std::uint8_t type = cursor.u8();
  out.value.payload_size = cursor.u32();
  out.value.request_id = cursor.u64();
  if (out.value.magic != kMagic) {
    out.status = DecodeStatus::kBadMagic;
  } else if (out.value.version != kProtocolVersion &&
             out.value.version != kProtocolVersion2) {
    out.status = DecodeStatus::kBadVersion;
  } else if (type < static_cast<std::uint8_t>(FrameType::kSubmit) ||
             type > static_cast<std::uint8_t>(FrameType::kError)) {
    out.status = DecodeStatus::kBadType;
  } else if (out.value.payload_size > kMaxPayloadBytes) {
    out.status = DecodeStatus::kOversized;
  } else {
    out.value.type = static_cast<FrameType>(type);
  }
  return out;
}

Decoded<Frame> decode_frame(std::string_view bytes, std::size_t universe) {
  Decoded<Frame> out;
  const auto fail = [&](DecodeStatus status) {
    out.status = status;
    return out;
  };
  Cursor cursor;
  if (const DecodeStatus status = open_frame(bytes, out.value, cursor);
      status != DecodeStatus::kOk) {
    return fail(status);
  }
  const FrameType type = out.value.header.type;
  switch (type) {
    case FrameType::kSubmit:
    case FrameType::kBatchSubmit: {
      std::uint32_t count = 0;
      DecodeStatus status = read_submit_count(cursor, type, count);
      if (status != DecodeStatus::kOk) return fail(status);
      out.value.submits.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        SubmitRequest request;
        status = read_submit(cursor, universe, request);
        if (status != DecodeStatus::kOk) return fail(status);
        out.value.submits.push_back(std::move(request));
      }
      break;
    }
    case FrameType::kPlacement: {
      PlacementReply reply;
      const auto status = read_placement(cursor, reply);
      if (status != DecodeStatus::kOk) return fail(status);
      out.value.placements.push_back(std::move(reply));
      break;
    }
    case FrameType::kBatchPlacement: {
      const std::uint32_t count = cursor.u32();
      if (cursor.failed()) return fail(DecodeStatus::kTruncated);
      if (count > kMaxBatch) return fail(DecodeStatus::kBatchTooLarge);
      out.value.placements.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        PlacementReply reply;
        const auto status = read_placement(cursor, reply);
        if (status != DecodeStatus::kOk) return fail(status);
        out.value.placements.push_back(std::move(reply));
      }
      break;
    }
    case FrameType::kStatsReply: {
      StatsReply& stats = out.value.stats;
      stats.requests = cursor.u64();
      stats.hits = cursor.u64();
      stats.merges = cursor.u64();
      stats.inserts = cursor.u64();
      stats.deletes = cursor.u64();
      stats.splits = cursor.u64();
      stats.conflict_rejections = cursor.u64();
      stats.requested_bytes = cursor.u64();
      stats.written_bytes = cursor.u64();
      stats.image_count = cursor.u64();
      stats.total_bytes = cursor.u64();
      stats.unique_bytes = cursor.u64();
      stats.container_efficiency_sum = cursor.f64();
      stats.prep_seconds = cursor.f64();
      if (cursor.failed()) return fail(DecodeStatus::kTruncated);
      break;
    }
    case FrameType::kRejected: {
      const std::uint8_t reason = cursor.u8();
      if (cursor.failed()) return fail(DecodeStatus::kTruncated);
      if (reason < static_cast<std::uint8_t>(RejectReason::kQueueFull) ||
          reason > static_cast<std::uint8_t>(RejectReason::kDraining)) {
        return fail(DecodeStatus::kBadReason);
      }
      out.value.reject_reason = static_cast<RejectReason>(reason);
      break;
    }
    case FrameType::kError: {
      const std::uint8_t status = cursor.u8();
      if (cursor.failed()) return fail(DecodeStatus::kTruncated);
      if (status > static_cast<std::uint8_t>(DecodeStatus::kUnexpectedType)) {
        return fail(DecodeStatus::kBadReason);
      }
      out.value.error_status = static_cast<DecodeStatus>(status);
      break;
    }
    case FrameType::kPing:
    case FrameType::kPong:
    case FrameType::kStats:
    case FrameType::kDrained:
      break;  // empty payloads; trailing bytes already rejected above
  }
  if (cursor.remaining() != 0) return fail(DecodeStatus::kTrailingBytes);
  return out;
}

Decoded<SubmitFrame> decode_submit_frame(std::string_view bytes,
                                         std::size_t universe,
                                         IdListMemo& memo) {
  Decoded<SubmitFrame> out;
  const auto fail = [&](DecodeStatus status) {
    out.status = status;
    return out;
  };
  SubmitFrame& frame = out.value;
  Cursor cursor;
  if (const DecodeStatus status = open_frame(bytes, frame, cursor);
      status != DecodeStatus::kOk) {
    return fail(status);
  }
  const FrameType type = frame.header.type;
  if (type != FrameType::kSubmit && type != FrameType::kBatchSubmit) {
    return fail(DecodeStatus::kUnexpectedType);
  }
  std::uint32_t count = 0;
  DecodeStatus status = read_submit_count(cursor, type, count);
  if (status != DecodeStatus::kOk) return fail(status);
  // Reserved up front, so the set pointers a miss records stay valid.
  frame.specs.reserve(count);
  std::vector<IdListMemo::Insert> misses;
  std::vector<std::uint32_t> scratch;
  {
    const IdListMemo::Reader reader(memo, universe);
    for (std::uint32_t i = 0; i < count; ++i) {
      SubmitSpec& submit = frame.specs.emplace_back();
      std::string_view ids;
      status = read_id_list(cursor, universe, submit.client_id, ids);
      if (status != DecodeStatus::kOk) return fail(status);
      // The set is built over `universe` bits, so no id may pass
      // unchecked: an empty universe holds none (decode_frame reads 0 as
      // "skip the range check").
      if (universe == 0 && !ids.empty()) {
        return fail(DecodeStatus::kPackageOutOfRange);
      }
      const std::uint64_t hash = memo.hash(ids);
      if (const spec::PackageSet* set = reader.find(ids, hash)) {
        submit.spec = spec::Specification(*set, "wire");
        ++frame.memo_hits;
      } else {
        scratch.resize(ids.size() / 4);
        status = check_id_list(ids, universe, scratch.data());
        if (status != DecodeStatus::kOk) return fail(status);
        util::DynamicBitset bits(universe);
        bits.set_all(std::span<const std::uint32_t>(scratch));
        submit.spec = spec::Specification(spec::PackageSet(std::move(bits)), "wire");
        misses.push_back({ids, hash, &submit.spec.packages()});
        ++frame.memo_misses;
      }
      status = read_constraints(cursor, [&submit](spec::VersionConstraint&& c) {
        submit.spec.add_constraint(std::move(c));
      });
      if (status != DecodeStatus::kOk) return fail(status);
    }
  }
  if (cursor.remaining() != 0) return fail(DecodeStatus::kTrailingBytes);
  // More misses than the memo holds would only clear it on the way and
  // keep the tail, so such a frame stores none and leaves the table be.
  if (!misses.empty() && misses.size() <= kIdListMemoCapacity) {
    memo.insert(universe, misses);
  }
  return out;
}

SubmitRequest to_request(const spec::Specification& spec, std::uint64_t client_id) {
  SubmitRequest request;
  request.client_id = client_id;
  request.packages.reserve(spec.size());
  spec.packages().bits().for_each_set([&request](std::size_t i) {
    request.packages.push_back(static_cast<std::uint32_t>(i));
  });
  request.constraints = spec.constraints();
  return request;
}

spec::Specification to_specification(const SubmitRequest& request,
                                     std::size_t universe) {
  util::DynamicBitset bits(universe);
  bits.set_all(std::span<const std::uint32_t>(request.packages));
  spec::Specification spec(spec::PackageSet(std::move(bits)), "wire");
  for (const auto& constraint : request.constraints) {
    spec.add_constraint(constraint);
  }
  return spec;
}

PlacementReply to_reply(const core::JobPlacement& placement,
                        std::uint64_t client_id) {
  PlacementReply reply;
  reply.client_id = client_id;
  reply.kind = placement.kind;
  reply.degraded = placement.degraded;
  reply.failed = placement.failed;
  reply.build_retries = placement.build_retries;
  reply.image = core::to_value(placement.image);
  reply.image_bytes = placement.image_bytes;
  reply.requested_bytes = placement.requested_bytes;
  reply.prep_seconds = placement.prep_seconds;
  reply.error = placement.error;
  return reply;
}

}  // namespace landlord::serve

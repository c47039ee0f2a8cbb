#include "core/wire.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/check.h"
#include "obs/json.h"

namespace spine::core::wire {

namespace {

// All integers travel little-endian, byte-assembled so the encoding is
// identical on any host.
void PutU8(uint8_t v, std::string* out) {
  out->push_back(static_cast<char>(v));
}
void PutU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}
void PutU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

// Bounds-checked cursor over one frame payload. Every getter fails
// cleanly (sets bad) instead of reading past the end, and counts are
// validated against the bytes actually remaining before any allocation
// — the same discipline as serde::MapReader.
class Cursor {
 public:
  explicit Cursor(std::string_view data) : data_(data) {}

  bool bad() const { return bad_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return !bad_ && pos_ == data_.size(); }

  uint8_t U8() {
    if (remaining() < 1) return Fail();
    return static_cast<uint8_t>(data_[pos_++]);
  }
  uint32_t U32() {
    if (remaining() < 4) return static_cast<uint32_t>(Fail());
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  uint64_t U64() {
    if (remaining() < 8) return Fail();
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }
  // Length-prefixed byte string; the count is checked against the
  // remaining payload before anything is copied.
  std::string Bytes() {
    uint32_t n = U32();
    if (bad_ || n > remaining()) {
      Fail();
      return {};
    }
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
  }

 private:
  uint64_t Fail() {
    bad_ = true;
    return 0;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool bad_ = false;
};

Status ProtocolError(std::string what) {
  return Status::ProtocolError(std::move(what));
}

// Frame scaffolding: every Append* builds payload bytes then wraps them
// as  u32 length | u8 version | u8 type | payload.
//
// The cap is an invariant, not an input check: every public encoder
// bounds its payload (AppendResponseFrame degrades oversized results,
// request senders validate the pattern first), so a violation here is a
// bug in an encoder — and without the check it would emit a frame the
// peer's ExtractFrame can never accept (or, past 4 GiB, a silently
// truncated length).
void AppendFrame(FrameType type, std::string_view payload,
                 std::string* out) {
  SPINE_CHECK_MSG(payload.size() + 2 <= kMaxFramePayload,
                  "frame payload exceeds kMaxFramePayload");
  PutU32(static_cast<uint32_t>(payload.size() + 2), out);
  PutU8(kWireVersion, out);
  PutU8(static_cast<uint8_t>(type), out);
  out->append(payload);
}

bool ValidStatusCode(uint8_t code) {
  return code <= static_cast<uint8_t>(StatusCode::kCancelled);
}

bool ValidQueryKind(uint8_t kind) {
  return kind <= static_cast<uint8_t>(QueryKind::kEditDistance);
}

bool ValidMutateOp(uint8_t op) {
  return op >= static_cast<uint8_t>(MutateOp::kInsert) &&
         op <= static_cast<uint8_t>(MutateOp::kReload);
}

std::optional<MutateOp> MutateOpFromName(std::string_view name) {
  for (uint8_t op = static_cast<uint8_t>(MutateOp::kInsert);
       op <= static_cast<uint8_t>(MutateOp::kReload); ++op) {
    if (MutateOpName(static_cast<MutateOp>(op)) == name) {
      return static_cast<MutateOp>(op);
    }
  }
  return std::nullopt;
}

std::optional<StatusCode> StatusCodeFromName(std::string_view name) {
  for (uint8_t c = 0; c <= static_cast<uint8_t>(StatusCode::kCancelled);
       ++c) {
    if (StatusCodeToString(static_cast<StatusCode>(c)) == name) {
      return static_cast<StatusCode>(c);
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<QueryKind> KindFromName(std::string_view name) {
  for (uint8_t k = 0; k <= static_cast<uint8_t>(QueryKind::kEditDistance);
       ++k) {
    if (QueryKindName(static_cast<QueryKind>(k)) == name) {
      return static_cast<QueryKind>(k);
    }
  }
  return std::nullopt;
}

std::string_view MutateOpName(MutateOp op) {
  switch (op) {
    case MutateOp::kInsert: return "insert";
    case MutateOp::kDelete: return "delete";
    case MutateOp::kCompact: return "compact";
    case MutateOp::kReload: return "reload";
  }
  return "unknown";
}

void AppendRequestFrame(const QueryRequest& request, std::string* out) {
  std::string payload;
  PutU64(request.id, &payload);
  PutU8(static_cast<uint8_t>(request.query.kind), &payload);
  PutU32(request.query.min_len, &payload);
  PutU8(request.query.expand_occurrences ? 1 : 0, &payload);
  PutU32(static_cast<uint32_t>(request.query.pattern.size()), &payload);
  payload.append(request.query.pattern);
  // deadline_ms and max_errors trail the pattern so decoders from
  // before either field existed stay byte-compatible: DecodeRequest
  // accepts a payload ending at the pattern (neither field), after a
  // u32 deadline (pre-approx), or after deadline + u32 max_errors —
  // all under the same version byte.
  PutU32(request.query.deadline_ms, &payload);
  PutU32(request.query.max_errors, &payload);
  AppendFrame(FrameType::kQuery, payload, out);
}

void AppendResponseFrame(const QueryResponse& response, std::string* out) {
  const QueryResult& r = response.result;
  // Exact payload size: id(8) status(1) found(1) error(4+n) hits(4+12n)
  // matching_stats(4+4n) work counters(24). A findall with millions of
  // hits or matching stats over a near-cap pattern can exceed the frame
  // cap; such a frame would be rejected by the peer's ExtractFrame
  // before delivery, so degrade to a small, deliverable
  // kResourceExhausted verdict instead of an un-receivable answer.
  const uint64_t payload_size =
      8 + 1 + 1 + (4 + r.error.size()) +
      (4 + static_cast<uint64_t>(r.hits.size()) * 12) +
      (4 + static_cast<uint64_t>(r.matching_stats.size()) * 4) + 24;
  if (payload_size + 2 > kMaxFramePayload) {
    QueryResponse degraded;
    degraded.id = response.id;
    degraded.result.status_code = StatusCode::kResourceExhausted;
    degraded.result.found = r.found;
    degraded.result.stats = r.stats;
    degraded.result.error =
        "response too large for one frame (" +
        std::to_string(r.hits.size()) + " hit(s), " +
        std::to_string(r.matching_stats.size()) +
        " matching stat(s)); narrow the query";
    AppendResponseFrame(degraded, out);
    return;
  }
  std::string payload;
  PutU64(response.id, &payload);
  PutU8(static_cast<uint8_t>(r.status_code), &payload);
  PutU8(r.found ? 1 : 0, &payload);
  PutU32(static_cast<uint32_t>(r.error.size()), &payload);
  payload.append(r.error);
  PutU32(static_cast<uint32_t>(r.hits.size()), &payload);
  for (const Hit& hit : r.hits) {
    PutU32(hit.pos, &payload);
    PutU32(hit.length, &payload);
    PutU32(hit.query_pos, &payload);
  }
  PutU32(static_cast<uint32_t>(r.matching_stats.size()), &payload);
  for (uint32_t v : r.matching_stats) PutU32(v, &payload);
  PutU64(r.stats.nodes_checked, &payload);
  PutU64(r.stats.link_traversals, &payload);
  PutU64(r.stats.chain_hops, &payload);
  AppendFrame(FrameType::kResponse, payload, out);
}

void AppendStatsRequestFrame(std::string* out) {
  AppendFrame(FrameType::kStats, {}, out);
}

void AppendStatsResponseFrame(std::string_view stats_json,
                              std::string* out) {
  AppendFrame(FrameType::kStatsResponse, stats_json, out);
}

void AppendMutateFrame(const MutateRequest& request, std::string* out) {
  std::string payload;
  PutU64(request.id, &payload);
  PutU8(static_cast<uint8_t>(request.op), &payload);
  PutU32(request.doc_id, &payload);
  PutU32(static_cast<uint32_t>(request.document.size()), &payload);
  payload.append(request.document);
  AppendFrame(FrameType::kMutate, payload, out);
}

void AppendMutateResponseFrame(const MutateResponse& response,
                               std::string* out) {
  std::string payload;
  PutU64(response.id, &payload);
  PutU8(static_cast<uint8_t>(response.op), &payload);
  PutU32(response.doc_id, &payload);
  PutU8(static_cast<uint8_t>(response.status), &payload);
  PutU32(static_cast<uint32_t>(response.error.size()), &payload);
  payload.append(response.error);
  PutU64(response.generation, &payload);
  AppendFrame(FrameType::kMutateResponse, payload, out);
}

void AppendErrorFrame(const WireError& error, std::string* out) {
  std::string payload;
  PutU64(error.id, &payload);
  PutU8(static_cast<uint8_t>(error.code), &payload);
  PutU32(static_cast<uint32_t>(error.message.size()), &payload);
  payload.append(error.message);
  AppendFrame(FrameType::kError, payload, out);
}

Status ExtractFrame(std::string_view buffer, Frame* frame,
                    size_t* consumed) {
  *consumed = 0;
  if (buffer.size() < 4) return Status::OK();  // need the length prefix
  uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<uint32_t>(static_cast<uint8_t>(buffer[i]))
              << (8 * i);
  }
  if (length < 2) return ProtocolError("frame shorter than its header");
  if (length > kMaxFramePayload) {
    return ProtocolError("frame length " + std::to_string(length) +
                         " exceeds the " +
                         std::to_string(kMaxFramePayload) + "-byte cap");
  }
  if (buffer.size() < 4 + static_cast<size_t>(length)) {
    return Status::OK();  // partial frame: read more
  }
  const uint8_t version = static_cast<uint8_t>(buffer[4]);
  const uint8_t type = static_cast<uint8_t>(buffer[5]);
  if (version != kWireVersion) {
    return ProtocolError("unsupported wire version " +
                         std::to_string(version) + " (this side speaks " +
                         std::to_string(kWireVersion) + ")");
  }
  if (type < static_cast<uint8_t>(FrameType::kQuery) ||
      type > static_cast<uint8_t>(FrameType::kMutateResponse)) {
    return ProtocolError("unknown frame type " + std::to_string(type));
  }
  frame->version = version;
  frame->type = static_cast<FrameType>(type);
  frame->payload = buffer.substr(6, length - 2);
  *consumed = 4 + static_cast<size_t>(length);
  return Status::OK();
}

Result<QueryRequest> DecodeRequest(std::string_view payload) {
  Cursor cursor(payload);
  QueryRequest request;
  request.id = cursor.U64();
  const uint8_t kind = cursor.U8();
  request.query.min_len = cursor.U32();
  request.query.expand_occurrences = cursor.U8() != 0;
  request.query.pattern = cursor.Bytes();
  // Version-tolerant tail: a payload ending at the pattern predates
  // deadlines (deadline_ms = 0); exactly four more bytes are the u32
  // deadline (pre-approx); exactly eight are deadline + u32 max_errors.
  // Anything else is garbage, not a future extension — extensions bump
  // kWireVersion.
  if (!cursor.bad() &&
      (cursor.remaining() == 4 || cursor.remaining() == 8)) {
    const bool has_errors = cursor.remaining() == 8;
    request.query.deadline_ms = cursor.U32();
    if (has_errors) request.query.max_errors = cursor.U32();
  }
  if (cursor.bad() || !cursor.AtEnd()) {
    return ProtocolError("malformed query request payload");
  }
  if (!ValidQueryKind(kind)) {
    return ProtocolError("unknown query kind " + std::to_string(kind));
  }
  request.query.kind = static_cast<QueryKind>(kind);
  return request;
}

Result<QueryResponse> DecodeResponse(std::string_view payload) {
  Cursor cursor(payload);
  QueryResponse response;
  response.id = cursor.U64();
  const uint8_t code = cursor.U8();
  response.result.found = cursor.U8() != 0;
  response.result.error = cursor.Bytes();
  const uint32_t hit_count = cursor.U32();
  if (cursor.bad() ||
      static_cast<uint64_t>(hit_count) * 12 > cursor.remaining()) {
    return ProtocolError("malformed query response payload");
  }
  response.result.hits.reserve(hit_count);
  for (uint32_t i = 0; i < hit_count; ++i) {
    Hit hit;
    hit.pos = cursor.U32();
    hit.length = cursor.U32();
    hit.query_pos = cursor.U32();
    response.result.hits.push_back(hit);
  }
  const uint32_t ms_count = cursor.U32();
  if (cursor.bad() ||
      static_cast<uint64_t>(ms_count) * 4 > cursor.remaining()) {
    return ProtocolError("malformed query response payload");
  }
  response.result.matching_stats.reserve(ms_count);
  for (uint32_t i = 0; i < ms_count; ++i) {
    response.result.matching_stats.push_back(cursor.U32());
  }
  response.result.stats.nodes_checked = cursor.U64();
  response.result.stats.link_traversals = cursor.U64();
  response.result.stats.chain_hops = cursor.U64();
  if (cursor.bad() || !cursor.AtEnd()) {
    return ProtocolError("malformed query response payload");
  }
  if (!ValidStatusCode(code)) {
    return ProtocolError("unknown status code " + std::to_string(code));
  }
  response.result.status_code = static_cast<StatusCode>(code);
  return response;
}

Result<std::string> DecodeStatsResponse(std::string_view payload) {
  return std::string(payload);
}

Result<MutateRequest> DecodeMutate(std::string_view payload) {
  Cursor cursor(payload);
  MutateRequest request;
  request.id = cursor.U64();
  const uint8_t op = cursor.U8();
  request.doc_id = cursor.U32();
  request.document = cursor.Bytes();
  if (cursor.bad() || !cursor.AtEnd()) {
    return ProtocolError("malformed mutate request payload");
  }
  if (!ValidMutateOp(op)) {
    return ProtocolError("unknown mutate op " + std::to_string(op));
  }
  request.op = static_cast<MutateOp>(op);
  return request;
}

Result<MutateResponse> DecodeMutateResponse(std::string_view payload) {
  Cursor cursor(payload);
  MutateResponse response;
  response.id = cursor.U64();
  const uint8_t op = cursor.U8();
  response.doc_id = cursor.U32();
  const uint8_t code = cursor.U8();
  response.error = cursor.Bytes();
  response.generation = cursor.U64();
  if (cursor.bad() || !cursor.AtEnd()) {
    return ProtocolError("malformed mutate response payload");
  }
  if (!ValidMutateOp(op)) {
    return ProtocolError("unknown mutate op " + std::to_string(op));
  }
  if (!ValidStatusCode(code)) {
    return ProtocolError("unknown status code " + std::to_string(code));
  }
  response.op = static_cast<MutateOp>(op);
  response.status = static_cast<StatusCode>(code);
  return response;
}

Result<WireError> DecodeError(std::string_view payload) {
  Cursor cursor(payload);
  WireError error;
  error.id = cursor.U64();
  const uint8_t code = cursor.U8();
  error.message = cursor.Bytes();
  if (cursor.bad() || !cursor.AtEnd() || !ValidStatusCode(code)) {
    return ProtocolError("malformed error payload");
  }
  error.code = static_cast<StatusCode>(code);
  return error;
}

// --- JSON lines ------------------------------------------------------------

std::string RequestToJson(const QueryRequest& request) {
  obs::JsonWriter json;
  json.BeginObject();
  json.Key("v");
  json.Value(static_cast<uint64_t>(kWireVersion));
  json.Key("type");
  json.Value("query");
  json.Key("id");
  json.Value(request.id);
  json.Key("kind");
  json.Value(QueryKindName(request.query.kind));
  json.Key("pattern");
  json.Value(request.query.pattern);
  json.Key("min_len");
  json.Value(request.query.min_len);
  json.Key("expand");
  json.Value(request.query.expand_occurrences);
  if (request.query.deadline_ms > 0) {
    json.Key("deadline_ms");
    json.Value(request.query.deadline_ms);
  }
  if (request.query.max_errors > 0) {
    json.Key("max_errors");
    json.Value(request.query.max_errors);
  }
  json.EndObject();
  return std::move(json).Finish();
}

std::string ResponseToJson(const QueryResponse& response) {
  const QueryResult& r = response.result;
  obs::JsonWriter json;
  json.BeginObject();
  json.Key("v");
  json.Value(static_cast<uint64_t>(kWireVersion));
  json.Key("type");
  json.Value("response");
  json.Key("id");
  json.Value(response.id);
  json.Key("status");
  json.Value(StatusCodeToString(r.status_code));
  if (!r.ok()) {
    json.Key("error");
    json.Value(r.error);
  }
  json.Key("found");
  json.Value(r.found);
  json.Key("hits");
  json.BeginArray();
  for (const Hit& hit : r.hits) {
    json.BeginObject();
    json.Key("pos");
    json.Value(hit.pos);
    json.Key("len");
    json.Value(hit.length);
    json.Key("qpos");
    json.Value(hit.query_pos);
    json.EndObject();
  }
  json.EndArray();
  if (!r.matching_stats.empty()) {
    json.Key("ms");
    json.BeginArray();
    for (uint32_t v : r.matching_stats) json.Value(v);
    json.EndArray();
  }
  json.Key("nodes_checked");
  json.Value(r.stats.nodes_checked);
  json.EndObject();
  return std::move(json).Finish();
}

namespace {

// Shared preamble of both JSON parsers: strict parse, object check,
// version check. Returns nullptr plus an error status on failure.
Result<obs::JsonValue> ParseEnvelopeJson(std::string_view line,
                                         std::string_view expect_type) {
  Result<obs::JsonValue> doc = obs::ParseJson(line);
  if (!doc.ok()) {
    return ProtocolError("bad JSON line: " + doc.status().message());
  }
  if (!doc->is_object()) return ProtocolError("JSON line is not an object");
  const obs::JsonValue* v = doc->Find("v");
  if (v == nullptr || !v->is_number() ||
      v->number != static_cast<double>(kWireVersion)) {
    return ProtocolError("missing or unsupported JSON envelope version");
  }
  const obs::JsonValue* type = doc->Find("type");
  if (type == nullptr || !type->is_string() ||
      type->string_value != expect_type) {
    return ProtocolError("JSON envelope type is not '" +
                         std::string(expect_type) + "'");
  }
  return doc;
}

}  // namespace

Result<QueryRequest> ParseRequestJson(std::string_view line) {
  Result<obs::JsonValue> doc = ParseEnvelopeJson(line, "query");
  if (!doc.ok()) return doc.status();
  QueryRequest request;
  if (const obs::JsonValue* id = doc->Find("id"); id != nullptr) {
    if (!id->is_number() || id->number < 0) {
      return ProtocolError("JSON request id must be a non-negative number");
    }
    request.id = static_cast<uint64_t>(id->number);
  }
  const obs::JsonValue* kind = doc->Find("kind");
  if (kind != nullptr) {
    if (!kind->is_string()) return ProtocolError("JSON 'kind' not a string");
    std::optional<QueryKind> parsed = KindFromName(kind->string_value);
    if (!parsed) {
      return ProtocolError("unknown query kind '" + kind->string_value +
                           "'");
    }
    request.query.kind = *parsed;
  }
  const obs::JsonValue* pattern = doc->Find("pattern");
  if (pattern == nullptr || !pattern->is_string()) {
    return ProtocolError("JSON request needs a string 'pattern'");
  }
  request.query.pattern = pattern->string_value;
  if (const obs::JsonValue* min_len = doc->Find("min_len");
      min_len != nullptr) {
    if (!min_len->is_number() || min_len->number < 0) {
      return ProtocolError("JSON 'min_len' must be a non-negative number");
    }
    request.query.min_len =
        std::max<uint32_t>(1, static_cast<uint32_t>(min_len->number));
  }
  if (const obs::JsonValue* expand = doc->Find("expand");
      expand != nullptr) {
    if (expand->kind != obs::JsonValue::Kind::kBool) {
      return ProtocolError("JSON 'expand' must be a boolean");
    }
    request.query.expand_occurrences = expand->bool_value;
  }
  if (const obs::JsonValue* deadline = doc->Find("deadline_ms");
      deadline != nullptr) {
    if (!deadline->is_number() || deadline->number < 0) {
      return ProtocolError("JSON 'deadline_ms' must be a non-negative number");
    }
    // Values past u32 clamp to the u32 max (~49.7 days) — already
    // "effectively unbounded", and clamping keeps huge JSON numbers
    // from wrapping into tiny budgets.
    request.query.deadline_ms = static_cast<uint32_t>(std::min(
        deadline->number,
        static_cast<double>(std::numeric_limits<uint32_t>::max())));
  }
  if (const obs::JsonValue* errors = doc->Find("max_errors");
      errors != nullptr) {
    if (!errors->is_number() || errors->number < 0) {
      return ProtocolError("JSON 'max_errors' must be a non-negative number");
    }
    // Clamped like deadline_ms: any budget >= the pattern length is
    // equally degenerate, so huge JSON numbers must not wrap.
    request.query.max_errors = static_cast<uint32_t>(std::min(
        errors->number,
        static_cast<double>(std::numeric_limits<uint32_t>::max())));
  }
  return request;
}

Result<QueryResponse> ParseResponseJson(std::string_view line) {
  Result<obs::JsonValue> doc = ParseEnvelopeJson(line, "response");
  if (!doc.ok()) return doc.status();
  QueryResponse response;
  if (const obs::JsonValue* id = doc->Find("id");
      id != nullptr && id->is_number() && id->number >= 0) {
    response.id = static_cast<uint64_t>(id->number);
  }
  const obs::JsonValue* status = doc->Find("status");
  if (status == nullptr || !status->is_string()) {
    return ProtocolError("JSON response needs a string 'status'");
  }
  std::optional<StatusCode> code = StatusCodeFromName(status->string_value);
  if (!code) {
    return ProtocolError("unknown status '" + status->string_value + "'");
  }
  response.result.status_code = *code;
  if (const obs::JsonValue* error = doc->Find("error");
      error != nullptr && error->is_string()) {
    response.result.error = error->string_value;
  }
  if (const obs::JsonValue* found = doc->Find("found");
      found != nullptr && found->kind == obs::JsonValue::Kind::kBool) {
    response.result.found = found->bool_value;
  }
  if (const obs::JsonValue* hits = doc->Find("hits"); hits != nullptr) {
    if (!hits->is_array()) return ProtocolError("JSON 'hits' not an array");
    for (const obs::JsonValue& entry : hits->array) {
      const obs::JsonValue* pos = entry.Find("pos");
      const obs::JsonValue* len = entry.Find("len");
      const obs::JsonValue* qpos = entry.Find("qpos");
      if (pos == nullptr || !pos->is_number() || len == nullptr ||
          !len->is_number() || qpos == nullptr || !qpos->is_number()) {
        return ProtocolError("malformed JSON hit entry");
      }
      response.result.hits.push_back({static_cast<uint32_t>(pos->number),
                                      static_cast<uint32_t>(len->number),
                                      static_cast<uint32_t>(qpos->number)});
    }
  }
  if (const obs::JsonValue* ms = doc->Find("ms"); ms != nullptr) {
    if (!ms->is_array()) return ProtocolError("JSON 'ms' not an array");
    for (const obs::JsonValue& entry : ms->array) {
      if (!entry.is_number()) return ProtocolError("malformed JSON ms entry");
      response.result.matching_stats.push_back(
          static_cast<uint32_t>(entry.number));
    }
  }
  if (const obs::JsonValue* nodes = doc->Find("nodes_checked");
      nodes != nullptr && nodes->is_number()) {
    response.result.stats.nodes_checked =
        static_cast<uint64_t>(nodes->number);
  }
  return response;
}

std::string MutateToJson(const MutateRequest& request) {
  obs::JsonWriter json;
  json.BeginObject();
  json.Key("v");
  json.Value(static_cast<uint64_t>(kWireVersion));
  json.Key("type");
  json.Value("mutate");
  json.Key("id");
  json.Value(request.id);
  json.Key("op");
  json.Value(MutateOpName(request.op));
  if (request.op == MutateOp::kInsert) {
    json.Key("doc");
    json.Value(request.document);
  } else if (request.op == MutateOp::kDelete) {
    json.Key("doc_id");
    json.Value(request.doc_id);
  }
  json.EndObject();
  return std::move(json).Finish();
}

std::string MutateResponseToJson(const MutateResponse& response) {
  obs::JsonWriter json;
  json.BeginObject();
  json.Key("v");
  json.Value(static_cast<uint64_t>(kWireVersion));
  json.Key("type");
  json.Value("mutate_response");
  json.Key("id");
  json.Value(response.id);
  json.Key("op");
  json.Value(MutateOpName(response.op));
  json.Key("status");
  json.Value(StatusCodeToString(response.status));
  if (response.status != StatusCode::kOk) {
    json.Key("error");
    json.Value(response.error);
  }
  json.Key("doc_id");
  json.Value(response.doc_id);
  json.Key("generation");
  json.Value(response.generation);
  json.EndObject();
  return std::move(json).Finish();
}

Result<MutateRequest> ParseMutateJson(std::string_view line) {
  Result<obs::JsonValue> doc = ParseEnvelopeJson(line, "mutate");
  if (!doc.ok()) return doc.status();
  MutateRequest request;
  if (const obs::JsonValue* id = doc->Find("id"); id != nullptr) {
    if (!id->is_number() || id->number < 0) {
      return ProtocolError("JSON mutate id must be a non-negative number");
    }
    request.id = static_cast<uint64_t>(id->number);
  }
  const obs::JsonValue* op = doc->Find("op");
  if (op == nullptr || !op->is_string()) {
    return ProtocolError("JSON mutate needs a string 'op'");
  }
  std::optional<MutateOp> parsed = MutateOpFromName(op->string_value);
  if (!parsed) {
    return ProtocolError("unknown mutate op '" + op->string_value + "'");
  }
  request.op = *parsed;
  if (request.op == MutateOp::kInsert) {
    const obs::JsonValue* body = doc->Find("doc");
    if (body == nullptr || !body->is_string()) {
      return ProtocolError("JSON insert needs a string 'doc'");
    }
    request.document = body->string_value;
  } else if (request.op == MutateOp::kDelete) {
    const obs::JsonValue* doc_id = doc->Find("doc_id");
    if (doc_id == nullptr || !doc_id->is_number() || doc_id->number < 0) {
      return ProtocolError("JSON delete needs a non-negative 'doc_id'");
    }
    request.doc_id = static_cast<uint32_t>(doc_id->number);
  }
  return request;
}

Result<MutateResponse> ParseMutateResponseJson(std::string_view line) {
  Result<obs::JsonValue> doc = ParseEnvelopeJson(line, "mutate_response");
  if (!doc.ok()) return doc.status();
  MutateResponse response;
  if (const obs::JsonValue* id = doc->Find("id");
      id != nullptr && id->is_number() && id->number >= 0) {
    response.id = static_cast<uint64_t>(id->number);
  }
  const obs::JsonValue* op = doc->Find("op");
  if (op == nullptr || !op->is_string()) {
    return ProtocolError("JSON mutate response needs a string 'op'");
  }
  std::optional<MutateOp> parsed_op = MutateOpFromName(op->string_value);
  if (!parsed_op) {
    return ProtocolError("unknown mutate op '" + op->string_value + "'");
  }
  response.op = *parsed_op;
  const obs::JsonValue* status = doc->Find("status");
  if (status == nullptr || !status->is_string()) {
    return ProtocolError("JSON mutate response needs a string 'status'");
  }
  std::optional<StatusCode> code = StatusCodeFromName(status->string_value);
  if (!code) {
    return ProtocolError("unknown status '" + status->string_value + "'");
  }
  response.status = *code;
  if (const obs::JsonValue* error = doc->Find("error");
      error != nullptr && error->is_string()) {
    response.error = error->string_value;
  }
  if (const obs::JsonValue* doc_id = doc->Find("doc_id");
      doc_id != nullptr && doc_id->is_number() && doc_id->number >= 0) {
    response.doc_id = static_cast<uint32_t>(doc_id->number);
  }
  if (const obs::JsonValue* generation = doc->Find("generation");
      generation != nullptr && generation->is_number() &&
      generation->number >= 0) {
    response.generation = static_cast<uint64_t>(generation->number);
  }
  return response;
}

// --- query text ------------------------------------------------------------

std::optional<Query> ParseQueryText(std::string_view line,
                                    uint32_t min_len) {
  size_t begin = line.find_first_not_of(" \t\r");
  if (begin == std::string_view::npos || line[begin] == '#') {
    return std::nullopt;
  }
  size_t end = line.find_last_not_of(" \t\r");
  std::string body(line.substr(begin, end - begin + 1));
  size_t space = body.find_first_of(" \t");
  if (space != std::string::npos) {
    std::string kind = body.substr(0, space);
    std::string pattern = body.substr(body.find_first_not_of(" \t", space));
    // Optional suffixes on the kind word: an error budget
    // "KIND:ERRORS" (approximate kinds only, e.g. "mismatch:2 abra")
    // and a per-query deadline "KIND@MS" (e.g. "findall@250 abra"),
    // combined as "KIND:ERRORS@MS". A malformed suffix makes the whole
    // word an unrecognized kind, which falls through to the
    // findall-whole-line rule below — same as any other unknown first
    // word.
    const auto parse_digits =
        [](std::string_view digits) -> std::optional<uint32_t> {
      if (digits.empty() ||
          digits.find_first_not_of("0123456789") != std::string_view::npos) {
        return std::nullopt;
      }
      uint64_t value = 0;
      for (char c : digits) {
        value = value * 10 + static_cast<uint64_t>(c - '0');
        if (value > std::numeric_limits<uint32_t>::max()) {
          value = std::numeric_limits<uint32_t>::max();  // saturate
          break;
        }
      }
      return static_cast<uint32_t>(value);
    };
    uint32_t deadline_ms = 0;
    uint32_t max_errors = 0;
    bool has_errors = false;
    bool kind_ok = true;
    if (size_t at = kind.find('@'); at != std::string::npos) {
      const std::optional<uint32_t> ms =
          parse_digits(std::string_view(kind).substr(at + 1));
      kind_ok = ms.has_value();
      if (kind_ok) {
        deadline_ms = *ms;
        kind.resize(at);
      }
    }
    if (size_t colon = kind.find(':');
        kind_ok && colon != std::string::npos) {
      const std::optional<uint32_t> errors =
          parse_digits(std::string_view(kind).substr(colon + 1));
      kind_ok = errors.has_value();
      if (kind_ok) {
        max_errors = *errors;
        has_errors = true;
        kind.resize(colon);
      }
    }
    if (kind_ok) {
      std::optional<Query> query;
      if (kind == "findall") query = Query::FindAll(std::move(pattern));
      else if (kind == "contains") query = Query::Contains(std::move(pattern));
      else if (kind == "match") {
        query = Query::MaximalMatches(std::move(pattern), min_len);
      } else if (kind == "ms") query = Query::MatchingStats(std::move(pattern));
      else if (kind == "mismatch") {
        query = Query::Mismatch(std::move(pattern), max_errors);
      } else if (kind == "edit") {
        query = Query::EditDistance(std::move(pattern), max_errors);
      }
      // An error budget on an exact kind ("findall:2") is as malformed
      // as non-digits after the colon: the whole line is a pattern.
      if (query && has_errors && query->kind != QueryKind::kMismatch &&
          query->kind != QueryKind::kEditDistance) {
        query.reset();
      }
      if (query) {
        query->deadline_ms = deadline_ms;
        return query;
      }
    }
  }
  return Query::FindAll(std::move(body));
}

void PrintResultSummary(std::ostream& out, const Query& query,
                        const QueryResult& result, size_t max_listed) {
  if (!result.ok()) {
    out << "ERROR: " << result.error;
    return;
  }
  switch (query.kind) {
    case QueryKind::kContains:
      out << (result.found ? "yes" : "no");
      break;
    case QueryKind::kFindAll:
      out << result.hits.size() << " occurrence(s)";
      for (size_t i = 0; i < result.hits.size() && i < max_listed; ++i) {
        out << " " << result.hits[i].pos;
      }
      if (result.hits.size() > max_listed) {
        out << " (+" << result.hits.size() - max_listed << " more)";
      }
      break;
    case QueryKind::kMaximalMatches:
      out << result.hits.size() << " match(es)";
      for (size_t i = 0; i < result.hits.size() && i < max_listed; ++i) {
        const Hit& hit = result.hits[i];
        out << " query[" << hit.query_pos << ".."
            << hit.query_pos + hit.length << ")@" << hit.pos;
      }
      if (result.hits.size() > max_listed) {
        out << " (+" << result.hits.size() - max_listed << " more)";
      }
      break;
    case QueryKind::kMatchingStats: {
      uint32_t max_ms = 0;
      uint64_t total = 0;
      for (uint32_t v : result.matching_stats) {
        max_ms = std::max(max_ms, v);
        total += v;
      }
      out << "n=" << result.matching_stats.size() << " max=" << max_ms
          << " mean="
          << (result.matching_stats.empty()
                  ? 0.0
                  : static_cast<double>(total) /
                        static_cast<double>(result.matching_stats.size()));
      break;
    }
    case QueryKind::kMismatch:
      out << result.hits.size() << " hit(s) within " << query.max_errors
          << " mismatch(es)";
      for (size_t i = 0; i < result.hits.size() && i < max_listed; ++i) {
        out << " " << result.hits[i].pos << ":" << result.hits[i].query_pos;
      }
      if (result.hits.size() > max_listed) {
        out << " (+" << result.hits.size() - max_listed << " more)";
      }
      break;
    case QueryKind::kEditDistance:
      out << result.hits.size() << " hit(s) within " << query.max_errors
          << " edit(s)";
      for (size_t i = 0; i < result.hits.size() && i < max_listed; ++i) {
        const Hit& hit = result.hits[i];
        out << " " << hit.pos << ":" << hit.length << ":" << hit.query_pos;
      }
      if (result.hits.size() > max_listed) {
        out << " (+" << result.hits.size() - max_listed << " more)";
      }
      break;
  }
}

}  // namespace spine::core::wire

#include "dist/codec.h"

#include <utility>

#include "common/json.h"
#include "model/serialize.h"

namespace cloudalloc::dist::codec {
namespace {

using model::ClientId;
using model::ClusterId;
using model::Placement;
using protocol::ClientPlacements;
using protocol::ClusterImprovement;
using protocol::StateDelta;

// --- encoders ------------------------------------------------------------

JsonArray placements_to_json(const std::vector<Placement>& ps) {
  JsonArray arr;
  for (const Placement& p : ps) arr.emplace_back(model::placement_to_json(p));
  return arr;
}

JsonArray rows_to_json(const std::vector<ClientPlacements>& rows) {
  JsonArray arr;
  for (const ClientPlacements& row : rows) {
    JsonObject o;
    o.emplace("client", row.client.value());
    o.emplace("cluster", row.cluster.value());
    o.emplace("placements", placements_to_json(row.placements));
    arr.emplace_back(std::move(o));
  }
  return arr;
}

Json delta_to_json(const StateDelta& delta) {
  JsonObject o;
  o.emplace("base", delta.base_version);
  o.emplace("target", delta.target_version);
  o.emplace("changes", rows_to_json(delta.changes));
  return Json(std::move(o));
}

JsonObject header(const char* type, std::uint64_t epoch) {
  JsonObject o;
  o.emplace("proto", protocol::kProtocolVersion);
  o.emplace("type", type);
  o.emplace("epoch", epoch);
  return o;
}

// --- decoders ------------------------------------------------------------

/// Field cursor over an untrusted document: the first missing/mistyped
/// field latches an error and every later read degrades to a default, so
/// call sites read straight-line and check once at the end.
class Cursor {
 public:
  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  void fail(std::string message) {
    if (ok_) {
      ok_ = false;
      error_ = std::move(message);
    }
  }

  double num(const Json& node, const char* key) {
    const Json* v = node.find(key);
    if (v == nullptr || !v->is_number()) {
      fail(std::string("missing/invalid number: ") + key);
      return 0.0;
    }
    return v->as_number();
  }

  /// The field as a T; a value that is not a whole number within T's
  /// range latches an error.
  template <class T>
  T integer(const Json& node, const char* key) {
    const double d = num(node, key);
    const std::optional<T> v = exact_integer<T>(d);
    if (!v) fail(std::string("not an integer in range: ") + key);
    return v.value_or(T{0});
  }

  bool boolean(const Json& node, const char* key) {
    const Json* v = node.find(key);
    if (v == nullptr || !v->is_bool()) {
      fail(std::string("missing/invalid bool: ") + key);
      return false;
    }
    return v->as_bool();
  }

  const JsonArray& array(const Json& node, const char* key) {
    static const JsonArray kEmpty;
    const Json* v = node.find(key);
    if (v == nullptr || !v->is_array()) {
      fail(std::string("missing/invalid array: ") + key);
      return kEmpty;
    }
    return v->as_array();
  }

 private:
  bool ok_ = true;
  std::string error_;
};

std::vector<Placement> placements_from_json(const Json& node, const char* key,
                                            Cursor& cur) {
  std::vector<Placement> out;
  for (const Json& pj : cur.array(node, key)) {
    std::string perr;
    const auto p = model::placement_from_json(pj, &perr);
    if (!p) {
      cur.fail(std::move(perr));
      return out;
    }
    out.push_back(*p);
  }
  return out;
}

std::vector<ClientPlacements> rows_from_json(const Json& node, const char* key,
                                             Cursor& cur) {
  std::vector<ClientPlacements> out;
  for (const Json& rj : cur.array(node, key)) {
    ClientPlacements row;
    row.client = ClientId{cur.integer<int>(rj, "client")};
    row.cluster = ClusterId{cur.integer<int>(rj, "cluster")};
    row.placements = placements_from_json(rj, "placements", cur);
    if (!cur.ok()) return out;
    if (!row.client.valid()) {
      cur.fail("negative client id in row");
      return out;
    }
    out.push_back(std::move(row));
  }
  return out;
}

StateDelta delta_from_json(const Json& node, const char* key, Cursor& cur) {
  StateDelta delta;
  const Json* v = node.find(key);
  if (v == nullptr || !v->is_object()) {
    cur.fail(std::string("missing/invalid delta: ") + key);
    return delta;
  }
  delta.base_version = cur.integer<std::int64_t>(*v, "base");
  delta.target_version = cur.integer<std::int64_t>(*v, "target");
  delta.changes = rows_from_json(*v, "changes", cur);
  return delta;
}

std::optional<Json> parse_envelope(const std::string& bytes,
                                   std::string* type_out, std::uint64_t* epoch,
                                   std::string* error) {
  std::string perr;
  auto doc = Json::parse(bytes, &perr);
  if (!doc) {
    if (error != nullptr) *error = "parse error: " + perr;
    return std::nullopt;
  }
  Cursor cur;
  const Json* proto = doc->find("proto");
  if (proto == nullptr || !proto->is_number() ||
      proto->as_number() != protocol::kProtocolVersion)
    cur.fail("unknown protocol version");
  const Json* type = doc->find("type");
  if (type == nullptr || !type->is_string()) cur.fail("missing type");
  const auto e = cur.integer<std::uint64_t>(*doc, "epoch");
  if (!cur.ok()) {
    if (error != nullptr) *error = cur.error();
    return std::nullopt;
  }
  *type_out = type->as_string();
  *epoch = e;
  return doc;
}

}  // namespace

std::string encode(const protocol::AgentMessage& message) {
  JsonObject o = std::visit(
      [](const auto& m) -> JsonObject {
        using M = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<M, protocol::ImproveRequest>) {
          JsonObject h = header("improve_request", m.epoch);
          h.emplace("round", m.round);
          h.emplace("cluster", m.cluster.value());
          h.emplace("delta", delta_to_json(m.delta));
          return h;
        } else {
          static_assert(std::is_same_v<M, protocol::Shutdown>);
          return header("shutdown", m.epoch);
        }
      },
      message);
  return Json(std::move(o)).dump();
}

std::string encode(const protocol::ImproveResponse& message) {
  JsonObject o = header("improve_response", message.epoch);
  o.emplace("round", message.round);
  o.emplace("cluster", message.cluster.value());
  o.emplace("version", message.state_version);
  o.emplace("applied", message.applied);
  o.emplace("profit_delta", message.improvement.profit_delta);
  o.emplace("placements", rows_to_json(message.improvement.placements));
  return Json(std::move(o)).dump();
}

std::optional<protocol::AgentMessage> decode_agent_message(
    const std::string& bytes, std::string* error) {
  std::string type;
  std::uint64_t epoch = 0;
  const auto doc = parse_envelope(bytes, &type, &epoch, error);
  if (!doc) return std::nullopt;
  Cursor cur;
  std::optional<protocol::AgentMessage> out;
  if (type == "improve_request") {
    protocol::ImproveRequest m;
    m.epoch = epoch;
    m.round = cur.integer<int>(*doc, "round");
    m.cluster = ClusterId{cur.integer<int>(*doc, "cluster")};
    m.delta = delta_from_json(*doc, "delta", cur);
    out = std::move(m);
  } else if (type == "shutdown") {
    protocol::Shutdown m;
    m.epoch = epoch;
    out = m;
  } else {
    cur.fail("unknown agent message type: " + type);
  }
  if (!cur.ok()) {
    if (error != nullptr) *error = cur.error();
    return std::nullopt;
  }
  return out;
}

std::optional<protocol::ImproveResponse> decode_manager_message(
    const std::string& bytes, std::string* error) {
  std::string type;
  std::uint64_t epoch = 0;
  const auto doc = parse_envelope(bytes, &type, &epoch, error);
  if (!doc) return std::nullopt;
  if (type != "improve_response") {
    if (error != nullptr) *error = "unknown manager message type: " + type;
    return std::nullopt;
  }
  Cursor cur;
  protocol::ImproveResponse m;
  m.epoch = epoch;
  m.round = cur.integer<int>(*doc, "round");
  m.cluster = ClusterId{cur.integer<int>(*doc, "cluster")};
  m.state_version = cur.integer<std::int64_t>(*doc, "version");
  m.applied = cur.boolean(*doc, "applied");
  m.improvement.cluster = m.cluster;
  m.improvement.profit_delta = cur.num(*doc, "profit_delta");
  m.improvement.placements = rows_from_json(*doc, "placements", cur);
  if (!cur.ok()) {
    if (error != nullptr) *error = cur.error();
    return std::nullopt;
  }
  return m;
}

}  // namespace cloudalloc::dist::codec

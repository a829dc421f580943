#include "dist/codec.h"

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/check.h"

namespace cloudalloc::dist::codec {
namespace {

using model::ClientId;
using model::ClusterId;
using model::Placement;
using model::ServerId;
using protocol::ClientPlacements;

// The frame layout is codec.h's; these are its type tags and field sizes.
enum Type : std::uint8_t {
  kImproveRequest = 1,
  kShutdown = 2,
  kImproveResponse = 3,
};

static_assert(protocol::kProtocolVersion > 0 &&
              protocol::kProtocolVersion < 256);

constexpr std::size_t kPreambleBytes = 1 + 1 + 8;  // version, type, epoch
// Bytes before the rows.
constexpr std::size_t kRequestHeadBytes = kPreambleBytes + 4 + 4 + 8 + 8;
constexpr std::size_t kResponseHeadBytes = kPreambleBytes + 4 + 4 + 8 + 1 + 8;
constexpr std::size_t kRowBytes = 4 + 4 + 4;  // client, cluster, count
constexpr std::size_t kPlacementBytes = 4 + 3 * 8;

// --- encoders ------------------------------------------------------------

/// Writes little-endian fields into a frame whose size is known up front.
class Writer {
 public:
  explicit Writer(std::size_t size) : out_(size, '\0'), at_(out_.data()) {}

  template <class T>
  void put(T v) {
    static_assert(std::is_unsigned_v<T>);
    for (std::size_t b = 0; b < sizeof(T); ++b)
      at_[b] = static_cast<char>(v >> (8 * b));
    at_ += sizeof(T);
  }
  void i32(std::int32_t v) { put(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { put(static_cast<std::uint64_t>(v)); }
  void f64(double v) { put(std::bit_cast<std::uint64_t>(v)); }

  std::string finish() {
    CHECK(at_ == out_.data() + out_.size());
    return std::move(out_);
  }

 private:
  std::string out_;
  char* at_;
};

std::size_t rows_bytes(const std::vector<ClientPlacements>& rows) {
  std::size_t n = 4 + rows.size() * kRowBytes;
  for (const ClientPlacements& row : rows)
    n += row.placements.size() * kPlacementBytes;
  return n;
}

std::uint32_t count32(std::size_t n) {
  CHECK(n <= UINT32_MAX);
  return static_cast<std::uint32_t>(n);
}

void put_rows(Writer& out, const std::vector<ClientPlacements>& rows) {
  out.put(count32(rows.size()));
  for (const ClientPlacements& row : rows) {
    out.i32(row.client.value());
    out.i32(row.cluster.value());
    out.put(count32(row.placements.size()));
    for (const Placement& p : row.placements) {
      out.i32(p.server.value());
      out.f64(p.psi);
      out.f64(p.phi_p);
      out.f64(p.phi_n);
    }
  }
}

void put_preamble(Writer& out, Type type, std::uint64_t epoch) {
  out.put(static_cast<std::uint8_t>(protocol::kProtocolVersion));
  out.put(static_cast<std::uint8_t>(type));
  out.put(epoch);
}

// --- decoders ------------------------------------------------------------

/// Bounds-checked cursor over an untrusted frame: the first short read or
/// bad field latches an error, and every later read yields 0, so call
/// sites read straight-line and check once at the end.
class Reader {
 public:
  explicit Reader(const std::string& bytes)
      : at_(reinterpret_cast<const unsigned char*>(bytes.data())),
        left_(bytes.size()) {}

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  void fail(std::string message) {
    if (ok_) {
      ok_ = false;
      error_ = std::move(message);
    }
  }

  template <class T>
  T get() {
    static_assert(std::is_unsigned_v<T>);
    if (!ok_) return 0;
    if (left_ < sizeof(T)) {
      fail("truncated frame");
      return 0;
    }
    T v = 0;
    for (std::size_t b = 0; b < sizeof(T); ++b)
      v |= static_cast<T>(static_cast<T>(at_[b]) << (8 * b));
    at_ += sizeof(T);
    left_ -= sizeof(T);
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(get<std::uint32_t>()); }
  std::int64_t i64() { return static_cast<std::int64_t>(get<std::uint64_t>()); }
  double f64() {
    const double v = std::bit_cast<double>(get<std::uint64_t>());
    if (!std::isfinite(v)) fail("non-finite double");
    return v;
  }

  /// A u32 count of items of at least `item_bytes` each, refused before
  /// the caller allocates anything when the bytes left cannot hold them.
  std::uint32_t count(std::size_t item_bytes) {
    const auto n = get<std::uint32_t>();
    if (n > left_ / item_bytes) {
      fail("count exceeds the bytes left in the frame");
      return 0;
    }
    return n;
  }

  /// Latches an error unless the whole frame has been read.
  void expect_end() {
    if (ok_ && left_ != 0) fail("trailing bytes after the frame");
  }

 private:
  const unsigned char* at_;
  std::size_t left_;
  bool ok_ = true;
  std::string error_;
};

std::vector<ClientPlacements> get_rows(Reader& in) {
  std::vector<ClientPlacements> rows(in.count(kRowBytes));
  for (ClientPlacements& row : rows) {
    row.client = ClientId{in.i32()};
    if (in.ok() && !row.client.valid()) in.fail("negative client id in row");
    row.cluster = ClusterId{in.i32()};
    row.placements.resize(in.count(kPlacementBytes));
    for (Placement& p : row.placements) {
      p.server = ServerId{in.i32()};
      if (in.ok() && !p.server.valid()) in.fail("negative server id");
      p.psi = in.f64();
      p.phi_p = in.f64();
      p.phi_n = in.f64();
    }
    if (!in.ok()) break;
  }
  return rows;
}

/// Reads the version, type tag and epoch every frame starts with; returns
/// the tag.
std::uint8_t get_preamble(Reader& in, std::uint64_t* epoch) {
  const auto version = in.get<std::uint8_t>();
  if (in.ok() && version != protocol::kProtocolVersion)
    in.fail("unknown protocol version " + std::to_string(version));
  const auto type = in.get<std::uint8_t>();
  *epoch = in.get<std::uint64_t>();
  return type;
}

template <class M>
std::optional<M> finish(Reader& in, M message, std::string* error) {
  in.expect_end();
  if (in.ok()) return message;
  if (error != nullptr) *error = in.error();
  return std::nullopt;
}

}  // namespace

std::string encode(const protocol::AgentMessage& message) {
  return std::visit(
      [](const auto& m) {
        using M = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<M, protocol::ImproveRequest>) {
          Writer out(kRequestHeadBytes + rows_bytes(m.delta.changes));
          put_preamble(out, kImproveRequest, m.epoch);
          out.i32(m.round);
          out.i32(m.cluster.value());
          out.i64(m.delta.base_version);
          out.i64(m.delta.target_version);
          put_rows(out, m.delta.changes);
          return out.finish();
        } else {
          static_assert(std::is_same_v<M, protocol::Shutdown>);
          Writer out(kPreambleBytes);
          put_preamble(out, kShutdown, m.epoch);
          return out.finish();
        }
      },
      message);
}

std::string encode(const protocol::ImproveResponse& message) {
  Writer out(kResponseHeadBytes + rows_bytes(message.improvement.placements));
  put_preamble(out, kImproveResponse, message.epoch);
  out.i32(message.round);
  out.i32(message.cluster.value());
  out.i64(message.state_version);
  out.put(static_cast<std::uint8_t>(message.applied ? 1 : 0));
  out.f64(message.improvement.profit_delta);
  put_rows(out, message.improvement.placements);
  return out.finish();
}

std::optional<protocol::AgentMessage> decode_agent_message(
    const std::string& bytes, std::string* error) {
  Reader in(bytes);
  std::uint64_t epoch = 0;
  const std::uint8_t type = get_preamble(in, &epoch);
  protocol::AgentMessage out;
  if (type == kImproveRequest) {
    protocol::ImproveRequest m;
    m.epoch = epoch;
    m.round = in.i32();
    m.cluster = ClusterId{in.i32()};
    m.delta.base_version = in.i64();
    m.delta.target_version = in.i64();
    m.delta.changes = get_rows(in);
    out = std::move(m);
  } else if (type == kShutdown) {
    out = protocol::Shutdown{epoch};
  } else {
    in.fail("not an agent message type: " + std::to_string(type));
  }
  return finish(in, std::move(out), error);
}

std::optional<protocol::ImproveResponse> decode_manager_message(
    const std::string& bytes, std::string* error) {
  Reader in(bytes);
  protocol::ImproveResponse m;
  const std::uint8_t type = get_preamble(in, &m.epoch);
  if (type != kImproveResponse)
    in.fail("not a manager message type: " + std::to_string(type));
  m.round = in.i32();
  m.cluster = ClusterId{in.i32()};
  m.state_version = in.i64();
  const auto applied = in.get<std::uint8_t>();
  if (applied > 1) in.fail("applied byte is neither 0 nor 1");
  m.applied = applied == 1;
  m.improvement.cluster = m.cluster;
  m.improvement.profit_delta = in.f64();
  m.improvement.placements = get_rows(in);
  return finish(in, std::move(m), error);
}

}  // namespace cloudalloc::dist::codec

// The wire protocol end to end: codec round trips are bitwise, malformed
// frames are rejected (never fatal), and AgentActor's versioned-delta
// replica follows the idempotence contract of dist/protocol.h.
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "alloc/initial.h"
#include "common/rng.h"
#include "dist/cluster_agent.h"
#include "dist/codec.h"
#include "dist/protocol.h"
#include "dist/transport.h"
#include "workload/scenario.h"

namespace cloudalloc::dist {
namespace {

constexpr std::uint64_t kEpoch = 42;

/// Dense placement rows of an allocation (one per client, id order) — the
/// same shape the manager ships as deltas.
std::vector<protocol::ClientPlacements> rows_of(const model::Allocation& a) {
  std::vector<protocol::ClientPlacements> rows;
  for (model::ClientId i : a.cloud().client_ids()) {
    protocol::ClientPlacements row;
    row.client = i;
    if (a.is_assigned(i)) {
      row.cluster = a.cluster_of(i);
      row.placements = a.placements(i);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

model::Allocation initial_allocation(const model::Cloud& cloud,
                                     const alloc::AllocatorOptions& opts) {
  Rng rng(opts.seed);
  return alloc::build_initial_solution(cloud, opts, rng);
}

// --- codec ---------------------------------------------------------------

TEST(Codec, AgentMessagesRoundTripBitwise) {
  workload::ScenarioParams params;
  params.num_clients = 12;
  params.servers_per_cluster = 4;
  const auto cloud = workload::make_scenario(params, 21);
  alloc::AllocatorOptions opts;
  opts.seed = 3;
  const auto alloc0 = initial_allocation(cloud, opts);

  protocol::ImproveRequest improve;
  improve.epoch = kEpoch;
  improve.round = 7;
  improve.cluster = model::ClusterId{1};
  improve.delta.base_version = 2;
  improve.delta.target_version = 5;
  improve.delta.changes = rows_of(alloc0);

  const std::string bytes = codec::encode(protocol::AgentMessage{improve});
  const auto decoded = codec::decode_agent_message(bytes);
  ASSERT_TRUE(decoded.has_value());
  const auto* req = std::get_if<protocol::ImproveRequest>(&*decoded);
  ASSERT_NE(req, nullptr);
  EXPECT_EQ(req->epoch, kEpoch);
  EXPECT_EQ(req->round, 7);
  EXPECT_EQ(req->cluster, model::ClusterId{1});
  EXPECT_EQ(req->delta.base_version, 2);
  EXPECT_EQ(req->delta.target_version, 5);
  ASSERT_EQ(req->delta.changes.size(), improve.delta.changes.size());
  for (std::size_t r = 0; r < req->delta.changes.size(); ++r) {
    const auto& got = req->delta.changes[r];
    const auto& want = improve.delta.changes[r];
    EXPECT_EQ(got.client, want.client);
    EXPECT_EQ(got.cluster, want.cluster);
    ASSERT_EQ(got.placements.size(), want.placements.size());
    for (std::size_t p = 0; p < got.placements.size(); ++p) {
      EXPECT_EQ(got.placements[p].server, want.placements[p].server);
      // Exact ==: the frame carries every double's raw bits.
      EXPECT_EQ(got.placements[p].psi, want.placements[p].psi);
      EXPECT_EQ(got.placements[p].phi_p, want.placements[p].phi_p);
      EXPECT_EQ(got.placements[p].phi_n, want.placements[p].phi_n);
    }
  }
  // Strongest form: decode(encode(m)) re-encodes to the same bytes.
  EXPECT_EQ(codec::encode(*decoded), bytes);

  const std::string bye =
      codec::encode(protocol::AgentMessage{protocol::Shutdown{kEpoch}});
  const auto bye_decoded = codec::decode_agent_message(bye);
  ASSERT_TRUE(bye_decoded.has_value());
  EXPECT_TRUE(std::holds_alternative<protocol::Shutdown>(*bye_decoded));
  EXPECT_EQ(codec::encode(*bye_decoded), bye);
}

TEST(Codec, ManagerMessagesRoundTripBitwise) {
  protocol::ImproveResponse improve;
  improve.epoch = kEpoch;
  improve.round = 2;
  improve.cluster = model::ClusterId{0};
  improve.state_version = 4;
  improve.applied = true;
  improve.improvement.cluster = model::ClusterId{0};
  improve.improvement.profit_delta = 1e-17;
  // Deliberately awkward doubles: non-terminating binary fractions and a
  // value one ulp away from 1.0 must survive the trip unchanged.
  protocol::ClientPlacements placed;
  placed.client = model::ClientId{2};
  placed.cluster = model::ClusterId{0};
  placed.placements.push_back(
      model::Placement{model::ServerId{5}, 1.0 / 3.0,
                       std::nextafter(1.0, 2.0), 2.0 / 7.0});
  improve.improvement.placements.push_back(placed);
  protocol::ClientPlacements evicted;
  evicted.client = model::ClientId{6};  // eviction row: kNoCluster, empty
  improve.improvement.placements.push_back(evicted);
  const std::string bytes = codec::encode(improve);
  const auto decoded = codec::decode_manager_message(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->improvement.profit_delta, 1e-17);
  ASSERT_EQ(decoded->improvement.placements.size(), 2u);
  const auto& row = decoded->improvement.placements[0];
  EXPECT_EQ(row.client, model::ClientId{2});
  EXPECT_EQ(row.cluster, model::ClusterId{0});
  ASSERT_EQ(row.placements.size(), 1u);
  EXPECT_EQ(row.placements[0].server, model::ServerId{5});
  EXPECT_EQ(row.placements[0].psi, 1.0 / 3.0);
  EXPECT_EQ(row.placements[0].phi_p, std::nextafter(1.0, 2.0));
  EXPECT_EQ(row.placements[0].phi_n, 2.0 / 7.0);
  EXPECT_EQ(decoded->improvement.placements[1].cluster, model::kNoCluster);
  EXPECT_TRUE(decoded->improvement.placements[1].placements.empty());
  EXPECT_EQ(codec::encode(*decoded), bytes);
}

// Field offsets of codec.h's frame layout, for the hand-patched cases;
// *RowsAt is the u32 row count.
constexpr std::size_t kTypeAt = 1;
constexpr std::size_t kClusterAt = 14;
constexpr std::size_t kRequestRowsAt = 34;
constexpr std::size_t kResponseAppliedAt = 26;
constexpr std::size_t kResponseProfitAt = 27;
constexpr std::size_t kResponseRowsAt = 35;
// Within a row: i32 client, i32 cluster, u32 placement count, then per
// placement i32 server and three f64.
constexpr std::size_t kRowBytes = 12;
constexpr std::size_t kPlacementBytes = 28;

/// Overwrites `width` bytes of `frame` at `at` with `value`, little-endian.
std::string patched(std::string frame, std::size_t at, std::uint64_t value,
                    std::size_t width) {
  for (std::size_t b = 0; b < width; ++b)
    frame.at(at + b) = static_cast<char>(value >> (8 * b));
  return frame;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// One placed row, client 3 on server 1 of cluster 0.
std::vector<protocol::ClientPlacements> one_row() {
  protocol::ClientPlacements row;
  row.client = model::ClientId{3};
  row.cluster = model::ClusterId{0};
  row.placements.push_back(
      model::Placement{model::ServerId{1}, 1.0, 0.5, 0.25});
  return {row};
}

// Each case is a valid frame with exactly the field it names changed, and
// the decoder must refuse it for that field: the error names it.
TEST(Codec, MalformedFramesAreRejectedNotFatal) {
  protocol::ImproveRequest request;
  request.epoch = kEpoch;
  request.cluster = model::ClusterId{0};
  request.delta.target_version = 1;
  request.delta.changes = one_row();
  const std::string req = codec::encode(protocol::AgentMessage{request});
  const std::size_t client_at = kRequestRowsAt + 4;
  const std::size_t server_at = client_at + kRowBytes;
  ASSERT_EQ(req.size(), server_at + kPlacementBytes);

  protocol::ImproveResponse response;
  response.epoch = kEpoch;
  response.state_version = 4;
  response.applied = true;
  response.improvement.profit_delta = 0.25;
  response.improvement.placements = one_row();
  const std::string resp = codec::encode(response);
  const std::size_t resp_client_at = kResponseRowsAt + 4;
  ASSERT_EQ(resp.size(), resp_client_at + kRowBytes + kPlacementBytes);
  const std::string bye =
      codec::encode(protocol::AgentMessage{protocol::Shutdown{kEpoch}});

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* name;
    std::string bytes;
    const char* error;  ///< a word the diagnostic must contain
  };
  const Case agent_cases[] = {
      {"empty", "", "truncated"},
      {"text", "not a frame at all", "version"},
      {"future version", patched(req, 0, 99, 1), "version"},
      {"JSON-era version", patched(req, 0, 1, 1), "version"},
      {"no type tag", req.substr(0, 1), "truncated"},
      {"unknown type", patched(req, kTypeAt, 9, 1), "type"},
      {"response type", patched(req, kTypeAt, 3, 1), "type"},
      {"no body", req.substr(0, 10), "truncated"},
      {"negative client", patched(req, client_at, std::uint32_t(-7), 4),
       "client"},
      {"negative server", patched(req, server_at, std::uint32_t(-1), 4),
       "server"},
      {"row count", patched(req, kRequestRowsAt, 0xFFFFFFFF, 4), "count"},
      {"placement count", patched(req, client_at + 8, 0xFFFFFFFF, 4),
       "count"},
      {"one row too many", patched(req, kRequestRowsAt, 2, 4), "truncated"},
      {"NaN psi", patched(req, server_at + 4, bits(nan), 8), "non-finite"},
      {"inf phi_p", patched(req, server_at + 12, bits(inf), 8), "non-finite"},
      {"-inf phi_n", patched(req, server_at + 20, bits(-inf), 8),
       "non-finite"},
      {"trailing byte", req + '\0', "trailing"},
      // A cut inside the rows leaves a count the bytes left cannot hold.
      {"three bytes short", req.substr(0, req.size() - 3), "count"},
      {"shutdown with a trailing byte", bye + '\0', "trailing"},
      {"response frame", resp, "type"},
  };
  for (const Case& c : agent_cases) {
    std::string error;
    EXPECT_FALSE(codec::decode_agent_message(c.bytes, &error).has_value())
        << c.name;
    EXPECT_NE(error.find(c.error), std::string::npos)
        << c.name << ": " << error;
  }
  const Case manager_cases[] = {
      {"applied byte 2", patched(resp, kResponseAppliedAt, 2, 1), "applied"},
      {"NaN profit delta", patched(resp, kResponseProfitAt, bits(nan), 8),
       "non-finite"},
      {"negative client", patched(resp, resp_client_at, std::uint32_t(-7), 4),
       "client"},
      {"row count", patched(resp, kResponseRowsAt, 0xFFFFFFFF, 4), "count"},
      {"trailing byte", resp + '\0', "trailing"},
      {"one byte short", resp.substr(0, resp.size() - 1), "count"},
      {"request frame", req, "type"},
      {"shutdown frame", bye, "type"},
  };
  for (const Case& c : manager_cases) {
    std::string error;
    EXPECT_FALSE(codec::decode_manager_message(c.bytes, &error).has_value())
        << c.name;
    EXPECT_NE(error.find(c.error), std::string::npos)
        << c.name << ": " << error;
  }
  // The controls: the unpatched frames decode, and so does a frame whose
  // only change is an in-range extreme field.
  EXPECT_TRUE(codec::decode_agent_message(req).has_value());
  EXPECT_TRUE(codec::decode_agent_message(bye).has_value());
  EXPECT_TRUE(codec::decode_manager_message(resp).has_value());
  const auto extreme =
      codec::decode_agent_message(patched(req, kClusterAt, 0x7FFFFFFF, 4));
  ASSERT_TRUE(extreme.has_value());
  EXPECT_EQ(std::get<protocol::ImproveRequest>(*extreme).cluster,
            model::ClusterId{2147483647});
}

// --- AgentActor delta semantics -----------------------------------------

class ActorHarness {
 public:
  ActorHarness(const model::Cloud& cloud, model::ClusterId cluster,
               const alloc::AllocatorOptions& opts)
      : transport_(cluster.value() + 1),
        actor_(cloud, cluster, opts, kEpoch, &transport_),
        thread_([this] { actor_.run(); }) {}

  ~ActorHarness() {
    transport_.close_all();
    thread_.join();
  }

  bool send(const protocol::AgentMessage& message, int agent = 0) {
    return transport_.send_to_agent(agent, codec::encode(message));
  }

  /// Receives and decodes the next manager-bound message (5 s cushion —
  /// the channel is reliable, so this never times out in practice).
  std::optional<protocol::ImproveResponse> receive(std::string* raw = nullptr) {
    auto env = transport_.manager_receive_for(5000.0);
    if (!env) return std::nullopt;
    if (raw != nullptr) *raw = env->bytes;
    return codec::decode_manager_message(env->bytes);
  }

  Transport& transport() { return transport_; }

 private:
  ChannelTransport transport_;
  AgentActor actor_;
  std::thread thread_;
};

protocol::ImproveRequest improve_request(
    int round, std::int64_t base, std::int64_t target,
    std::vector<protocol::ClientPlacements> changes = {},
    std::uint64_t epoch = kEpoch) {
  protocol::ImproveRequest req;
  req.epoch = epoch;
  req.round = round;
  req.cluster = model::ClusterId{0};
  req.delta.base_version = base;
  req.delta.target_version = target;
  req.delta.changes = std::move(changes);
  return req;
}

TEST(AgentActor, DeltaSemanticsFollowTheProtocolContract) {
  workload::ScenarioParams params;
  params.num_clients = 12;
  params.servers_per_cluster = 4;
  const auto cloud = workload::make_scenario(params, 31);
  alloc::AllocatorOptions opts;
  opts.seed = 5;
  const auto alloc0 = initial_allocation(cloud, opts);

  ActorHarness harness(cloud, model::ClusterId{0}, opts);

  // Round 1: fresh replica, delta 0 -> 1 applies.
  ASSERT_TRUE(harness.send(
      protocol::AgentMessage{improve_request(1, 0, 1, rows_of(alloc0))}));
  std::string round1_bytes;
  auto resp = harness.receive(&round1_bytes);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->round, 1);
  EXPECT_TRUE(resp->applied);
  EXPECT_EQ(resp->state_version, 1);
  EXPECT_FALSE(resp->improvement.placements.empty());

  // A delta whose base the replica never saw is refused; the response
  // reports the version actually held so the manager can rebase.
  ASSERT_TRUE(
      harness.send(protocol::AgentMessage{improve_request(2, 5, 6)}));
  resp = harness.receive();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->round, 2);
  EXPECT_FALSE(resp->applied);
  EXPECT_EQ(resp->state_version, 1);  // replica untouched

  // Rebased delta from the reported version lands on the target.
  ASSERT_TRUE(harness.send(
      protocol::AgentMessage{improve_request(3, 1, 6, rows_of(alloc0))}));
  resp = harness.receive();
  ASSERT_TRUE(resp.has_value());
  EXPECT_TRUE(resp->applied);
  EXPECT_EQ(resp->state_version, 6);

  // A duplicated round-1 request (late network copy) is answered by
  // resending the cached encoded response VERBATIM — the replica, now at
  // version 6, is not regressed and the stages are not re-run.
  ASSERT_TRUE(harness.send(
      protocol::AgentMessage{improve_request(1, 0, 1, rows_of(alloc0))}));
  std::string duplicate_bytes;
  resp = harness.receive(&duplicate_bytes);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(duplicate_bytes, round1_bytes);

  // Messages for another epoch are ignored outright: no reply, no state
  // change (the next real exchange still sees version 6).
  ASSERT_TRUE(harness.send(protocol::AgentMessage{
      improve_request(9, 6, 7, {}, kEpoch + 1)}));
  ASSERT_TRUE(
      harness.send(protocol::AgentMessage{improve_request(4, 6, 6)}));
  resp = harness.receive();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->round, 4);
  EXPECT_EQ(resp->state_version, 6);

  // A corrupted frame is skipped without killing the actor.
  ASSERT_TRUE(harness.transport().send_to_agent(0, "garbage {{{"));
  ASSERT_TRUE(
      harness.send(protocol::AgentMessage{improve_request(5, 6, 6)}));
  resp = harness.receive();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->round, 5);

  // Polite shutdown ends the loop (the harness destructor would otherwise
  // end it via close_all — this exercises the Shutdown path).
  ASSERT_TRUE(harness.send(protocol::AgentMessage{protocol::Shutdown{kEpoch}}));
}

bool same_rows(const std::vector<protocol::ClientPlacements>& a,
               const std::vector<protocol::ClientPlacements>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t r = 0; r < a.size(); ++r) {
    if (a[r].client != b[r].client || a[r].cluster != b[r].cluster ||
        a[r].placements.size() != b[r].placements.size())
      return false;
    for (std::size_t s = 0; s < a[r].placements.size(); ++s) {
      const model::Placement& pa = a[r].placements[s];
      const model::Placement& pb = b[r].placements[s];
      if (pa.server != pb.server || bits(pa.psi) != bits(pb.psi) ||
          bits(pa.phi_p) != bits(pb.phi_p) || bits(pa.phi_n) != bits(pb.phi_n))
        return false;
    }
  }
  return true;
}

/// The first row of `rows` that places a client on `cluster`.
const protocol::ClientPlacements& first_row_on(
    const std::vector<protocol::ClientPlacements>& rows,
    model::ClusterId cluster) {
  for (const protocol::ClientPlacements& row : rows)
    if (row.cluster == cluster && !row.placements.empty()) return row;
  ADD_FAILURE() << "no client on cluster " << cluster;
  return rows.front();
}

// A delta that decodes but carries a row the replica could not be rebuilt
// from (a server out of range, psi summing to 0.5, a cluster out of range)
// is refused whole: the actor answers applied = false, writes none of the
// delta's rows, and stays alive.
TEST(AgentActor, RefusesDeltaRowsItCannotRebuild) {
  workload::ScenarioParams params;
  params.num_clients = 12;
  params.servers_per_cluster = 4;
  const auto cloud = workload::make_scenario(params, 21);
  alloc::AllocatorOptions opts;
  opts.seed = 3;
  const auto rows = rows_of(initial_allocation(cloud, opts));
  const protocol::ClientPlacements& ours =
      first_row_on(rows, model::ClusterId{0});

  ActorHarness harness(cloud, model::ClusterId{0}, opts);
  ASSERT_TRUE(
      harness.send(protocol::AgentMessage{improve_request(1, 0, 1, rows)}));
  const auto first = harness.receive();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(first->applied);
  ASSERT_FALSE(first->improvement.placements.empty());

  // A valid eviction ahead of the bad row: written, it would change what
  // the agent reports.
  protocol::ClientPlacements evict;
  evict.client = ours.client;
  protocol::ClientPlacements far_server = ours;
  far_server.placements.front().server = model::ServerId{1000000};
  protocol::ClientPlacements half_psi = ours;
  half_psi.placements = {ours.placements.front()};
  half_psi.placements.front().psi = 0.5;
  protocol::ClientPlacements bad_cluster = ours;
  bad_cluster.cluster = model::ClusterId{7};
  ASSERT_LT(cloud.num_clusters(), 8);
  int round = 1;
  for (const protocol::ClientPlacements& bad :
       {far_server, half_psi, bad_cluster}) {
    ++round;
    ASSERT_NE(protocol::row_violation(cloud, bad), nullptr);
    ASSERT_TRUE(harness.send(
        protocol::AgentMessage{improve_request(round, 1, 2, {evict, bad})}));
    const auto resp = harness.receive();
    ASSERT_TRUE(resp.has_value()) << "round " << round;
    EXPECT_EQ(resp->round, round);
    EXPECT_FALSE(resp->applied) << "round " << round;
    EXPECT_EQ(resp->state_version, 1) << "round " << round;
  }
  // The replica is still the round-1 one: the same stages report the same
  // placements and profit delta, bit for bit.
  ASSERT_TRUE(
      harness.send(protocol::AgentMessage{improve_request(round + 1, 1, 2)}));
  const auto after = harness.receive();
  ASSERT_TRUE(after.has_value());
  EXPECT_TRUE(after->applied);
  EXPECT_EQ(after->state_version, 2);
  EXPECT_TRUE(same_rows(after->improvement.placements,
                        first->improvement.placements));
  EXPECT_EQ(bits(after->improvement.profit_delta),
            bits(first->improvement.profit_delta));
}

// The manager merges an applied response only when every row passes
// protocol::improvement_violation; a response that fails it is counted in
// stale_messages instead (dist/manager.cpp, where responses are collected).
TEST(DistMerge, ResponseRowsTheLedgerCannotTakeAreRefused) {
  workload::ScenarioParams params;
  params.num_clients = 12;
  params.servers_per_cluster = 4;
  const auto cloud = workload::make_scenario(params, 21);
  alloc::AllocatorOptions opts;
  opts.seed = 3;
  const auto rows = rows_of(initial_allocation(cloud, opts));
  const model::ClusterId k{0};

  protocol::ClusterImprovement improvement;
  improvement.cluster = k;
  for (const protocol::ClientPlacements& row : rows)
    if (row.cluster == k) improvement.placements.push_back(row);
  protocol::ClientPlacements evict;  // an eviction row merges
  evict.client = model::ClientId{cloud.num_clients() - 1};
  improvement.placements.push_back(evict);
  ASSERT_EQ(protocol::improvement_violation(cloud, improvement), nullptr);

  const protocol::ClientPlacements& ours = first_row_on(rows, k);
  protocol::ClientPlacements beyond = ours;
  beyond.client = model::ClientId{cloud.num_clients()};
  protocol::ClientPlacements elsewhere = ours;
  for (model::ServerId j : cloud.server_ids())
    if (cloud.server(j).cluster != k) {
      elsewhere.placements.front().server = j;
      break;
    }
  const protocol::ClientPlacements& theirs =
      first_row_on(rows, model::ClusterId{1});
  for (const protocol::ClientPlacements& bad : {beyond, elsewhere, theirs}) {
    protocol::ClusterImprovement hostile = improvement;
    hostile.placements.push_back(bad);
    EXPECT_NE(protocol::improvement_violation(cloud, hostile), nullptr)
        << "client " << bad.client;
  }
}

// --- seeded mutation fuzz over both decoders ------------------------------

/// Offsets of every u32 count field in a frame whose rows start at
/// `rows_at` (codec.h's layout).
std::vector<std::size_t> count_offsets(
    std::size_t rows_at, const std::vector<protocol::ClientPlacements>& rows) {
  std::vector<std::size_t> at{rows_at};
  std::size_t row = rows_at + 4;
  for (const protocol::ClientPlacements& r : rows) {
    at.push_back(row + 8);
    row += kRowBytes + kPlacementBytes * r.placements.size();
  }
  return at;
}

/// What the decoders promise about the rows of every message they accept.
bool within_contract(const std::vector<protocol::ClientPlacements>& rows) {
  for (const protocol::ClientPlacements& row : rows) {
    if (!row.client.valid()) return false;
    for (const model::Placement& p : row.placements)
      if (!p.server.valid() || !std::isfinite(p.psi) ||
          !std::isfinite(p.phi_p) || !std::isfinite(p.phi_n))
        return false;
  }
  return true;
}

// 100,000 seeded mutants of valid frames of all three types (a full-ledger
// delta with eviction rows; a response carrying 1/3, nextafter(1, 2) and
// 2/7): every truncation length, every count field forced to 0xFFFFFFFF,
// then stacks of bit flips, byte overwrites, insertions, deletions,
// truncations and forced counts. Each mutant must be refused with a
// diagnostic or re-encode to exactly its own bytes, through both
// decoders, and keep the decoders' promises (ids >= 0, finite doubles);
// every request that decodes must pass through a live AgentActor, which
// must answer it.
TEST(Codec, SeededMutantsAreRejectedOrReencodeExactly) {
  workload::ScenarioParams params;
  params.num_clients = 12;
  params.servers_per_cluster = 4;
  const auto cloud = workload::make_scenario(params, 21);
  alloc::AllocatorOptions opts;
  opts.seed = 3;
  auto rows = rows_of(initial_allocation(cloud, opts));
  rows.back() = protocol::ClientPlacements{};  // an eviction row
  rows.back().client = model::ClientId{cloud.num_clients() - 1};

  const protocol::ImproveRequest request = improve_request(1, 0, 1, rows);
  protocol::ImproveResponse response;
  response.epoch = kEpoch;
  response.round = 1;
  response.state_version = 1;
  response.applied = true;
  response.improvement.profit_delta = 1.0 / 3.0;
  for (const protocol::ClientPlacements& row : rows)
    if (row.cluster == model::ClusterId{0} || row.placements.empty())
      response.improvement.placements.push_back(row);
  response.improvement.placements.front().placements.push_back(
      model::Placement{model::ServerId{3}, 1.0 / 3.0,
                       std::nextafter(1.0, 2.0), 2.0 / 7.0});

  struct Frame {
    std::string bytes;
    std::vector<std::size_t> counts;
  };
  const Frame frames[] = {
      {codec::encode(protocol::AgentMessage{request}),
       count_offsets(kRequestRowsAt, request.delta.changes)},
      {codec::encode(protocol::AgentMessage{protocol::Shutdown{kEpoch}}), {}},
      {codec::encode(response),
       count_offsets(kResponseRowsAt, response.improvement.placements)},
  };

  ActorHarness harness(cloud, model::ClusterId{0}, opts);
  int round = 0, applied = 0, refused = 0;
  long accepted = 0, rejected = 0, failures = 0;
  std::string first_failure;
  const auto fail = [&](const std::string& what, const std::string& bytes) {
    if (failures++ == 0)
      first_failure = what + " (" + std::to_string(bytes.size()) + " bytes)";
  };
  const auto check = [&](const std::string& bytes) {
    std::string error;
    if (const auto m = codec::decode_agent_message(bytes, &error)) {
      ++accepted;
      if (codec::encode(*m) != bytes)
        fail("agent frame re-encodes differently", bytes);
      if (const auto* req = std::get_if<protocol::ImproveRequest>(&*m)) {
        if (!within_contract(req->delta.changes))
          fail("request outside the decoder's contract", bytes);
        // A fresh round whose target is ahead of the replica, so the
        // actor checks (and, if they pass, applies) the mutant's rows.
        protocol::ImproveRequest ahead = *req;
        ahead.epoch = kEpoch;
        ahead.round = ++round;
        ahead.delta.base_version = 0;
        ahead.delta.target_version = round;
        if (!harness.send(protocol::AgentMessage{ahead})) {
          fail("actor channel closed", bytes);
          return;
        }
        const auto resp = harness.receive();
        if (!resp.has_value() || resp->round != round) {
          fail("actor did not answer", bytes);
          return;
        }
        ++(resp->applied ? applied : refused);
      }
    } else {
      ++rejected;
      if (error.empty()) fail("agent decoder gave no diagnostic", bytes);
    }
    error.clear();
    if (const auto m = codec::decode_manager_message(bytes, &error)) {
      ++accepted;
      if (codec::encode(*m) != bytes)
        fail("response re-encodes differently", bytes);
      if (!std::isfinite(m->improvement.profit_delta) ||
          !within_contract(m->improvement.placements))
        fail("response outside the decoder's contract", bytes);
    } else {
      ++rejected;
      if (error.empty()) fail("manager decoder gave no diagnostic", bytes);
    }
  };

  constexpr int kMutants = 100000;
  int mutants = 0;
  for (const Frame& f : frames) {
    check(f.bytes);
    for (std::size_t len = 0; len < f.bytes.size(); ++len, ++mutants)
      check(f.bytes.substr(0, len));
    for (std::size_t at : f.counts) {
      check(patched(f.bytes, at, 0xFFFFFFFF, 4));
      ++mutants;
    }
  }
  Rng rng(2027);
  for (; mutants < kMutants; ++mutants) {
    const Frame& f = frames[rng.index(3)];
    std::string m = f.bytes;
    const std::size_t ops = 1 + rng.index(3);
    for (std::size_t op = 0; op < ops; ++op) {
      const std::size_t kind = rng.index(6);
      if (m.empty() && kind != 2) continue;
      const std::size_t at = m.empty() ? 0 : rng.index(m.size());
      if (kind == 0) {
        m[at] = static_cast<char>(m[at] ^ (1 << rng.index(8)));
      } else if (kind == 1) {
        m[at] = static_cast<char>(rng.index(256));
      } else if (kind == 2) {
        m.insert(rng.index(m.size() + 1), 1 + rng.index(8),
                 static_cast<char>(rng.index(256)));
      } else if (kind == 3) {
        m.erase(at, 1 + rng.index(8));
      } else if (kind == 4) {
        m.resize(at);
      } else if (!f.counts.empty() && m.size() == f.bytes.size()) {
        m = patched(m, f.counts[rng.index(f.counts.size())], 0xFFFFFFFF, 4);
      }
    }
    check(m);
  }
  EXPECT_EQ(failures, 0) << first_failure;
  // The mutants reach both sides of every check.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
  EXPECT_GT(applied, 0);
  EXPECT_GT(refused, 0);
}

// A receiver that has a message, and reads stats() after it, sees the
// message's bytes: each send counts its bytes before it delivers.
TEST(TransportStats, ReceivedMessagesAreAlreadyCounted) {
  constexpr int kMessages = 20000;
  for (const bool faulty : {false, true}) {
    std::unique_ptr<Transport> transport = std::make_unique<ChannelTransport>(1);
    if (faulty)
      transport = std::make_unique<FaultyTransport>(std::move(transport),
                                                    FaultPlan{});
    std::thread agent([&transport] {
      for (int m = 0; m < kMessages; ++m)
        EXPECT_TRUE(transport->send_to_manager(0, std::string(64, 'x')));
    });
    std::size_t received = 0;
    long undercounted = 0;
    for (int m = 0; m < kMessages; ++m) {
      const auto envelope = transport->manager_receive_for(-1.0);
      ASSERT_TRUE(envelope.has_value());
      received += envelope->bytes.size();
      undercounted += transport->stats().bytes < received ? 1 : 0;
    }
    agent.join();
    EXPECT_EQ(undercounted, 0) << (faulty ? "faulty" : "channel");
    EXPECT_EQ(transport->stats().bytes, received);
  }
}

}  // namespace
}  // namespace cloudalloc::dist

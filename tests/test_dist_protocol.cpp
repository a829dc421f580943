// The wire protocol end to end: codec round trips are bitwise, malformed
// frames are rejected (never fatal), and AgentActor's versioned-delta
// replica follows the idempotence contract of dist/protocol.h.
#include <cmath>
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
      // Exact ==: the %.17g codec round-trips every double bit for bit.
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

TEST(Codec, MalformedFramesAreRejectedNotFatal) {
  const std::string cases[] = {
      "",
      "not json at all",
      "{}",
      R"({"proto":99,"type":"shutdown","epoch":1})",       // future proto
      R"({"proto":1,"epoch":1})",                          // missing type
      R"({"proto":1,"type":"no_such_type","epoch":1})",
      R"({"proto":1,"type":"improve_request","epoch":1})",  // missing body
      R"({"proto":1,"type":"improve_request","epoch":1,"round":0,)"
      R"("cluster":0,"delta":{"base":0,"target":1,"changes":[{"client":-7,)"
      R"("cluster":0,"placements":[]}]}})",                // negative client id
      // Integers that do not fit their field's type.
      R"({"proto":1.5,"type":"shutdown","epoch":1})",
      R"({"proto":1,"type":"shutdown","epoch":-1})",
      R"({"proto":1,"type":"shutdown","epoch":1e300})",
      R"({"proto":1,"type":"improve_request","epoch":1,"round":0,)"
      R"("cluster":4294967296,"delta":{"base":0,"target":1,"changes":[]}})",
      R"({"proto":1,"type":"improve_request","epoch":1,"round":0,)"
      R"("cluster":4294967297,"delta":{"base":0,"target":1,"changes":[]}})",
      R"({"proto":1,"type":"improve_request","epoch":1,"round":0,)"
      R"("cluster":2147483648,"delta":{"base":0,"target":1,"changes":[]}})",
      R"({"proto":1,"type":"improve_request","epoch":1,"round":0,)"
      R"("cluster":1e300,"delta":{"base":0,"target":1,"changes":[]}})",
      R"({"proto":1,"type":"improve_request","epoch":1,)"
      R"("round":2147483648,"cluster":0,)"
      R"("delta":{"base":0,"target":1,"changes":[]}})",
      R"({"proto":1,"type":"improve_request","epoch":1,"round":0,)"
      R"("cluster":0,"delta":{"base":0,"target":1e300,"changes":[]}})",
      // Nesting past the parser's depth cap.
      std::string(100000, '['),
      // A well-formed frame of a type the agent no longer serves.
      R"({"client":4,"cluster":0,"delta":{"base":1,"changes":[],"target":1},)"
      R"("epoch":42,"proto":1,"seq":19,"type":"bid_request"})",
  };
  for (const std::string& bytes : cases) {
    std::string error;
    EXPECT_FALSE(codec::decode_agent_message(bytes, &error).has_value())
        << bytes;
    EXPECT_FALSE(error.empty()) << bytes;
  }
  // Truncating a valid frame must fail cleanly too.
  protocol::ImproveRequest improve;
  improve.epoch = kEpoch;
  const std::string valid = codec::encode(protocol::AgentMessage{improve});
  EXPECT_FALSE(
      codec::decode_agent_message(valid.substr(0, valid.size() - 3)));
  // An agent message is not a manager message and vice versa, and the
  // manager accepts no frame type but improve_response.
  const std::string bid_response =
      R"({"applied":true,"cluster":2,"epoch":42,"feasible":true,)"
      R"("placements":[{"phi_n":0.5,"phi_p":0.5,"psi":1,"server":5}],)"
      R"("proto":1,"score":0.25,"seq":3,"type":"bid_response","version":9})";
  for (const std::string& bytes : {valid, bid_response}) {
    std::string error;
    EXPECT_FALSE(codec::decode_manager_message(bytes, &error).has_value())
        << bytes;
    EXPECT_FALSE(error.empty()) << bytes;
  }
  // The out-of-range cluster cases above differ from a frame that decodes
  // only in that field.
  const std::string in_range =
      R"({"proto":1,"type":"improve_request","epoch":1,"round":0,)"
      R"("cluster":2147483647,"delta":{"base":0,"target":1,"changes":[]}})";
  EXPECT_TRUE(codec::decode_agent_message(in_range).has_value());
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

// The wire protocol end to end: codec round trips are bitwise, malformed
// frames are rejected (never fatal), AgentActor's versioned-delta replica
// follows the idempotence contract of dist/protocol.h, and a greedy built
// purely from BidRequest/BidResponse exchanges prices insertions
// bit-identically to local ClusterAgent evaluation.
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
#include "model/evaluator.h"
#include "model/feasibility.h"
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

  protocol::BidRequest bid;
  bid.epoch = kEpoch;
  bid.seq = 19;
  bid.cluster = model::ClusterId{0};
  bid.client = model::ClientId{4};
  bid.delta.base_version = 1;
  bid.delta.target_version = 1;
  const std::string bid_bytes = codec::encode(protocol::AgentMessage{bid});
  const auto bid_decoded = codec::decode_agent_message(bid_bytes);
  ASSERT_TRUE(bid_decoded.has_value());
  EXPECT_EQ(codec::encode(*bid_decoded), bid_bytes);
  const auto* breq = std::get_if<protocol::BidRequest>(&*bid_decoded);
  ASSERT_NE(breq, nullptr);
  EXPECT_EQ(breq->seq, 19);
  EXPECT_EQ(breq->client, model::ClientId{4});

  const std::string bye =
      codec::encode(protocol::AgentMessage{protocol::Shutdown{kEpoch}});
  const auto bye_decoded = codec::decode_agent_message(bye);
  ASSERT_TRUE(bye_decoded.has_value());
  EXPECT_TRUE(std::holds_alternative<protocol::Shutdown>(*bye_decoded));
  EXPECT_EQ(codec::encode(*bye_decoded), bye);
}

TEST(Codec, ManagerMessagesRoundTripBitwise) {
  // Deliberately awkward doubles: non-terminating binary fractions and a
  // value one ulp away from 1.0 must survive the trip unchanged.
  protocol::BidResponse bid;
  bid.epoch = kEpoch;
  bid.seq = 3;
  bid.cluster = model::ClusterId{2};
  bid.state_version = 9;
  bid.applied = true;
  bid.feasible = true;
  bid.score = 0.1 + 0.2;
  bid.placements.push_back(
      model::Placement{model::ServerId{5}, 1.0 / 3.0,
                       std::nextafter(1.0, 2.0), 2.0 / 7.0});
  const std::string bytes = codec::encode(protocol::ManagerMessage{bid});
  const auto decoded = codec::decode_manager_message(bytes);
  ASSERT_TRUE(decoded.has_value());
  const auto* resp = std::get_if<protocol::BidResponse>(&*decoded);
  ASSERT_NE(resp, nullptr);
  EXPECT_EQ(resp->score, 0.1 + 0.2);
  ASSERT_EQ(resp->placements.size(), 1u);
  EXPECT_EQ(resp->placements[0].psi, 1.0 / 3.0);
  EXPECT_EQ(resp->placements[0].phi_p, std::nextafter(1.0, 2.0));
  EXPECT_EQ(resp->placements[0].phi_n, 2.0 / 7.0);
  EXPECT_EQ(codec::encode(*decoded), bytes);

  protocol::ImproveResponse improve;
  improve.epoch = kEpoch;
  improve.round = 2;
  improve.cluster = model::ClusterId{0};
  improve.state_version = 4;
  improve.applied = true;
  improve.improvement.cluster = model::ClusterId{0};
  improve.improvement.profit_delta = 1e-17;
  protocol::ClientPlacements evicted;
  evicted.client = model::ClientId{6};  // eviction row: kNoCluster, empty
  improve.improvement.placements.push_back(evicted);
  const std::string ibytes = codec::encode(protocol::ManagerMessage{improve});
  const auto idecoded = codec::decode_manager_message(ibytes);
  ASSERT_TRUE(idecoded.has_value());
  const auto* iresp = std::get_if<protocol::ImproveResponse>(&*idecoded);
  ASSERT_NE(iresp, nullptr);
  EXPECT_EQ(iresp->improvement.profit_delta, 1e-17);
  ASSERT_EQ(iresp->improvement.placements.size(), 1u);
  EXPECT_EQ(iresp->improvement.placements[0].cluster, model::kNoCluster);
  EXPECT_TRUE(iresp->improvement.placements[0].placements.empty());
  EXPECT_EQ(codec::encode(*idecoded), ibytes);
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
  // An agent message is not a manager message and vice versa.
  EXPECT_FALSE(codec::decode_manager_message(valid).has_value());
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
  std::optional<protocol::ManagerMessage> receive(std::string* raw = nullptr) {
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
  auto msg = harness.receive(&round1_bytes);
  ASSERT_TRUE(msg.has_value());
  auto* resp = std::get_if<protocol::ImproveResponse>(&*msg);
  ASSERT_NE(resp, nullptr);
  EXPECT_EQ(resp->round, 1);
  EXPECT_TRUE(resp->applied);
  EXPECT_EQ(resp->state_version, 1);
  EXPECT_FALSE(resp->improvement.placements.empty());

  // A delta whose base the replica never saw is refused; the response
  // reports the version actually held so the manager can rebase.
  ASSERT_TRUE(
      harness.send(protocol::AgentMessage{improve_request(2, 5, 6)}));
  msg = harness.receive();
  ASSERT_TRUE(msg.has_value());
  resp = std::get_if<protocol::ImproveResponse>(&*msg);
  ASSERT_NE(resp, nullptr);
  EXPECT_EQ(resp->round, 2);
  EXPECT_FALSE(resp->applied);
  EXPECT_EQ(resp->state_version, 1);  // replica untouched

  // Rebased delta from the reported version lands on the target.
  ASSERT_TRUE(harness.send(
      protocol::AgentMessage{improve_request(3, 1, 6, rows_of(alloc0))}));
  msg = harness.receive();
  ASSERT_TRUE(msg.has_value());
  resp = std::get_if<protocol::ImproveResponse>(&*msg);
  ASSERT_NE(resp, nullptr);
  EXPECT_TRUE(resp->applied);
  EXPECT_EQ(resp->state_version, 6);

  // A duplicated round-1 request (late network copy) is answered by
  // resending the cached encoded response VERBATIM — the replica, now at
  // version 6, is not regressed and the stages are not re-run.
  ASSERT_TRUE(harness.send(
      protocol::AgentMessage{improve_request(1, 0, 1, rows_of(alloc0))}));
  std::string duplicate_bytes;
  msg = harness.receive(&duplicate_bytes);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(duplicate_bytes, round1_bytes);

  // Messages for another epoch are ignored outright: no reply, no state
  // change (the next real exchange still sees version 6).
  ASSERT_TRUE(harness.send(protocol::AgentMessage{
      improve_request(9, 6, 7, {}, kEpoch + 1)}));
  ASSERT_TRUE(
      harness.send(protocol::AgentMessage{improve_request(4, 6, 6)}));
  msg = harness.receive();
  ASSERT_TRUE(msg.has_value());
  resp = std::get_if<protocol::ImproveResponse>(&*msg);
  ASSERT_NE(resp, nullptr);
  EXPECT_EQ(resp->round, 4);
  EXPECT_EQ(resp->state_version, 6);

  // A corrupted frame is skipped without killing the actor.
  ASSERT_TRUE(harness.transport().send_to_agent(0, "garbage {{{"));
  ASSERT_TRUE(
      harness.send(protocol::AgentMessage{improve_request(5, 6, 6)}));
  msg = harness.receive();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(std::get_if<protocol::ImproveResponse>(&*msg)->round, 5);

  // Polite shutdown ends the loop (the harness destructor would otherwise
  // end it via close_all — this exercises the Shutdown path).
  ASSERT_TRUE(harness.send(protocol::AgentMessage{protocol::Shutdown{kEpoch}}));
}

// --- remote bidding ------------------------------------------------------

// A greedy assignment driven purely by BidRequest/BidResponse exchanges
// prices every insertion bit-identically to calling the ClusterAgent core
// locally on an equally-rebuilt snapshot: the protocol adds serialization
// but no numeric drift.
TEST(AgentActor, GreedyByBidsMatchesLocalEvaluationBitwise) {
  workload::ScenarioParams params;
  params.num_clients = 10;
  params.servers_per_cluster = 4;
  const auto cloud = workload::make_scenario(params, 37);
  const int K = cloud.num_clusters();
  alloc::AllocatorOptions opts;
  opts.seed = 7;

  ChannelTransport transport(K);
  std::vector<std::unique_ptr<AgentActor>> actors;
  std::vector<std::thread> threads;
  for (int k = 0; k < K; ++k) {
    actors.push_back(std::make_unique<AgentActor>(
        cloud, model::ClusterId{k}, opts, kEpoch, &transport));
    // Capture the actor pointer, not the vector: a later push_back may
    // reallocate `actors` while this thread is already running.
    AgentActor* actor = actors.back().get();
    threads.emplace_back([actor] { actor->run(); });
  }

  // Manager-side ledger: dense rows + the authoritative state version.
  model::Allocation ledger(cloud);
  std::int64_t version = 0;
  std::vector<protocol::ClientPlacements> last_change;
  std::int64_t seq = 0;

  for (model::ClientId i : cloud.client_ids()) {
    // Broadcast: bring every replica to `version` (reliable transport, so
    // every agent sits exactly one delta behind) and price client i.
    for (int k = 0; k < K; ++k) {
      protocol::BidRequest req;
      req.epoch = kEpoch;
      req.seq = seq;
      req.cluster = model::ClusterId{k};
      req.client = i;
      req.delta.base_version = version > 0 ? version - 1 : 0;
      req.delta.target_version = version;
      req.delta.changes = last_change;
      ASSERT_TRUE(transport.send_to_agent(
          k, codec::encode(protocol::AgentMessage{req})));
    }
    // The local oracle sees a snapshot rebuilt exactly as the agents
    // rebuild theirs (same assign order, then settled).
    model::Allocation snapshot =
        protocol::rebuild_allocation(cloud, rows_of(ledger));
    (void)model::profit(snapshot);

    int best_cluster = -1;
    double best_score = 0.0;
    std::vector<model::Placement> best_placements;
    for (int n = 0; n < K; ++n) {
      auto env = transport.manager_receive_for(5000.0);
      ASSERT_TRUE(env.has_value());
      auto msg = codec::decode_manager_message(env->bytes);
      ASSERT_TRUE(msg.has_value());
      const auto* resp = std::get_if<protocol::BidResponse>(&*msg);
      ASSERT_NE(resp, nullptr);
      EXPECT_EQ(resp->seq, seq);
      EXPECT_TRUE(resp->applied);
      EXPECT_EQ(resp->state_version, version);

      const int k = resp->cluster.value();
      const auto local = ClusterAgent(resp->cluster, opts)
                             .evaluate_insertion(snapshot, i);
      ASSERT_EQ(resp->feasible, local.has_value()) << "cluster " << k;
      if (!resp->feasible) continue;
      EXPECT_EQ(resp->score, local->score) << "cluster " << k;  // bitwise
      ASSERT_EQ(resp->placements.size(), local->placements.size());
      for (std::size_t p = 0; p < resp->placements.size(); ++p) {
        EXPECT_EQ(resp->placements[p].server, local->placements[p].server);
        EXPECT_EQ(resp->placements[p].psi, local->placements[p].psi);
        EXPECT_EQ(resp->placements[p].phi_p, local->placements[p].phi_p);
        EXPECT_EQ(resp->placements[p].phi_n, local->placements[p].phi_n);
      }
      if (best_cluster < 0 || resp->score > best_score ||
          (resp->score == best_score && k < best_cluster)) {
        best_cluster = k;
        best_score = resp->score;
        best_placements = resp->placements;
      }
    }
    ++seq;
    if (best_cluster < 0) {
      last_change.clear();
      continue;  // version unchanged; next delta is empty
    }
    ledger.assign(i, model::ClusterId{best_cluster},
                  std::vector<model::Placement>(best_placements));
    protocol::ClientPlacements row;
    row.client = i;
    row.cluster = model::ClusterId{best_cluster};
    row.placements = best_placements;
    last_change.assign(1, std::move(row));
    ++version;
  }

  EXPECT_TRUE(model::is_feasible(ledger));
  int assigned = 0;
  for (model::ClientId i : cloud.client_ids())
    if (ledger.is_assigned(i)) ++assigned;
  EXPECT_GT(assigned, 0);

  for (int k = 0; k < K; ++k)
    (void)transport.send_to_agent(
        k, codec::encode(protocol::AgentMessage{protocol::Shutdown{kEpoch}}));
  transport.close_all();
  for (auto& t : threads) t.join();
}

}  // namespace
}  // namespace cloudalloc::dist

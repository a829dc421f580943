// Randomized robustness ("fuzz-lite") suites: feed the parser and the
// allocation state machine large volumes of random input and assert the
// strong invariants — no crashes, no aggregate drift, clean rejections.
#include <cmath>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "alloc/adjust_dispersion.h"
#include "alloc/adjust_shares.h"
#include "alloc/assign_distribute.h"
#include "alloc/reassign.h"
#include "alloc/server_power.h"
#include "common/json.h"
#include "common/rng.h"
#include "model/alloc_state.h"
#include "model/evaluator.h"
#include "model/feasibility.h"
#include "model/serialize.h"
#include "workload/scenario.h"

namespace cloudalloc {
namespace {

TEST(JsonFuzz, RandomBytesNeverCrash) {
  Rng rng(4242);
  for (int trial = 0; trial < 2000; ++trial) {
    const int len = static_cast<int>(rng.uniform_int(0, 64));
    std::string input;
    for (int i = 0; i < len; ++i)
      input += static_cast<char>(rng.uniform_int(1, 255));
    std::string error;
    const auto doc = Json::parse(input, &error);
    if (!doc) {
      EXPECT_FALSE(error.empty());
    }
  }
}

TEST(JsonFuzz, RandomJsonLikeTokensNeverCrash) {
  Rng rng(999);
  const char* tokens[] = {"{", "}", "[", "]", ",",    ":",    "\"a\"",
                          "1", "-", "e", "true", "null", "\\"};
  for (int trial = 0; trial < 2000; ++trial) {
    std::string input;
    const int len = static_cast<int>(rng.uniform_int(1, 24));
    for (int i = 0; i < len; ++i)
      input += tokens[rng.index(std::size(tokens))];
    (void)Json::parse(input);
  }
}

TEST(JsonFuzz, GeneratedDocumentsAlwaysRoundTrip) {
  Rng rng(7777);
  // Random document generator, depth-bounded.
  std::function<Json(int)> gen = [&](int depth) -> Json {
    const int kind = static_cast<int>(rng.uniform_int(0, depth <= 0 ? 3 : 5));
    switch (kind) {
      case 0:
        return Json(nullptr);
      case 1:
        return Json(rng.bernoulli(0.5));
      case 2:
        return Json(rng.uniform(-1e6, 1e6));
      case 3: {
        std::string s;
        const int len = static_cast<int>(rng.uniform_int(0, 12));
        for (int i = 0; i < len; ++i)
          s += static_cast<char>(rng.uniform_int(32, 126));
        return Json(std::move(s));
      }
      case 4: {
        JsonArray arr;
        const int len = static_cast<int>(rng.uniform_int(0, 5));
        for (int i = 0; i < len; ++i) arr.push_back(gen(depth - 1));
        return Json(std::move(arr));
      }
      default: {
        JsonObject obj;
        const int len = static_cast<int>(rng.uniform_int(0, 5));
        // Appended, not "k" + ...: GCC 12 warns -Wrestrict on that.
        for (int i = 0; i < len; ++i)
          obj.emplace(std::string("k").append(std::to_string(i)),
                      gen(depth - 1));
        return Json(std::move(obj));
      }
    }
  };
  for (int trial = 0; trial < 300; ++trial) {
    const Json doc = gen(4);
    const auto reparsed = Json::parse(doc.dump(trial % 3 == 0 ? 2 : -1));
    ASSERT_TRUE(reparsed.has_value());
    EXPECT_EQ(reparsed->dump(), doc.dump());
  }
}

TEST(SerializeFuzz, CorruptedCloudDocumentsRejectCleanly) {
  const auto cloud = workload::make_tiny_scenario(3);
  const std::string text = model::cloud_to_json(cloud).dump();
  Rng rng(31337);
  int parsed_ok = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::string corrupted = text;
    // Flip a few characters.
    const int flips = static_cast<int>(rng.uniform_int(1, 4));
    for (int f = 0; f < flips; ++f)
      corrupted[rng.index(corrupted.size())] =
          static_cast<char>(rng.uniform_int(32, 126));
    const auto doc = Json::parse(corrupted);
    if (!doc) continue;  // parse-level rejection: fine
    std::string error;
    // Schema-level rejection or success are both fine; death is not.
    // Value corruption that stays schema-valid may legitimately produce a
    // different cloud; a value pushed out of its domain is rejected like
    // a schema error (SerializeCloud.RejectsOutOfDomainParameters pins
    // each rule).
    const auto restored = model::cloud_from_json(*doc, &error);
    if (restored) ++parsed_ok;
  }
  // Some corruptions must have survived parsing across 400 trials;
  // the test's value is that none of them crashed.
  SUCCEED() << parsed_ok << " corrupted docs still deserialized";
}

TEST(AllocationFuzz, HeavyChurnKeepsAuditClean) {
  const auto cloud = workload::make_tiny_scenario(6);
  model::Allocation alloc(cloud);
  Rng rng(1717);
  for (int step = 0; step < 2000; ++step) {
    const auto i =
        static_cast<model::ClientId>(rng.index(
            static_cast<std::size_t>(cloud.num_clients())));
    if (alloc.is_assigned(i)) alloc.clear(i);
    if (rng.bernoulli(0.3)) continue;
    const auto k = model::ClusterId{static_cast<int>(rng.uniform_int(0, 1))};
    const auto& servers = cloud.cluster(k).servers;
    // Single- or two-server placements with conservative shares.
    if (rng.bernoulli(0.7)) {
      alloc.assign(i, k,
                   {model::Placement{servers[rng.index(servers.size())], 1.0,
                                     rng.uniform(0.0, 0.2),
                                     rng.uniform(0.0, 0.2)}});
    } else {
      alloc.assign(i, k,
                   {model::Placement{servers[0], 0.5, rng.uniform(0.0, 0.2),
                                     rng.uniform(0.0, 0.2)},
                    model::Placement{servers[1], 0.5, rng.uniform(0.0, 0.2),
                                     rng.uniform(0.0, 0.2)}});
    }
  }
  // The audit recomputes everything from scratch; only share/disk/load
  // bookkeeping errors would surface here (stability is not asserted: the
  // random shares are intentionally sloppy).
  for (model::ServerId j : cloud.server_ids()) {
    EXPECT_GE(alloc.used_phi_p(j), -1e-9);
    EXPECT_GE(alloc.used_disk(j), -1e-9);
  }
  const auto snapshot = alloc.clone();
  for (model::ClientId i : cloud.client_ids()) {
    EXPECT_EQ(snapshot.is_assigned(i), alloc.is_assigned(i));
    if (alloc.is_assigned(i)) alloc.clear(i);
  }
  // After clearing everyone, aggregates must return exactly to zero.
  for (model::ServerId j : cloud.server_ids()) {
    EXPECT_DOUBLE_EQ(alloc.used_phi_p(j), 0.0);
    EXPECT_DOUBLE_EQ(alloc.used_phi_n(j), 0.0);
    EXPECT_DOUBLE_EQ(alloc.used_disk(j), 0.0);
    EXPECT_DOUBLE_EQ(alloc.proc_load(j), 0.0);
  }
}

// Every parallel reduction in the allocator trusts the incremental
// model::profit() cache: per-start profits in the multi-start argmax, the
// before/after commit tests in the reassign apply phase. This fuzz drives
// the cache through randomized assign/clear/adjust sequences and asserts
// it always agrees with the from-scratch evaluate() oracle.
TEST(ProfitCacheFuzz, IncrementalMatchesScratchUnderRandomizedPasses) {
  workload::ScenarioParams params;
  params.num_clients = 14;
  params.servers_per_cluster = 4;
  const auto cloud = workload::make_scenario(params, 424242);
  alloc::AllocatorOptions opts;
  model::Allocation alloc(cloud);
  Rng rng(31415);

  const auto expect_cache_agrees = [&](int step) {
    const double incremental = model::profit(alloc);
    const double scratch = model::evaluate(alloc).profit;
    EXPECT_NEAR(incremental, scratch,
                1e-9 * std::max(1.0, std::fabs(scratch)))
        << "step " << step;
  };

  for (int step = 0; step < 400; ++step) {
    const auto action = rng.index(6);
    const auto i = static_cast<model::ClientId>(
        rng.index(static_cast<std::size_t>(cloud.num_clients())));
    switch (action) {
      case 0: {  // greedy (re)assign via the real insertion machinery
        if (alloc.is_assigned(i)) alloc.clear(i);
        auto plan = alloc::best_insertion(alloc.residual(), i, opts);
        if (plan) alloc.assign(i, plan->cluster, std::move(plan->placements));
        break;
      }
      case 1:
        if (alloc.is_assigned(i)) alloc.clear(i);
        break;
      default: {  // one engine pass: adopt the ledger, run, hand it back
        model::AllocState state(std::move(alloc));
        if (action == 2) {
          alloc::adjust_all_shares(state, opts);
        } else if (action == 3) {
          alloc::adjust_all_dispersions(state, opts);
        } else if (action == 4) {
          alloc::adjust_server_power(state, opts);
        } else {
          alloc::reassign_pass_snapshot(state, opts);
        }
        alloc = std::move(state).release();
        break;
      }
    }
    if (step % 7 == 0) expect_cache_agrees(step);
  }
  expect_cache_agrees(-1);
}

}  // namespace
}  // namespace cloudalloc

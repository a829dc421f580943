#include "model/serialize.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "alloc/allocator.h"
#include "model/evaluator.h"
#include "model/feasibility.h"
#include "workload/scenario.h"

namespace cloudalloc::model {
namespace {

TEST(SerializeCloud, RoundTripsTinyScenario) {
  const Cloud original = workload::make_tiny_scenario(4);
  const Json doc = cloud_to_json(original);
  std::string error;
  const auto restored = cloud_from_json(doc, &error);
  ASSERT_TRUE(restored.has_value()) << error;

  EXPECT_EQ(restored->num_clients(), original.num_clients());
  EXPECT_EQ(restored->num_servers(), original.num_servers());
  EXPECT_EQ(restored->num_clusters(), original.num_clusters());
  for (ClientId i : original.client_ids()) {
    EXPECT_DOUBLE_EQ(restored->client(i).lambda_pred,
                     original.client(i).lambda_pred);
    EXPECT_DOUBLE_EQ(restored->client(i).alpha_p, original.client(i).alpha_p);
    EXPECT_DOUBLE_EQ(restored->client(i).disk, original.client(i).disk);
    for (double r : {0.1, 1.0, 3.0})
      EXPECT_DOUBLE_EQ(restored->utility_of(i).value(r),
                       original.utility_of(i).value(r));
  }
  for (ServerId j : original.server_ids()) {
    EXPECT_EQ(restored->server(j).cluster, original.server(j).cluster);
    EXPECT_DOUBLE_EQ(restored->server_class_of(j).cap_p,
                     original.server_class_of(j).cap_p);
  }
}

TEST(SerializeCloud, RoundTripsThroughText) {
  const Cloud original =
      workload::make_scenario(workload::ScenarioParams{}, 77);
  const std::string text = cloud_to_json(original).dump(2);
  const auto doc = Json::parse(text);
  ASSERT_TRUE(doc.has_value());
  const auto restored = cloud_from_json(*doc);
  ASSERT_TRUE(restored.has_value());
  EXPECT_DOUBLE_EQ(restored->total_cap_p(), original.total_cap_p());
  EXPECT_DOUBLE_EQ(restored->total_demand_p(), original.total_demand_p());
}

TEST(SerializeCloud, PreservesStepUtilities) {
  std::vector<ServerClass> classes{
      ServerClass{ServerClassId{0}, "c", 4.0, 4.0, 4.0, 1.0, 1.0}};
  std::vector<UtilityClass> utilities{UtilityClass{
      UtilityClassId{0}, std::make_shared<StepUtility>(std::vector<double>{1.0, 2.0},
                                       std::vector<double>{5.0, 2.0})}};
  std::vector<Server> servers{Server{ServerId{0}, ClusterId{0}, ServerClassId{0}, {}}};
  std::vector<Cluster> clusters{Cluster{ClusterId{0}, "k", {ServerId{0}}}};
  Client c;
  c.id = ClientId{0};
  const Cloud original(classes, servers, clusters, utilities, {c});

  const auto restored = cloud_from_json(cloud_to_json(original));
  ASSERT_TRUE(restored.has_value());
  for (double r : {0.5, 1.0, 1.5, 2.0, 2.5})
    EXPECT_DOUBLE_EQ(restored->utility_of(ClientId{0}).value(r),
                     original.utility_of(ClientId{0}).value(r));
}

TEST(SerializeCloud, PreservesBackgroundLoad) {
  std::vector<ServerClass> classes{
      ServerClass{ServerClassId{0}, "c", 4.0, 4.0, 4.0, 1.0, 1.0}};
  std::vector<UtilityClass> utilities{
      UtilityClass{UtilityClassId{0}, std::make_shared<LinearUtility>(2.0, 0.5)}};
  Server sv{ServerId{0}, ClusterId{0}, ServerClassId{0},
            BackgroundLoad{0.25, 0.1, 1.5, true}};
  std::vector<Cluster> clusters{Cluster{ClusterId{0}, "k", {ServerId{0}}}};
  Client c;
  c.id = ClientId{0};
  const Cloud original(classes, {sv}, clusters, utilities, {c});

  const auto restored = cloud_from_json(cloud_to_json(original));
  ASSERT_TRUE(restored.has_value());
  EXPECT_DOUBLE_EQ(restored->server(ServerId{0}).background.phi_p, 0.25);
  EXPECT_DOUBLE_EQ(restored->server(ServerId{0}).background.disk, 1.5);
  EXPECT_TRUE(restored->server(ServerId{0}).background.keeps_on);
}

TEST(SerializeCloud, RejectsWrongFormat) {
  std::string error;
  EXPECT_FALSE(cloud_from_json(Json(JsonObject{}), &error).has_value());
  EXPECT_FALSE(error.empty());
  JsonObject o;
  o.emplace("format", "something.else");
  EXPECT_FALSE(cloud_from_json(Json(std::move(o))).has_value());
}

/// `doc` with entry `idx` of the first element of array `section` set to
/// `value`: field `key` of an object entry (added when absent), or the
/// whole entry of a list.
Json with_first(const Json& doc, const char* section, const char* key,
                std::size_t idx, Json value) {
  JsonObject root = doc.as_object();
  JsonArray list = root.at(section).as_array();
  JsonObject first = list[0].as_object();
  const auto field = first.find(key);
  if (field != first.end() && field->second.is_array()) {
    JsonArray entries = first.at(key).as_array();
    entries[idx] = std::move(value);
    first[key] = Json(std::move(entries));
  } else {
    first[key] = std::move(value);
  }
  list[0] = Json(std::move(first));
  root[section] = Json(std::move(list));
  return Json(std::move(root));
}

TEST(SerializeCloud, RejectsIdsThatAreNotInts) {
  // Cluster 0 lists servers 0 and 1; each value below replaces server 1,
  // so a decoder that truncates 1.5 would load the same cloud.
  const Json doc = cloud_to_json(workload::make_tiny_scenario(4));
  const Json& members = doc.at("clusters").as_array()[0].at("servers");
  ASSERT_EQ(members.as_array()[1].as_number(), 1.0);
  ASSERT_TRUE(cloud_from_json(doc).has_value());
  std::vector<Json> bad;
  for (double member : {1.5, 4294967297.0, 1e300})
    bad.push_back(with_first(doc, "clusters", "servers", 1, Json(member)));
  bad.push_back(with_first(doc, "servers", "id", 0, Json(1e300)));
  for (const Json& corrupt : bad) {
    std::string error;
    EXPECT_FALSE(cloud_from_json(corrupt, &error).has_value())
        << corrupt.dump();
    EXPECT_FALSE(error.empty()) << corrupt.dump();
  }
}

TEST(SerializeCloud, RejectsOutOfDomainParameters) {
  // One corrupted document per domain rule of Cloud's constructor: each
  // must come back as an error instead of reaching the CHECK.
  const Json doc = cloud_to_json(workload::make_tiny_scenario(4));
  const auto background = [](double phi_p, double phi_n, double disk) {
    JsonObject b;
    b.emplace("phi_p", phi_p);
    b.emplace("phi_n", phi_n);
    b.emplace("disk", disk);
    b.emplace("keeps_on", true);
    return Json(std::move(b));
  };
  ASSERT_TRUE(cloud_from_json(with_first(doc, "servers", "background", 0,
                                         background(0.2, 0.3, 1.0)))
                  .has_value());
  struct Corruption {
    const char* section;
    const char* key;
    Json value;
  };
  const std::vector<Corruption> corruptions = {
      // Server-class capacities and costs.
      {"server_classes", "cap_p", Json(0.0)},
      {"server_classes", "cap_n", Json(-1.0)},
      {"server_classes", "cap_m", Json(-0.5)},
      {"server_classes", "cost_fixed", Json(-1.0)},
      {"server_classes", "cost_per_util", Json(-1.0)},
      // Background shares and disk.
      {"servers", "background", background(-0.1, 0.3, 1.0)},
      {"servers", "background", background(1.5, 0.3, 1.0)},
      {"servers", "background", background(0.2, -0.1, 1.0)},
      {"servers", "background", background(0.2, 1.5, 1.0)},
      {"servers", "background", background(0.2, 0.3, -1.0)},
      // Class, cluster and utility references.
      {"servers", "server_class", Json(2)},
      {"servers", "server_class", Json(-1)},
      {"servers", "cluster", Json(2)},
      {"servers", "cluster", Json(-1)},
      {"clients", "utility_class", Json(2)},
      {"clients", "utility_class", Json(-1)},
      // Client rates, work and disk.
      {"clients", "lambda_pred", Json(0.0)},
      {"clients", "lambda_agreed", Json(-1.0)},
      {"clients", "alpha_p", Json(0.0)},
      {"clients", "alpha_n", Json(-1.0)},
      {"clients", "disk", Json(-0.5)},
  };
  for (const Corruption& bad : corruptions) {
    const Json corrupt = with_first(doc, bad.section, bad.key, 0, bad.value);
    std::string error;
    EXPECT_FALSE(cloud_from_json(corrupt, &error).has_value())
        << corrupt.dump();
    EXPECT_FALSE(error.empty()) << corrupt.dump();
  }
}

TEST(SerializeAllocation, RoundTripsSolvedAllocation) {
  const Cloud cloud = workload::make_tiny_scenario(4);
  const auto solved = alloc::ResourceAllocator().run(cloud);
  const Json doc = allocation_to_json(solved.allocation);

  std::string error;
  const auto restored = allocation_from_json(cloud, doc, &error);
  ASSERT_TRUE(restored.has_value()) << error;
  EXPECT_TRUE(is_feasible(*restored));
  EXPECT_DOUBLE_EQ(profit(*restored), profit(solved.allocation));
  for (ClientId i : cloud.client_ids()) {
    EXPECT_EQ(restored->cluster_of(i), solved.allocation.cluster_of(i));
    EXPECT_EQ(restored->placements(i).size(),
              solved.allocation.placements(i).size());
  }
}

TEST(SerializeAllocation, UnassignedClientsStayUnassigned) {
  const Cloud cloud = workload::make_tiny_scenario(3);
  Allocation partial(cloud);
  partial.assign(ClientId{1}, ClusterId{0}, {Placement{ServerId{0}, 1.0, 0.5, 0.5}});
  const auto restored =
      allocation_from_json(cloud, allocation_to_json(partial));
  ASSERT_TRUE(restored.has_value());
  EXPECT_FALSE(restored->is_assigned(ClientId{0}));
  EXPECT_TRUE(restored->is_assigned(ClientId{1}));
  EXPECT_FALSE(restored->is_assigned(ClientId{2}));
}

TEST(SerializeAllocation, RejectsOutOfRangeIds) {
  const Cloud cloud = workload::make_tiny_scenario(2);
  Allocation alloc(cloud);
  alloc.assign(ClientId{0}, ClusterId{0}, {Placement{ServerId{0}, 1.0, 0.5, 0.5}});
  Json doc = allocation_to_json(alloc);
  // Corrupt the client id.
  JsonObject root = doc.as_object();
  JsonArray assignments = root.at("assignments").as_array();
  JsonObject entry = assignments[0].as_object();
  entry["client"] = Json(99);
  assignments[0] = Json(std::move(entry));
  root["assignments"] = Json(std::move(assignments));
  std::string error;
  EXPECT_FALSE(
      allocation_from_json(cloud, Json(std::move(root)), &error).has_value());
  EXPECT_NE(error.find("client"), std::string::npos);
}

TEST(SerializeFiles, SaveAndLoadRoundTrip) {
  const std::string path = "/tmp/cloudalloc_test_file.json";
  ASSERT_TRUE(save_text_file(path, "{\"x\": 1}"));
  const auto text = load_text_file(path);
  ASSERT_TRUE(text.has_value());
  EXPECT_EQ(*text, "{\"x\": 1}");
  EXPECT_FALSE(load_text_file("/nonexistent/dir/file.json").has_value());
}

}  // namespace
}  // namespace cloudalloc::model

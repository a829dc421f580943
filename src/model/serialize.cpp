#include "model/serialize.h"

#include <fstream>
#include <sstream>

#include "common/check.h"

namespace cloudalloc::model {
namespace {

Json utility_to_json(const UtilityFunction& fn) {
  if (const auto* linear = dynamic_cast<const LinearUtility*>(&fn)) {
    JsonObject o;
    o.emplace("kind", "linear");
    o.emplace("u0", linear->u0());
    o.emplace("s", linear->s());
    return Json(std::move(o));
  }
  if (const auto* tail = dynamic_cast<const TailLatencyUtility*>(&fn)) {
    JsonObject o;
    o.emplace("kind", "tail");
    o.emplace("percentile", tail->percentile());
    o.emplace("inner", utility_to_json(tail->inner()));
    return Json(std::move(o));
  }
  const auto* step = dynamic_cast<const StepUtility*>(&fn);
  CHECK_MSG(step != nullptr, "unknown utility kind for serialization");
  JsonObject o;
  o.emplace("kind", "step");
  JsonArray thresholds, values;
  for (double t : step->thresholds()) thresholds.emplace_back(t);
  for (double v : step->values()) values.emplace_back(v);
  o.emplace("thresholds", std::move(thresholds));
  o.emplace("values", std::move(values));
  return Json(std::move(o));
}

/// Structural reader over untrusted documents: every accessor degrades to
/// a recorded error instead of a CHECK, so corrupted files reject cleanly.
class Reader {
 public:
  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  void fail(const std::string& message) {
    if (ok_) {
      ok_ = false;
      error_ = message;
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

  int integer(const Json& node, const char* key) {
    const double d = num(node, key);
    const std::optional<int> v = exact_integer<int>(d);
    if (!v) fail(std::string("not an integer in range: ") + key);
    return v.value_or(0);
  }

  std::string str(const Json& node, const char* key) {
    const Json* v = node.find(key);
    if (v == nullptr || !v->is_string()) {
      fail(std::string("missing/invalid string: ") + key);
      return {};
    }
    return v->as_string();
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

std::shared_ptr<const UtilityFunction> utility_from_json(const Json& doc,
                                                         Reader& reader) {
  const std::string kind = reader.str(doc, "kind");
  if (!reader.ok()) return nullptr;
  if (kind == "linear") {
    const double u0 = reader.num(doc, "u0");
    const double s = reader.num(doc, "s");
    if (!reader.ok()) return nullptr;
    if (u0 < 0.0 || s < 0.0) {
      reader.fail("linear utility parameters out of domain");
      return nullptr;
    }
    return std::make_shared<LinearUtility>(u0, s);
  }
  if (kind == "tail") {
    const double percentile = reader.num(doc, "percentile");
    const Json* inner = doc.find("inner");
    if (!reader.ok() || inner == nullptr || percentile <= 0.0 ||
        percentile >= 1.0) {
      reader.fail("tail utility parameters out of domain");
      return nullptr;
    }
    auto inner_fn = utility_from_json(*inner, reader);
    if (!reader.ok() || inner_fn == nullptr) return nullptr;
    return std::make_shared<TailLatencyUtility>(std::move(inner_fn),
                                                percentile);
  }
  if (kind == "step") {
    std::vector<double> thresholds, values;
    for (const auto& t : reader.array(doc, "thresholds")) {
      if (!t.is_number()) {
        reader.fail("step threshold not a number");
        return nullptr;
      }
      thresholds.push_back(t.as_number());
    }
    for (const auto& v : reader.array(doc, "values")) {
      if (!v.is_number()) {
        reader.fail("step value not a number");
        return nullptr;
      }
      values.push_back(v.as_number());
    }
    if (!reader.ok()) return nullptr;
    // Pre-validate what StepUtility's constructor CHECKs.
    if (thresholds.empty() || thresholds.size() != values.size()) {
      reader.fail("step utility shape invalid");
      return nullptr;
    }
    for (std::size_t b = 0; b < thresholds.size(); ++b) {
      const bool ordered =
          thresholds[b] > 0.0 && values[b] > 0.0 &&
          (b == 0 || (thresholds[b] > thresholds[b - 1] &&
                      values[b] < values[b - 1]));
      if (!ordered) {
        reader.fail("step utility not strictly monotone");
        return nullptr;
      }
    }
    return std::make_shared<StepUtility>(std::move(thresholds),
                                         std::move(values));
  }
  reader.fail("unknown utility kind");
  return nullptr;
}

}  // namespace

Json cloud_to_json(const Cloud& cloud) {
  JsonObject root;
  root.emplace("format", "cloudalloc.cloud");
  root.emplace("version", 1);

  JsonArray classes;
  for (const auto& sc : cloud.server_classes()) {
    JsonObject o;
    o.emplace("id", sc.id.value());
    o.emplace("name", sc.name);
    o.emplace("cap_p", sc.cap_p);
    o.emplace("cap_n", sc.cap_n);
    o.emplace("cap_m", sc.cap_m);
    o.emplace("cost_fixed", sc.cost_fixed);
    o.emplace("cost_per_util", sc.cost_per_util);
    classes.emplace_back(std::move(o));
  }
  root.emplace("server_classes", std::move(classes));

  JsonArray servers;
  for (const auto& sv : cloud.servers()) {
    JsonObject o;
    o.emplace("id", sv.id.value());
    o.emplace("cluster", sv.cluster.value());
    o.emplace("server_class", sv.server_class.value());
    if (sv.background.phi_p != 0.0 || sv.background.phi_n != 0.0 ||
        sv.background.disk != 0.0 || sv.background.keeps_on) {
      JsonObject b;
      b.emplace("phi_p", sv.background.phi_p);
      b.emplace("phi_n", sv.background.phi_n);
      b.emplace("disk", sv.background.disk);
      b.emplace("keeps_on", sv.background.keeps_on);
      o.emplace("background", std::move(b));
    }
    servers.emplace_back(std::move(o));
  }
  root.emplace("servers", std::move(servers));

  JsonArray clusters;
  for (const auto& cl : cloud.clusters()) {
    JsonObject o;
    o.emplace("id", cl.id.value());
    o.emplace("name", cl.name);
    JsonArray members;
    for (ServerId j : cl.servers) members.emplace_back(j.value());
    o.emplace("servers", std::move(members));
    clusters.emplace_back(std::move(o));
  }
  root.emplace("clusters", std::move(clusters));

  JsonArray utilities;
  for (const auto& uc : cloud.utility_classes()) {
    JsonObject o;
    o.emplace("id", uc.id.value());
    o.emplace("fn", utility_to_json(*uc.fn));
    utilities.emplace_back(std::move(o));
  }
  root.emplace("utility_classes", std::move(utilities));

  JsonArray clients;
  for (const auto& c : cloud.clients()) {
    JsonObject o;
    o.emplace("id", c.id.value());
    o.emplace("utility_class", c.utility_class.value());
    o.emplace("lambda_pred", c.lambda_pred);
    o.emplace("lambda_agreed", c.lambda_agreed);
    o.emplace("alpha_p", c.alpha_p);
    o.emplace("alpha_n", c.alpha_n);
    o.emplace("disk", c.disk);
    clients.emplace_back(std::move(o));
  }
  root.emplace("clients", std::move(clients));
  return Json(std::move(root));
}

std::optional<Cloud> cloud_from_json(const Json& doc, std::string* error) {
  auto fail = [error](const std::string& message) -> std::optional<Cloud> {
    if (error != nullptr) *error = message;
    return std::nullopt;
  };
  const Json* format = doc.find("format");
  if (format == nullptr || !format->is_string() ||
      format->as_string() != "cloudalloc.cloud")
    return fail("not a cloudalloc.cloud document");

  Reader reader;
  std::vector<ServerClass> server_classes;
  for (const auto& node : reader.array(doc, "server_classes")) {
    ServerClass sc;
    sc.id = ServerClassId{reader.integer(node, "id")};
    sc.name = reader.str(node, "name");
    sc.cap_p = reader.num(node, "cap_p");
    sc.cap_n = reader.num(node, "cap_n");
    sc.cap_m = reader.num(node, "cap_m");
    sc.cost_fixed = reader.num(node, "cost_fixed");
    sc.cost_per_util = reader.num(node, "cost_per_util");
    if (!reader.ok()) return fail(reader.error());
    // Pre-validate what Cloud's constructor CHECKs, so untrusted files
    // reject instead of aborting.
    if (sc.id != ServerClassId{static_cast<int>(server_classes.size())} ||
        sc.cap_p <= 0.0 || sc.cap_n <= 0.0 || sc.cap_m < 0.0 ||
        sc.cost_fixed < 0.0 || sc.cost_per_util < 0.0)
      return fail("server class out of domain");
    server_classes.push_back(std::move(sc));
  }

  std::vector<Server> servers;
  for (const auto& node : reader.array(doc, "servers")) {
    Server sv;
    sv.id = ServerId{reader.integer(node, "id")};
    sv.cluster = ClusterId{reader.integer(node, "cluster")};
    sv.server_class = ServerClassId{reader.integer(node, "server_class")};
    if (const Json* b = node.find("background")) {
      sv.background.phi_p = reader.num(*b, "phi_p");
      sv.background.phi_n = reader.num(*b, "phi_n");
      sv.background.disk = reader.num(*b, "disk");
      sv.background.keeps_on = reader.boolean(*b, "keeps_on");
    }
    if (!reader.ok()) return fail(reader.error());
    if (sv.id != ServerId{static_cast<int>(servers.size())} ||
        !sv.server_class.valid() ||
        sv.server_class.index() >= server_classes.size() ||
        sv.background.phi_p < 0.0 || sv.background.phi_p > 1.0 ||
        sv.background.phi_n < 0.0 || sv.background.phi_n > 1.0 ||
        sv.background.disk < 0.0)
      return fail("server out of domain");
    servers.push_back(sv);
  }

  std::vector<Cluster> clusters;
  std::vector<bool> server_seen(servers.size(), false);
  for (const auto& node : reader.array(doc, "clusters")) {
    Cluster cl;
    cl.id = ClusterId{reader.integer(node, "id")};
    cl.name = reader.str(node, "name");
    for (const auto& member : reader.array(node, "servers")) {
      const std::optional<int> id =
          member.is_number() ? exact_integer<int>(member.as_number())
                             : std::nullopt;
      if (!id) return fail("cluster member not an id");
      cl.servers.push_back(ServerId{*id});
    }
    if (!reader.ok()) return fail(reader.error());
    if (cl.id != ClusterId{static_cast<int>(clusters.size())})
      return fail("cluster ids not dense");
    for (ServerId j : cl.servers) {
      if (!j.valid() || j.index() >= servers.size())
        return fail("cluster references unknown server");
      if (server_seen[j.index()]) return fail("server in two clusters");
      server_seen[j.index()] = true;
      if (servers[j.index()].cluster != cl.id)
        return fail("server/cluster mismatch");
    }
    clusters.push_back(std::move(cl));
  }
  for (std::size_t j = 0; j < servers.size(); ++j)
    if (!server_seen[j]) return fail("server not listed in any cluster");

  std::vector<UtilityClass> utility_classes;
  for (const auto& node : reader.array(doc, "utility_classes")) {
    UtilityClass uc;
    uc.id = UtilityClassId{reader.integer(node, "id")};
    const Json* fn = node.find("fn");
    if (fn == nullptr) return fail("utility class missing fn");
    uc.fn = utility_from_json(*fn, reader);
    if (!reader.ok()) return fail(reader.error());
    if (uc.id != UtilityClassId{static_cast<int>(utility_classes.size())})
      return fail("utility class ids not dense");
    utility_classes.push_back(std::move(uc));
  }

  std::vector<Client> clients;
  for (const auto& node : reader.array(doc, "clients")) {
    Client c;
    c.id = ClientId{reader.integer(node, "id")};
    c.utility_class = UtilityClassId{reader.integer(node, "utility_class")};
    c.lambda_pred = reader.num(node, "lambda_pred");
    c.lambda_agreed = reader.num(node, "lambda_agreed");
    c.alpha_p = reader.num(node, "alpha_p");
    c.alpha_n = reader.num(node, "alpha_n");
    c.disk = reader.num(node, "disk");
    if (!reader.ok()) return fail(reader.error());
    if (c.id != ClientId{static_cast<int>(clients.size())} ||
        !c.utility_class.valid() ||
        c.utility_class.index() >= utility_classes.size() ||
        c.lambda_pred <= 0.0 || c.lambda_agreed <= 0.0 || c.alpha_p <= 0.0 ||
        c.alpha_n <= 0.0 || c.disk < 0.0)
      return fail("client out of domain");
    clients.push_back(c);
  }
  if (!reader.ok()) return fail(reader.error());

  return Cloud(std::move(server_classes), std::move(servers),
               std::move(clusters), std::move(utility_classes),
               std::move(clients));
}

namespace {

/// One placement slice -> JSON ({server, psi, phi_p, phi_n}); doubles are
/// emitted round-trip exactly, so a saved allocation reloads bitwise.
Json placement_to_json(const Placement& p) {
  JsonObject pj;
  pj.emplace("server", p.server.value());
  pj.emplace("psi", p.psi);
  pj.emplace("phi_p", p.phi_p);
  pj.emplace("phi_n", p.phi_n);
  return Json(std::move(pj));
}

/// JSON -> Placement. Structural validation only (fields present and
/// numeric, server id non-negative); the cloud-dependent checks are
/// assign_violation's.
std::optional<Placement> placement_from_json(const Json& node,
                                             std::string* error) {
  Reader reader;
  Placement p;
  p.server = ServerId{reader.integer(node, "server")};
  p.psi = reader.num(node, "psi");
  p.phi_p = reader.num(node, "phi_p");
  p.phi_n = reader.num(node, "phi_n");
  if (reader.ok() && !p.server.valid()) reader.fail("negative server id");
  if (!reader.ok()) {
    if (error != nullptr) *error = reader.error();
    return std::nullopt;
  }
  return p;
}

}  // namespace

Json allocation_to_json(const Allocation& alloc) {
  JsonObject root;
  root.emplace("format", "cloudalloc.allocation");
  root.emplace("version", 1);
  JsonArray clients;
  for (ClientId i : alloc.cloud().client_ids()) {
    if (!alloc.is_assigned(i)) continue;
    JsonObject o;
    o.emplace("client", i.value());
    o.emplace("cluster", alloc.cluster_of(i).value());
    JsonArray placements;
    for (const auto& p : alloc.placements(i))
      placements.emplace_back(placement_to_json(p));
    o.emplace("placements", std::move(placements));
    clients.emplace_back(std::move(o));
  }
  root.emplace("assignments", std::move(clients));
  return Json(std::move(root));
}

std::optional<Allocation> allocation_from_json(const Cloud& cloud,
                                               const Json& doc,
                                               std::string* error) {
  auto fail = [error](const char* message) -> std::optional<Allocation> {
    if (error != nullptr) *error = message;
    return std::nullopt;
  };
  const Json* format = doc.find("format");
  if (format == nullptr || !format->is_string() ||
      format->as_string() != "cloudalloc.allocation")
    return fail("not a cloudalloc.allocation document");
  const Json* assignments = doc.find("assignments");
  if (assignments == nullptr || !assignments->is_array())
    return fail("missing assignments");

  Reader reader;
  Allocation alloc(cloud);
  for (const auto& node : assignments->as_array()) {
    const ClientId i{reader.integer(node, "client")};
    const ClusterId k{reader.integer(node, "cluster")};
    if (!reader.ok()) return fail(reader.error().c_str());
    if (!i.valid() || i.value() >= cloud.num_clients()) return fail("client id range");
    if (!k.valid() || k.value() >= cloud.num_clusters()) return fail("cluster id range");
    if (alloc.is_assigned(i)) return fail("client assigned twice");
    std::vector<Placement> placements;
    for (const auto& pj : reader.array(node, "placements")) {
      std::string perr;
      const auto parsed = placement_from_json(pj, &perr);
      if (!parsed) return fail(perr.c_str());
      placements.push_back(*parsed);
    }
    // Pre-validate what Allocation::assign CHECKs.
    if (const char* violation = assign_violation(cloud, i, k, placements))
      return fail(violation);
    alloc.assign(i, k, std::move(placements));
  }
  return alloc;
}

bool save_text_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << contents;
  return static_cast<bool>(out);
}

std::optional<std::string> load_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace cloudalloc::model

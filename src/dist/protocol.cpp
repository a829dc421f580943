#include "dist/protocol.h"

#include "model/cloud.h"

namespace cloudalloc::dist::protocol {
namespace {

/// A row that places its client; any other row leaves the client
/// unassigned (an eviction).
bool assigns(const ClientPlacements& row) {
  return row.cluster != model::kNoCluster && !row.placements.empty();
}

}  // namespace

model::Allocation rebuild_allocation(
    const model::Cloud& cloud, const std::vector<ClientPlacements>& rows) {
  model::Allocation alloc(cloud);
  for (const ClientPlacements& row : rows) {
    if (!assigns(row)) continue;
    alloc.assign(row.client, row.cluster,
                 std::vector<model::Placement>(row.placements));
  }
  return alloc;
}

const char* row_violation(const model::Cloud& cloud,
                          const ClientPlacements& row) {
  if (!row.client.valid() || row.client.value() >= cloud.num_clients())
    return "client id out of range";
  if (!assigns(row)) return nullptr;
  return model::assign_violation(cloud, row.client, row.cluster,
                                 row.placements);
}

const char* improvement_violation(const model::Cloud& cloud,
                                  const ClusterImprovement& improvement) {
  for (const ClientPlacements& row : improvement.placements) {
    if (const char* violation = row_violation(cloud, row)) return violation;
    if (assigns(row) && row.cluster != improvement.cluster)
      return "row assigns a client outside the reporting cluster";
  }
  return nullptr;
}

}  // namespace cloudalloc::dist::protocol

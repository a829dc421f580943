// JSON (de)serialization for the system model: scenarios (Cloud) and
// solutions (Allocation) become portable, diffable artifacts — run an
// experiment, save both, reload them elsewhere, and re-audit or re-simulate
// the exact same state.
//
// Format versioning: every document carries {"format": "...", "version": 1}.
// Utility functions serialize by shape ("linear" with u0/s, "step" with
// thresholds/values).
#pragma once

#include <optional>
#include <string>

#include "common/json.h"
#include "model/allocation.h"
#include "model/cloud.h"

namespace cloudalloc::model {

/// Cloud -> JSON document (stable, human-readable with dump(2)).
Json cloud_to_json(const Cloud& cloud);

/// JSON -> Cloud. Returns nullopt (and a message in *error) on schema
/// violations and on any parameter outside the domain Cloud's constructor
/// CHECKs, so a corrupted document is rejected instead of aborting.
std::optional<Cloud> cloud_from_json(const Json& doc,
                                     std::string* error = nullptr);

/// One placement slice -> JSON ({server, psi, phi_p, phi_n}). Doubles are
/// emitted round-trip exactly (%.17g), so encode/decode is bitwise
/// lossless — the dist wire codec relies on this for bit-identical runs.
Json placement_to_json(const Placement& p);

/// JSON -> Placement. Structural validation only (fields present and
/// numeric, server id non-negative); cloud-dependent checks (id range,
/// cluster membership, psi domain) stay with the caller, which knows the
/// cloud. Returns nullopt (and a message in *error) on malformed nodes.
std::optional<Placement> placement_from_json(const Json& node,
                                             std::string* error = nullptr);

/// Allocation (placements + cluster map) -> JSON. The document references
/// the cloud's client/server ids, not its contents.
Json allocation_to_json(const Allocation& alloc);

/// JSON -> Allocation bound to `cloud`. Validates id ranges and placement
/// invariants (via Allocation::assign's checks) against that cloud.
std::optional<Allocation> allocation_from_json(const Cloud& cloud,
                                               const Json& doc,
                                               std::string* error = nullptr);

/// Whole-file helpers.
bool save_text_file(const std::string& path, const std::string& contents);
std::optional<std::string> load_text_file(const std::string& path);

}  // namespace cloudalloc::model

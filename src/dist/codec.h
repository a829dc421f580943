// Wire codec for the dist protocol: protocol structs <-> JSON <-> bytes.
//
// Built on common/json (whose number emission is %.17g, i.e. doubles
// round-trip bit-exactly) and model/serialize's placement helpers, so an
// encode/decode round trip reproduces every psi/phi and profit delta
// bitwise — the foundation of the guarantee that a fault-free distributed
// run is bit-identical to the same rounds run in one address space.
//
// Decoding is defensive: a malformed or truncated buffer yields nullopt
// (with a diagnostic in *error), never a CHECK — a faulty transport must
// not be able to crash the manager or an agent.
#pragma once

#include <optional>
#include <string>

#include "dist/protocol.h"

namespace cloudalloc::dist::codec {

/// Message -> compact JSON bytes (self-describing via a "type" field).
std::string encode(const protocol::AgentMessage& message);
std::string encode(const protocol::ImproveResponse& message);

/// Bytes -> message; nullopt on malformed input, and on a frame of any
/// type the receiving side does not accept.
std::optional<protocol::AgentMessage> decode_agent_message(
    const std::string& bytes, std::string* error = nullptr);
std::optional<protocol::ImproveResponse> decode_manager_message(
    const std::string& bytes, std::string* error = nullptr);

}  // namespace cloudalloc::dist::codec

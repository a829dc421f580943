// Wire codec for the dist protocol: protocol structs <-> bytes.
//
// Every message is one fixed-width binary frame, little-endian whatever
// the host's byte order:
//
//   u8 kProtocolVersion, u8 type tag, u64 epoch, then by type
//     ImproveRequest (tag 1):  i32 round, i32 cluster, i64 base_version,
//                              i64 target_version, rows
//     Shutdown (tag 2):        nothing more
//     ImproveResponse (tag 3): i32 round, i32 cluster, i64 state_version,
//                              u8 applied (0 or 1), f64 profit_delta, rows
//   rows = u32 row count, then per row i32 client, i32 cluster and a u32
//          placement count, then per placement i32 server, f64 psi,
//          f64 phi_p, f64 phi_n
//
// An f64 is the raw IEEE-754 bits of the double, so an encode/decode
// round trip reproduces every psi/phi and profit delta bitwise: the
// foundation of the guarantee that a fault-free distributed run is
// bit-identical to the same rounds run in one address space.
//
// Decoding is defensive: a malformed or truncated buffer yields nullopt
// (with a diagnostic in *error), never a CHECK — a faulty transport must
// not be able to crash the manager or an agent. Every count is checked
// against the bytes left before anything is allocated, and a frame is
// refused for trailing bytes, an unknown version or type tag, a negative
// client or server id, an `applied` byte other than 0 or 1, or a
// non-finite double. Every frame that decodes re-encodes to the same
// bytes.
#pragma once

#include <optional>
#include <string>

#include "dist/protocol.h"

namespace cloudalloc::dist::codec {

/// Message -> one binary frame (self-describing via its type tag).
std::string encode(const protocol::AgentMessage& message);
std::string encode(const protocol::ImproveResponse& message);

/// Bytes -> message; nullopt on malformed input, and on a frame of any
/// type the receiving side does not accept.
std::optional<protocol::AgentMessage> decode_agent_message(
    const std::string& bytes, std::string* error = nullptr);
std::optional<protocol::ImproveResponse> decode_manager_message(
    const std::string& bytes, std::string* error = nullptr);

}  // namespace cloudalloc::dist::codec

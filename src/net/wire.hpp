#pragma once
// Line-framed JSON wire protocol for the lease coordinator.
//
// Every message is one compact JSON object terminated by '\n' — trivially
// observable with netcat, trivially relayed (and corrupted on purpose) by
// the fault-injection proxy, and deterministic to serialize (sorted keys).
//
// Session shape: a client connects and sends a versioned hello carrying
// the full campaign configuration fingerprint and lease geometry; the
// coordinator refuses mismatches at connect ("fatal": true — do not
// retry) and accepts everything else.  After the hello, each request
// carries a client-chosen monotonically increasing "seq"; the response
// echoes it, which is what keeps a duplicated or delayed frame (injected
// by the proxy, or a retry racing a slow response) from desynchronizing
// the request/response stream: a client simply discards responses whose
// seq is below the one it is waiting for.
//
// Requests (after hello):
//   {"op":"claim","lease":k,"seq":n}     -> {"ok":true,"acquired":b,"seq":n}
//   {"op":"age","lease":k,...}           -> {"ok":true,"age":s}   (-1: free)
//   {"op":"steal","lease":k,...}         -> {"ok":true,"stolen":b}
//   {"op":"heartbeat","lease":k,...}     -> {"ok":true,"beating":b}
//   {"op":"publish","block":{...},...}   -> {"ok":true}
//   {"op":"release","lease":k,...}       -> {"ok":true}
//   {"op":"reap","lease":k,...}          -> {"ok":true,"reaped":b}
//   {"op":"done","lease":k,...}          -> {"ok":true,"done":b}
//   {"op":"list_done",...}               -> {"ok":true,"done":[k,...]}
// Errors: {"ok":false,"error":"...","fatal":b,"seq":n}.  Non-fatal errors
// are retryable (transient server conditions); fatal ones mean the client
// is wrong (bad hello, malformed op) and must not retry.
//
// At-least-once safety mirrors the filesystem board: claim is idempotent
// for the claim's own worker, publish accepts duplicate blocks (their
// bytes are identical by the determinism invariant), and release/steal on
// an unexpected state degrade to "lost the race", never to corruption.

#include <string>

#include "net/socket.hpp"
#include "support/json.hpp"

namespace gpudiff::net {

/// Wire protocol version, carried by every hello.  Bump on any change to
/// message shapes; the coordinator refuses other versions at connect.
inline constexpr int kWireVersion = 1;

/// Send one message as a compact JSON line.
IoStatus send_message(Socket& socket, const support::Json& message,
                      double timeout_seconds);

/// Receive one message line and parse it.  A line that is not a JSON
/// object (malformed, or nested deeper than Json::kMaxDepth) returns Error
/// (the connection is desynchronized beyond repair) and, when `malformed`
/// is given, stores why there.
IoStatus recv_message(Socket& socket, support::Json* message,
                      double timeout_seconds,
                      std::string* malformed = nullptr);

/// Server side of a failed recv_message: a malformed line is answered
/// with a fatal error response (seq 0: the line carried none that can be
/// trusted) before the caller drops the connection.
void refuse_malformed(Socket& socket, const std::string& malformed,
                      double timeout_seconds);

/// Client side of one request/response exchange under the seq discipline:
/// stamp `request` with `seq`, send it, then read until the response
/// echoing `seq` arrives — frames with a lower seq are stale duplicates
/// and are discarded, a higher seq means the stream is desynchronized
/// (returned as Error).  Both the worker transport and the store query
/// clients speak this exchange; the caller owns seq monotonicity.
IoStatus request_response(Socket& socket, support::Json request,
                          std::int64_t seq, support::Json* response,
                          double timeout_seconds);

/// {"ok":true,"seq":seq} — extend with op-specific fields.
support::Json ok_response(std::int64_t seq);
/// {"ok":false,"error":error,"fatal":fatal,"seq":seq}
support::Json error_response(std::int64_t seq, const std::string& error,
                             bool fatal);

}  // namespace gpudiff::net

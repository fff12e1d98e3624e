// fepiad wire protocol: length-prefixed JSON frames over a stream
// socket. Payloads are read and written with obs/json.hpp, the repo's
// one JSON reader and writer.
//
// Framing: every message is a 4-byte big-endian payload length followed
// by exactly that many bytes of UTF-8 JSON. The prefix makes message
// boundaries explicit — a reader never has to parse JSON incrementally
// off a socket — and gives the server a cheap admission check: a frame
// whose declared length exceeds the configured cap is rejected before a
// single payload byte is read.
//
// Requests:  {"id": <any>, "kind": "radius|validate|fault-sim|sweep|
//             ping|stats|shutdown", "args": ["--samples","64",...],
//             "deadline_ms": N?, "stream": bool?, "sleep_ms": N?}
// Success:   {"id": <echo>, "ok": true, "exit": N,
//             "output": "<stdout bytes>", "json": "<--json bytes>"|null}
// Error:     {"id": <echo>, "ok": false, "error": {"code":
//             "bad_frame|bad_request|overloaded|deadline|failed|
//              shutting_down", "message": "..."}}
// Progress:  {"id": <echo>, "type": "progress", "event": {<one
//             telemetry JSONL record, embedded verbatim>}}
//
// A server hosting a sweep coordinator also answers the distributed-
// sweep kinds (hello, lease, commit, heartbeat, done; see
// server/dist_sweep.hpp) on the same connections.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace fepia::server {

/// Hard ceiling a server will accept unless configured lower.
inline constexpr std::size_t kDefaultMaxFrameBytes = 4u << 20;  // 4 MiB

enum class FrameStatus {
  Ok,         ///< payload holds a complete frame
  Eof,        ///< clean EOF on a frame boundary
  Truncated,  ///< EOF mid-prefix or mid-payload
  Oversized,  ///< declared length exceeds the cap (stream unusable)
  IoError,    ///< read(2) failed
};

struct Frame {
  FrameStatus status = FrameStatus::Eof;
  std::string payload;               ///< valid when status == Ok
  std::uint32_t declaredBytes = 0;   ///< prefix value (set for Oversized)
};

/// Reads one frame, blocking until it is complete or the stream ends.
[[nodiscard]] Frame readFrame(int fd, std::size_t maxBytes);

/// Writes `payload` as one frame (prefix + body, full write, SIGPIPE
/// suppressed). Returns false on any write failure.
[[nodiscard]] bool writeFrame(int fd, const std::string& payload);

/// Prepends the 4-byte big-endian prefix — exposed so tests can forge
/// deliberately broken frames next to well-formed ones.
[[nodiscard]] std::string encodeFrame(const std::string& payload);

/// Connects to host:port (numeric IPv4 or a resolvable name); returns
/// the fd or -1. The one client-side connect: sweep workers, the tests
/// and the bench load generator (as connectHost("127.0.0.1", port)).
[[nodiscard]] int connectHost(const std::string& host, std::uint16_t port);

}  // namespace fepia::server

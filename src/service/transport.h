// Framed byte transport over POSIX file descriptors — the link between the
// server front, its forked workers (socketpairs), and remote clients (Unix
// domain or TCP sockets). One frame = 4-byte little-endian payload length +
// the payload (a service/message.h envelope). Short reads/writes and EINTR
// are handled; a peer that vanishes mid-frame surfaces as a Status,
// oversized frames are rejected before any allocation.
//
// The dial/listen helpers below are the one place socket addresses are
// parsed and resolved, shared by bagcq_server, bagcq_client, and the tests:
// a Unix path maps to AF_UNIX, a "host:port" string maps to TCP (IPv4 or
// IPv6 via getaddrinfo; "host" may be a name, "[::1]:9999" is the v6
// literal syntax). The framing above is transport-agnostic — the same bytes
// flow over either family.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace bagcq::service {

/// Frames beyond this are a protocol violation (witness-laden batch
/// responses run to megabytes; nothing legitimate runs to gigabytes).
/// Enforced on both sides: WriteFrame refuses to send one, ReadFrame and
/// the server's event loop refuse to receive one — before any allocation.
inline constexpr uint32_t kMaxFrameBytes = 256u * 1024 * 1024;

/// The 4-byte little-endian frame header, single-sourced: every framer —
/// the blocking Write/ReadFrame below and the server's buffered event
/// loop — goes through these two.
inline void PutFrameHeader(uint32_t length, char out[4]) {
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<char>(length >> (8 * i));
  }
}
inline uint32_t ParseFrameHeader(const char* in) {
  uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<uint32_t>(static_cast<uint8_t>(in[i])) << (8 * i);
  }
  return length;
}

/// Writes one length-prefixed frame, looping over partial writes. The fd
/// must be blocking. Errors (EPIPE from a vanished peer included — callers
/// must ignore SIGPIPE) return Internal. `max_frame_bytes` overrides the
/// cap for links with framing overhead of their own (the server's worker
/// links prefix a correlation id, so an exactly-at-cap client payload must
/// still fit) — client-facing connections keep the default.
util::Status WriteFrame(int fd, std::string_view payload,
                        uint32_t max_frame_bytes = kMaxFrameBytes);

/// Reads one frame into *payload. Clean EOF before the first header byte
/// sets *clean_eof and returns OK with an empty payload (how a worker
/// notices an orderly shutdown); EOF mid-frame is an error. The fd must be
/// blocking. Frames beyond `max_frame_bytes` return ResourceExhausted.
util::Status ReadFrame(int fd, std::string* payload, bool* clean_eof,
                       uint32_t max_frame_bytes = kMaxFrameBytes);

// ------------------------------------------------ non-blocking writes

/// The write buffer of one non-blocking fd (a client connection or a fork
/// worker link). It drains from the front without quadratic erases: the
/// consumed prefix is tracked by offset and compacted only when it
/// dominates the buffer.
struct OutBuf {
  std::string data;
  size_t off = 0;

  bool empty() const { return off >= data.size(); }
  size_t pending() const { return data.size() - off; }
  void Clear() {
    data.clear();
    off = 0;
  }
  void Append(std::string_view bytes) {
    if (empty()) Clear();
    if (off > (size_t{1} << 20) && off * 2 > data.size()) {
      data.erase(0, off);
      off = 0;
    }
    data.append(bytes);
  }
  void AppendFrame(std::string_view payload) {
    char header[4];
    PutFrameHeader(static_cast<uint32_t>(payload.size()), header);
    Append(std::string_view(header, sizeof(header)));
    Append(payload);
  }
};

/// Sends as much of *out as the non-blocking fd accepts right now. OK means
/// "keep the fd"; an error means the peer is gone. `bytes_counter` (when
/// non-null) accumulates what actually left.
util::Status FlushTo(int fd, OutBuf* out, int64_t* bytes_counter = nullptr);

// ------------------------------------------------------- listen / dial

/// Binds and listens on a Unix domain socket at `path` (replacing any stale
/// socket file). Returns the listening fd (caller closes). Fails with
/// InvalidArgument on an over-long path, Internal on syscall failure.
util::Result<int> ListenUnix(const std::string& path);

/// Binds and listens on TCP `host:port` ("127.0.0.1:8347", "[::1]:0",
/// "localhost:8347"; port 0 picks a free port — recover it with
/// ListenerAddress). SO_REUSEADDR is set so restarts do not trip over
/// TIME_WAIT. Returns the listening fd (caller closes).
util::Result<int> ListenTcp(const std::string& host_port);

/// Connects to a Unix-socket server. Returns the connected fd (caller
/// closes) — requests then flow via WriteFrame/ReadFrame.
util::Result<int> DialUnix(const std::string& path);

/// Connects to a TCP server at "host:port" (every address getaddrinfo
/// resolves is tried in order). TCP_NODELAY is set: the protocol is
/// request/response with small frames, where Nagle only adds latency.
util::Result<int> DialTcp(const std::string& host_port);

/// The bound local address of a listening TCP socket as "ip:port"
/// ("[ip]:port" for IPv6) — how a port-0 caller learns the real port.
/// Unix-socket listeners return their path.
util::Result<std::string> ListenerAddress(int fd);

/// Switches an fd to non-blocking mode (the server's event loop runs every
/// connection and worker link non-blocking).
util::Status SetNonBlocking(int fd);

}  // namespace bagcq::service

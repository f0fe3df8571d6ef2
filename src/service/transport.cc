#include "service/transport.h"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace bagcq::service {

namespace {

util::Status IoError(const char* op) {
  return util::Status::Internal(std::string("transport: ") + op + " failed: " +
                                std::strerror(errno));
}

/// write() until done or error (EINTR retried).
util::Status WriteAll(int fd, const char* data, size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return IoError("write");
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  return util::Status::OK();
}

/// read() until the buffer is full. *eof_at_start distinguishes a peer that
/// closed between frames from one that died mid-frame.
util::Status ReadAll(int fd, char* data, size_t size, bool* eof_at_start) {
  size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, data + got, size - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return IoError("read");
    }
    if (n == 0) {
      if (got == 0 && eof_at_start != nullptr) {
        *eof_at_start = true;
        return util::Status::OK();
      }
      return util::Status::Internal("transport: peer closed mid-frame");
    }
    got += static_cast<size_t>(n);
  }
  return util::Status::OK();
}

/// Splits "host:port" at the LAST colon (IPv6 literals carry colons;
/// "[::1]:80" strips the brackets too).
util::Status SplitHostPort(const std::string& host_port, std::string* host,
                           std::string* port) {
  const size_t colon = host_port.rfind(':');
  if (colon == std::string::npos || colon + 1 == host_port.size()) {
    return util::Status::InvalidArgument(
        "transport: expected host:port, got '" + host_port + "'");
  }
  *host = host_port.substr(0, colon);
  *port = host_port.substr(colon + 1);
  if (host->size() >= 2 && host->front() == '[' && host->back() == ']') {
    *host = host->substr(1, host->size() - 2);
  }
  if (host->empty()) {
    return util::Status::InvalidArgument(
        "transport: empty host in '" + host_port + "'");
  }
  return util::Status::OK();
}

util::Result<sockaddr_un> UnixAddress(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return util::Status::InvalidArgument("transport: socket path too long: " +
                                         path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// getaddrinfo over "host:port"; runs `use` on each candidate fd until one
/// succeeds (bind-or-connect is the only difference between listen and dial).
template <typename Fn>
util::Result<int> ResolveTcp(const std::string& host_port, bool listening,
                             Fn&& use) {
  std::string host, port;
  BAGCQ_RETURN_NOT_OK(SplitHostPort(host_port, &host, &port));
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  if (listening) hints.ai_flags = AI_PASSIVE;
  addrinfo* list = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), port.c_str(), &hints, &list);
  if (rc != 0) {
    return util::Status::InvalidArgument("transport: cannot resolve '" +
                                         host_port + "': " + gai_strerror(rc));
  }
  util::Status last = util::Status::Internal("transport: no address for '" +
                                             host_port + "'");
  for (addrinfo* ai = list; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = IoError("socket");
      continue;
    }
    last = use(fd, ai);
    if (last.ok()) {
      ::freeaddrinfo(list);
      return fd;
    }
    ::close(fd);
  }
  ::freeaddrinfo(list);
  return last;
}

}  // namespace

util::Status WriteFrame(int fd, std::string_view payload,
                        uint32_t max_frame_bytes) {
  if (payload.size() > max_frame_bytes) {
    return util::Status::ResourceExhausted("transport: frame too large");
  }
  char header[4];
  PutFrameHeader(static_cast<uint32_t>(payload.size()), header);
  BAGCQ_RETURN_NOT_OK(WriteAll(fd, header, sizeof(header)));
  return WriteAll(fd, payload.data(), payload.size());
}

util::Status ReadFrame(int fd, std::string* payload, bool* clean_eof,
                       uint32_t max_frame_bytes) {
  payload->clear();
  *clean_eof = false;
  char header[4];
  BAGCQ_RETURN_NOT_OK(ReadAll(fd, header, sizeof(header), clean_eof));
  if (*clean_eof) return util::Status::OK();
  const uint32_t length = ParseFrameHeader(header);
  if (length > max_frame_bytes) {
    return util::Status::ResourceExhausted("transport: frame too large");
  }
  payload->resize(length);
  return ReadAll(fd, payload->data(), length, nullptr);
}

util::Status FlushTo(int fd, OutBuf* out, int64_t* bytes_counter) {
  while (!out->empty()) {
    const ssize_t n = ::send(fd, out->data.data() + out->off, out->pending(),
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return util::Status::OK();
      return IoError("send");
    }
    out->off += static_cast<size_t>(n);
    if (bytes_counter != nullptr) *bytes_counter += n;
  }
  out->Clear();
  return util::Status::OK();
}

util::Result<int> ListenUnix(const std::string& path) {
  BAGCQ_ASSIGN_OR_RETURN(sockaddr_un addr, UnixAddress(path));
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return IoError("socket");
  ::unlink(path.c_str());  // replace a stale socket file
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 64) != 0) {
    const util::Status status = IoError("bind/listen");
    ::close(fd);
    return status;
  }
  return fd;
}

util::Result<int> ListenTcp(const std::string& host_port) {
  return ResolveTcp(host_port, /*listening=*/true,
                    [](int fd, const addrinfo* ai) -> util::Status {
                      const int one = 1;
                      ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one,
                                   sizeof(one));
                      if (::bind(fd, ai->ai_addr, ai->ai_addrlen) != 0 ||
                          ::listen(fd, 64) != 0) {
                        return IoError("bind/listen");
                      }
                      return util::Status::OK();
                    });
}

util::Result<int> DialUnix(const std::string& path) {
  BAGCQ_ASSIGN_OR_RETURN(sockaddr_un addr, UnixAddress(path));
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return IoError("socket");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return util::Status::Internal("transport: cannot connect to " + path +
                                  ": " + std::strerror(errno));
  }
  return fd;
}

util::Result<int> DialTcp(const std::string& host_port) {
  return ResolveTcp(host_port, /*listening=*/false,
                    [&](int fd, const addrinfo* ai) -> util::Status {
                      if (::connect(fd, ai->ai_addr, ai->ai_addrlen) != 0) {
                        return util::Status::Internal(
                            "transport: cannot connect to " + host_port +
                            ": " + std::strerror(errno));
                      }
                      const int one = 1;
                      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                                   sizeof(one));
                      return util::Status::OK();
                    });
}

util::Result<std::string> ListenerAddress(int fd) {
  sockaddr_storage storage{};
  socklen_t len = sizeof(storage);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&storage), &len) != 0) {
    return IoError("getsockname");
  }
  if (storage.ss_family == AF_UNIX) {
    const auto* un = reinterpret_cast<const sockaddr_un*>(&storage);
    return std::string(un->sun_path);
  }
  char host[NI_MAXHOST], port[NI_MAXSERV];
  const int rc = ::getnameinfo(reinterpret_cast<sockaddr*>(&storage), len,
                               host, sizeof(host), port, sizeof(port),
                               NI_NUMERICHOST | NI_NUMERICSERV);
  if (rc != 0) {
    return util::Status::Internal(std::string("transport: getnameinfo: ") +
                                  gai_strerror(rc));
  }
  std::string out;
  if (storage.ss_family == AF_INET6) {
    out += '[';
    out += host;
    out += ']';
  } else {
    out += host;
  }
  out += ':';
  out += port;
  return out;
}

util::Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return IoError("fcntl(O_NONBLOCK)");
  }
  return util::Status::OK();
}

}  // namespace bagcq::service

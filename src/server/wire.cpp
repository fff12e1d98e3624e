#include "server/wire.hpp"

#include <netdb.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

namespace fepia::server {
namespace {

/// Reads exactly `n` bytes, retrying on EINTR. Returns the byte count
/// actually read (< n only on EOF) or -1 on a read error.
ssize_t readFull(int fd, char* buf, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, buf + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (r == 0) break;
    got += static_cast<std::size_t>(r);
  }
  return static_cast<ssize_t>(got);
}

bool writeAll(int fd, const char* buf, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    // MSG_NOSIGNAL: a peer that hung up yields EPIPE, never SIGPIPE —
    // the server must survive clients vanishing mid-response.
    const ssize_t w = ::send(fd, buf + sent, n - sent, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(w);
  }
  return true;
}

}  // namespace

Frame readFrame(int fd, std::size_t maxBytes) {
  Frame frame;
  unsigned char prefix[4];
  const ssize_t got =
      readFull(fd, reinterpret_cast<char*>(prefix), sizeof(prefix));
  if (got < 0) {
    frame.status = FrameStatus::IoError;
    return frame;
  }
  if (got == 0) {
    frame.status = FrameStatus::Eof;
    return frame;
  }
  if (got < static_cast<ssize_t>(sizeof(prefix))) {
    frame.status = FrameStatus::Truncated;
    return frame;
  }
  const std::uint32_t n = (static_cast<std::uint32_t>(prefix[0]) << 24) |
                          (static_cast<std::uint32_t>(prefix[1]) << 16) |
                          (static_cast<std::uint32_t>(prefix[2]) << 8) |
                          static_cast<std::uint32_t>(prefix[3]);
  frame.declaredBytes = n;
  if (n > maxBytes) {
    // The payload is deliberately not consumed: a multi-gigabyte
    // declared length must not make the server read it all just to
    // resync. The connection is unusable after this.
    frame.status = FrameStatus::Oversized;
    return frame;
  }
  frame.payload.resize(n);
  const ssize_t body = n == 0 ? 0 : readFull(fd, frame.payload.data(), n);
  if (body < 0) {
    frame.status = FrameStatus::IoError;
    return frame;
  }
  if (body < static_cast<ssize_t>(n)) {
    frame.status = FrameStatus::Truncated;
    return frame;
  }
  frame.status = FrameStatus::Ok;
  return frame;
}

std::string encodeFrame(const std::string& payload) {
  const std::uint32_t n = static_cast<std::uint32_t>(payload.size());
  std::string out;
  out.reserve(payload.size() + 4);
  out += static_cast<char>((n >> 24) & 0xFF);
  out += static_cast<char>((n >> 16) & 0xFF);
  out += static_cast<char>((n >> 8) & 0xFF);
  out += static_cast<char>(n & 0xFF);
  out += payload;
  return out;
}

bool writeFrame(int fd, const std::string& payload) {
  const std::string framed = encodeFrame(payload);
  return writeAll(fd, framed.data(), framed.size());
}

int connectHost(const std::string& host, std::uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string service = std::to_string(port);
  if (::getaddrinfo(host.c_str(), service.c_str(), &hints, &res) != 0 ||
      res == nullptr) {
    return -1;
  }
  int fd = -1;
  for (const addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  return fd;
}

}  // namespace fepia::server

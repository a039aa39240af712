// Minimal POSIX TCP wrappers for the distributed campaign service
// (docs/DISTRIBUTED.md). Deliberately tiny: RAII sockets, a listener with
// poll()-based accept timeouts, and bounded-time send/recv — just enough for
// the coordinator's single-threaded event loop and the worker's framed
// connection, with every failure surfacing as a typed exception instead of
// an errno the campaign layer would have to interpret.
#pragma once

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

namespace avis::net {

class NetError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// The peer closed (or reset) the connection. Distinct from NetError because
// the coordinator treats it as a dead worker — an expected fault, not a
// local programming error.
class PeerClosed : public NetError {
 public:
  using NetError::NetError;
};

inline std::string p_errno_message(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

// A connected stream socket. Move-only; closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  // Half-close both directions but keep the fd open. The chaos layer
  // (net/chaos.h) uses this to simulate a severed link: unlike close(),
  // the fd stays valid so an event loop polling it sees EOF (-> PeerClosed)
  // instead of silently skipping a negative fd forever.
  void shutdown_both() {
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  }

  // Small frames should not sit in Nagle's buffer: heartbeats and cell
  // assignments are latency-sensitive next to multi-second cell runs.
  void set_nodelay() {
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }

  // Writes the whole buffer or throws. MSG_NOSIGNAL: a worker whose
  // coordinator vanished gets a PeerClosed, not a process-killing SIGPIPE.
  void send_all(std::span<const std::uint8_t> data) {
    while (!data.empty()) {
      const ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EPIPE || errno == ECONNRESET) throw PeerClosed("peer closed connection");
        throw NetError(p_errno_message("send"));
      }
      data = data.subspan(static_cast<std::size_t>(n));
    }
  }

  // Reads whatever is available within timeout_ms: returns the byte count
  // (> 0), or 0 if the timeout expired with nothing to read. An orderly or
  // reset peer shutdown throws PeerClosed.
  std::size_t recv_some(std::span<std::uint8_t> buffer, int timeout_ms) {
    pollfd pfd{fd_, POLLIN, 0};
    while (true) {
      const int ready = ::poll(&pfd, 1, timeout_ms);
      if (ready < 0) {
        if (errno == EINTR) continue;
        throw NetError(p_errno_message("poll"));
      }
      if (ready == 0) return 0;
      break;
    }
    while (true) {
      const ssize_t n = ::recv(fd_, buffer.data(), buffer.size(), 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == ECONNRESET) throw PeerClosed("peer reset connection");
        throw NetError(p_errno_message("recv"));
      }
      if (n == 0) throw PeerClosed("peer closed connection");
      return static_cast<std::size_t>(n);
    }
  }

 private:
  int fd_ = -1;
};

// A listening TCP socket. Binds on construction (port 0 = kernel-assigned;
// read it back through port()), accepts with a poll() timeout. The bind
// address is explicit because the frame protocol, though its handshake is
// authenticated by shared token, travels in plaintext (docs/DISTRIBUTED.md
// "Trust model"): callers choose how far to expose it, and the default is
// loopback-only.
class Listener {
 public:
  explicit Listener(std::uint16_t port, const std::string& bind_address = "127.0.0.1") {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, bind_address.c_str(), &addr.sin_addr) != 1) {
      throw NetError("invalid bind address '" + bind_address + "' (expected IPv4 dotted quad)");
    }
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw NetError(p_errno_message("socket"));
    int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      const std::string message = p_errno_message("bind");
      ::close(fd_);
      fd_ = -1;
      throw NetError(message);
    }
    if (::listen(fd_, 16) < 0) {
      const std::string message = p_errno_message("listen");
      ::close(fd_);
      fd_ = -1;
      throw NetError(message);
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
      port_ = ntohs(addr.sin_port);
    }
  }

  ~Listener() { close(); }
  Listener(Listener&& other) noexcept
      : fd_(std::exchange(other.fd_, -1)), port_(other.port_) {}
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
  Listener& operator=(Listener&&) = delete;

  int fd() const { return fd_; }
  std::uint16_t port() const { return port_; }
  bool valid() const { return fd_ >= 0; }

  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  // One accepted connection, or nullopt if none arrived within timeout_ms.
  std::optional<Socket> accept(int timeout_ms) {
    pollfd pfd{fd_, POLLIN, 0};
    while (true) {
      const int ready = ::poll(&pfd, 1, timeout_ms);
      if (ready < 0) {
        if (errno == EINTR) continue;
        throw NetError(p_errno_message("poll"));
      }
      if (ready == 0) return std::nullopt;
      break;
    }
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd < 0) {
      // The connecting peer can vanish between poll and accept; that is the
      // peer's failure, not ours.
      if (errno == ECONNABORTED || errno == EINTR || errno == EAGAIN) return std::nullopt;
      throw NetError(p_errno_message("accept"));
    }
    Socket socket(fd);
    socket.set_nodelay();
    return socket;
  }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

// Resolve and connect; throws NetError naming the endpoint on failure.
inline Socket connect_to(const std::string& host, std::uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints, &result);
  if (rc != 0) {
    throw NetError("cannot resolve " + host + ": " + ::gai_strerror(rc));
  }
  int last_errno = 0;
  for (addrinfo* entry = result; entry != nullptr; entry = entry->ai_next) {
    const int fd = ::socket(entry->ai_family, entry->ai_socktype, entry->ai_protocol);
    if (fd < 0) {
      last_errno = errno;
      continue;
    }
    if (::connect(fd, entry->ai_addr, entry->ai_addrlen) == 0) {
      ::freeaddrinfo(result);
      Socket socket(fd);
      socket.set_nodelay();
      return socket;
    }
    last_errno = errno;
    ::close(fd);
  }
  ::freeaddrinfo(result);
  errno = last_errno;
  throw NetError(p_errno_message(("connect to " + host + ":" + std::to_string(port)).c_str()));
}

}  // namespace avis::net

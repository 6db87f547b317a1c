#include "net/socket.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace wtam::net {

namespace {

void close_quietly(int fd) {
  if (fd >= 0) ::close(fd);
}

[[noreturn]] void throw_errno(const std::string& what, int error) {
  throw std::runtime_error("net: " + what + ": " + std::strerror(error));
}

/// Resolves host:port to IPv4 sockaddrs (the transport is IPv4-only;
/// the endpoint parser already rejects IPv6 literals). The caller owns
/// the returned list via freeaddrinfo.
addrinfo* resolve(const Endpoint& endpoint, bool for_bind) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  if (for_bind) hints.ai_flags = AI_PASSIVE;
  addrinfo* result = nullptr;
  const std::string port_text = std::to_string(endpoint.port);
  const int rc =
      ::getaddrinfo(endpoint.host.c_str(), port_text.c_str(), &hints, &result);
  if (rc != 0)
    throw std::runtime_error("net: resolve " + endpoint.to_string() + ": " +
                             ::gai_strerror(rc));
  return result;
}

Endpoint endpoint_from_sockaddr(const sockaddr_in& address) {
  char host[INET_ADDRSTRLEN] = {};
  if (::inet_ntop(AF_INET, &address.sin_addr, host, sizeof(host)) == nullptr)
    return Endpoint{};
  return Endpoint{host, ntohs(address.sin_port)};
}

}  // namespace

Connection::Connection(int fd) : fd_(fd), framer_(fd) {
  common::ignore_sigpipe();
}

std::unique_ptr<Connection> Connection::connect(const Endpoint& endpoint) {
  common::ignore_sigpipe();
  addrinfo* addresses = resolve(endpoint, /*for_bind=*/false);
  int fd = -1;
  int last_error = ECONNREFUSED;
  for (const addrinfo* a = addresses; a != nullptr; a = a->ai_next) {
    fd = ::socket(a->ai_family, a->ai_socktype, a->ai_protocol);
    if (fd < 0) {
      last_error = errno;
      continue;
    }
    int rc = 0;
    do {
      rc = ::connect(fd, a->ai_addr, a->ai_addrlen);
    } while (rc != 0 && errno == EINTR);
    if (rc == 0) break;
    last_error = errno;
    close_quietly(fd);
    fd = -1;
  }
  ::freeaddrinfo(addresses);
  if (fd < 0) throw_errno("connect " + endpoint.to_string(), last_error);
  // Frames are whole small lines written in one send; Nagle only adds
  // latency to the request/response ping-pong. Best-effort.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::make_unique<Connection>(fd);
}

Connection::~Connection() {
  shutdown_both();
  close_quietly(fd_);
}

bool Connection::write_line(std::string_view line) {
  const common::MutexLock lock(write_mutex_);
  if (!write_open_) return false;
  // EPIPE/ECONNRESET (peer gone) or a real I/O error: channel done.
  write_open_ = common::write_frame(fd_, line);
  return write_open_;
}

void Connection::shutdown_write() {
  const common::MutexLock lock(write_mutex_);
  if (!write_open_) return;
  write_open_ = false;
  ::shutdown(fd_, SHUT_WR);
}

void Connection::shutdown_both() {
  {
    const common::MutexLock lock(write_mutex_);
    write_open_ = false;
  }
  // SHUT_RDWR (not close) so a reader blocked in read() on another
  // thread wakes with EOF instead of racing a reused fd number.
  ::shutdown(fd_, SHUT_RDWR);
}

Endpoint Connection::peer_endpoint() const {
  sockaddr_in address{};
  socklen_t length = sizeof(address);
  if (::getpeername(fd_, reinterpret_cast<sockaddr*>(&address), &length) != 0)
    return Endpoint{};
  return endpoint_from_sockaddr(address);
}

Listener::Listener(const Endpoint& endpoint) {
  common::ignore_sigpipe();
  addrinfo* addresses = resolve(endpoint, /*for_bind=*/true);
  int last_error = EADDRNOTAVAIL;
  for (const addrinfo* a = addresses; a != nullptr; a = a->ai_next) {
    fd_ = ::socket(a->ai_family, a->ai_socktype, a->ai_protocol);
    if (fd_ < 0) {
      last_error = errno;
      continue;
    }
    int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd_, a->ai_addr, a->ai_addrlen) == 0 &&
        ::listen(fd_, SOMAXCONN) == 0)
      break;
    last_error = errno;
    close_quietly(fd_);
    fd_ = -1;
  }
  ::freeaddrinfo(addresses);
  if (fd_ < 0) throw_errno("listen " + endpoint.to_string(), last_error);

  sockaddr_in bound{};
  socklen_t length = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &length) != 0) {
    const int error = errno;
    close_quietly(fd_);
    throw_errno("getsockname", error);
  }
  local_ = endpoint_from_sockaddr(bound);

  int wake[2] = {-1, -1};
  if (::pipe(wake) != 0) {
    const int error = errno;
    close_quietly(fd_);
    throw_errno("pipe(wake)", error);
  }
  wake_read_ = wake[0];
  wake_write_ = wake[1];
}

Listener::~Listener() {
  stop();
  close_quietly(fd_);
  close_quietly(wake_read_);
  close_quietly(wake_write_);
}

std::unique_ptr<Connection> Listener::accept() {
  for (;;) {
    {
      const common::MutexLock lock(stop_mutex_);
      if (stopped_) return nullptr;
    }
    pollfd fds[2] = {{fd_, POLLIN, 0}, {wake_read_, POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return nullptr;  // poll on a listening socket failing = torn down
    }
    if ((fds[1].revents & POLLIN) != 0) return nullptr;  // stop() woke us
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int client = ::accept(fd_, nullptr, nullptr);
    if (client < 0) {
      // ECONNABORTED (client vanished in the backlog), EINTR, and
      // transient fd pressure are all retried — the accept loop must
      // outlive individual flaky clients.
      if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN ||
          errno == EMFILE || errno == ENFILE)
        continue;
      return nullptr;
    }
    int one = 1;
    ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return std::make_unique<Connection>(client);
  }
}

void Listener::stop() {
  {
    const common::MutexLock lock(stop_mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  const char byte = 'x';
  ssize_t ignored = ::write(wake_write_, &byte, 1);
  (void)ignored;
}

}  // namespace wtam::net

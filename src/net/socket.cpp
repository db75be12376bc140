#include "net/socket.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/timing.h"

namespace pqs::net {

namespace {

std::string errno_text(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

void set_nodelay(int fd) {
  // Every payload here is a complete JSONL line that the peer acts on
  // immediately; Nagle would serialize the request/ack ping-pong into
  // 40 ms stalls. Best-effort: a socket without TCP_NODELAY still works.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// getaddrinfo for one numeric-port TCP endpoint. Throws on failure.
struct ResolvedAddr {
  explicit ResolvedAddr(const Addr& addr) {
    ::addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_NUMERICSERV;
    const std::string port = std::to_string(addr.port);
    const int rc = ::getaddrinfo(addr.host.c_str(), port.c_str(), &hints,
                                 &info);
    PQS_CHECK_MSG(rc == 0, "cannot resolve \"" + addr.to_string() +
                               "\": " + ::gai_strerror(rc));
  }
  ~ResolvedAddr() { ::freeaddrinfo(info); }
  ResolvedAddr(const ResolvedAddr&) = delete;
  ResolvedAddr& operator=(const ResolvedAddr&) = delete;

  ::addrinfo* info = nullptr;
};

}  // namespace

std::string Addr::to_string() const {
  if (host.find(':') != std::string::npos) {  // IPv6 literal
    return "[" + host + "]:" + std::to_string(port);
  }
  return host + ":" + std::to_string(port);
}

Addr parse_hostport(const std::string& text) {
  Addr addr;
  std::string port_text;
  if (!text.empty() && text.front() == '[') {  // "[v6literal]:port"
    const auto close = text.find(']');
    PQS_CHECK_MSG(close != std::string::npos,
                  "bad listen address \"" + text + "\": unclosed '['");
    addr.host = text.substr(1, close - 1);
    PQS_CHECK_MSG(close + 1 < text.size() && text[close + 1] == ':',
                  "bad listen address \"" + text + "\": expected ]:port");
    port_text = text.substr(close + 2);
  } else {
    const auto colon = text.rfind(':');
    PQS_CHECK_MSG(colon != std::string::npos,
                  "bad listen address \"" + text + "\": expected host:port");
    addr.host = text.substr(0, colon);
    port_text = text.substr(colon + 1);
  }
  PQS_CHECK_MSG(!addr.host.empty(),
                "bad listen address \"" + text + "\": empty host");
  PQS_CHECK_MSG(!port_text.empty() &&
                    port_text.find_first_not_of("0123456789") ==
                        std::string::npos,
                "bad listen address \"" + text + "\": port must be numeric");
  const unsigned long port = std::stoul(port_text);
  PQS_CHECK_MSG(port <= 65535,
                "bad listen address \"" + text + "\": port > 65535");
  addr.port = static_cast<std::uint16_t>(port);
  return addr;
}

// ---- Socket ----------------------------------------------------------------

Socket::~Socket() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) {
      ::close(fd_);
    }
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

bool Socket::write_all(std::string_view data) {
  if (fd_ < 0) {
    return false;
  }
  while (!data.empty()) {
    // MSG_NOSIGNAL: a vanished peer must surface as `false` (cancel their
    // jobs), not as a process-killing SIGPIPE.
    const ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

long Socket::read_some(char* buffer, std::size_t capacity) {
  if (fd_ < 0) {
    return -1;
  }
  while (true) {
    const ssize_t n = ::recv(fd_, buffer, capacity, 0);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return static_cast<long>(n);
  }
}

void Socket::shutdown_both() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
  }
}

// ---- LineReader ------------------------------------------------------------

bool LineReader::next_line(std::string& line) {
  while (true) {
    const auto newline = buffer_.find('\n', scanned_);
    if (newline != std::string::npos) {
      line.assign(buffer_, 0, newline);
      if (!line.empty() && line.back() == '\r') {
        line.pop_back();
      }
      buffer_.erase(0, newline + 1);
      scanned_ = 0;
      return true;
    }
    scanned_ = buffer_.size();
    char chunk[4096];
    const long n = socket_.read_some(chunk, sizeof(chunk));
    if (n <= 0) {
      if (buffer_.empty()) {
        return false;
      }
      line = std::move(buffer_);  // unterminated final fragment
      buffer_.clear();
      scanned_ = 0;
      return true;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

bool LineReader::has_line() {
  if (buffer_.find('\n', scanned_) != std::string::npos) {
    return true;
  }
  scanned_ = buffer_.size();
  return false;
}

// ---- Listener --------------------------------------------------------------

Listener::~Listener() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Listener::Listener(Listener&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      port_(std::exchange(other.port_, 0)) {}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) {
      ::close(fd_);
    }
    fd_ = std::exchange(other.fd_, -1);
    port_ = std::exchange(other.port_, 0);
  }
  return *this;
}

Listener Listener::bind_and_listen(const Addr& addr, int backlog) {
  const ResolvedAddr resolved(addr);
  Listener listener;
  std::string last_error = "no usable address";
  for (::addrinfo* ai = resolved.info; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_error = errno_text("socket");
      continue;
    }
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) != 0 ||
        ::listen(fd, backlog) != 0) {
      last_error = errno_text("bind/listen");
      ::close(fd);
      continue;
    }
    ::sockaddr_storage bound{};
    ::socklen_t bound_len = sizeof(bound);
    PQS_CHECK_MSG(::getsockname(fd, reinterpret_cast<::sockaddr*>(&bound),
                                &bound_len) == 0,
                  errno_text("getsockname"));
    listener.fd_ = fd;
    listener.port_ =
        bound.ss_family == AF_INET6
            ? ntohs(reinterpret_cast<::sockaddr_in6*>(&bound)->sin6_port)
            : ntohs(reinterpret_cast<::sockaddr_in*>(&bound)->sin_port);
    return listener;
  }
  PQS_CHECK_MSG(false, "cannot listen on \"" + addr.to_string() +
                           "\": " + last_error);
  return listener;  // unreachable
}

Socket Listener::accept_conn() {
  while (fd_ >= 0) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      set_nodelay(fd);
      return Socket(fd);
    }
    if (errno == EINTR || errno == ECONNABORTED) {
      continue;
    }
    break;  // EINVAL after shut_down(), or a real accept failure
  }
  return Socket();
}

void Listener::shut_down() {
  if (fd_ >= 0) {
    // On a listening socket, shutdown() makes blocked and future accepts
    // fail immediately — the portable way to stop an accept loop without
    // closing a descriptor another thread still holds.
    ::shutdown(fd_, SHUT_RDWR);
  }
}

// ---- connect ---------------------------------------------------------------

Socket connect_to(const Addr& addr) {
  const ResolvedAddr resolved(addr);
  std::string last_error = "no usable address";
  for (::addrinfo* ai = resolved.info; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_error = errno_text("socket");
      continue;
    }
    int rc;
    do {
      rc = ::connect(fd, ai->ai_addr, ai->ai_addrlen);
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) {
      last_error = errno_text("connect");
      ::close(fd);
      continue;
    }
    set_nodelay(fd);
    return Socket(fd);
  }
  PQS_CHECK_MSG(false, "cannot connect to \"" + addr.to_string() +
                           "\": " + last_error);
  return Socket();  // unreachable
}

Socket connect_with_retry(const Addr& addr,
                          std::chrono::milliseconds deadline) {
  const Stopwatch watch;
  while (true) {
    try {
      return connect_to(addr);
    } catch (const CheckFailure&) {
      if (watch.millis() >= static_cast<double>(deadline.count())) {
        throw;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
}

}  // namespace pqs::net

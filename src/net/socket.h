// The POSIX socket substrate of the network subsystem — and the ONLY file
// whose implementation may issue raw ::socket / ::bind / ::listen /
// ::accept / ::connect calls (tools/pqs_lint.py, rule `raw-socket`,
// enforces this). Everything above (session, server, router, loadgen)
// speaks in these types, so the fiddly parts — partial writes, EINTR,
// SIGPIPE suppression, shutdown-to-unblock, ephemeral-port discovery —
// are decided once.
//
// Dependency-free by design: plain blocking sockets and a thread per
// connection. At the fleet sizes this repository benches (tens of clients
// per node, a router fanning across worker processes) that is the simple
// shape that saturates the Service's worker pool; an event loop would add
// machinery without moving the bottleneck, which is the search itself.
//
// Threading contract (what keeps TSan and the capability analysis quiet
// without a lock in this layer): at most one thread reads a Socket while at
// most one other thread writes it; shutdown_both() may be called from any
// thread to unblock both (it does not invalidate the descriptor — only the
// owner, single-threaded by then, closes it via RAII).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

namespace pqs::net {

/// A parsed "host:port" endpoint.
struct Addr {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  std::string to_string() const;
};

/// Parse "host:port" ("127.0.0.1:7401", "localhost:0", "[::1]:7401").
/// Throws CheckFailure naming the defect.
Addr parse_hostport(const std::string& text);

/// One connected TCP stream; closes on destruction. Not copyable; move
/// assignment hands the descriptor over (an Acceptor moves each accepted
/// stream into its connection slot).
class Socket {
 public:
  Socket() = default;
  /// Adopt an already-connected descriptor (accept / connect paths).
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }

  /// Write the whole buffer (looping over partial sends, EINTR-safe,
  /// SIGPIPE suppressed). false once the peer is gone — the caller's signal
  /// to cancel that peer's in-flight work, not a crash.
  bool write_all(std::string_view data);

  /// Read whatever is available: >0 bytes read, 0 orderly EOF, -1 error
  /// (including shutdown_both() from another thread).
  long read_some(char* buffer, std::size_t capacity);

  /// Unblock any reader/writer parked on this socket (both directions).
  /// Safe from any thread; the descriptor stays valid until destruction.
  void shutdown_both();

 private:
  int fd_ = -1;
};

/// Buffered newline framing over a Socket — the JSONL wire unit. Carriage
/// returns before the newline are stripped so `nc`-style clients work.
class LineReader {
 public:
  explicit LineReader(Socket& socket) : socket_(socket) {}

  /// Next complete line (without its terminator). false on EOF/error; a
  /// trailing unterminated fragment is surfaced as a final line so a peer
  /// that forgot the last '\n' still gets its request answered.
  bool next_line(std::string& line);

  /// True when next_line would return a complete line without reading the
  /// socket — false means the next call may block.
  bool has_line();

 private:
  Socket& socket_;
  std::string buffer_;
  std::size_t scanned_ = 0;  ///< prefix of buffer_ known to lack '\n'
};

/// A bound, listening TCP endpoint.
class Listener {
 public:
  Listener() = default;
  ~Listener();

  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Bind + listen on `addr` (SO_REUSEADDR; addr.port 0 asks the kernel for
  /// an ephemeral port — read the assignment back from port()). Throws
  /// CheckFailure on failure (address in use, bad host, ...).
  static Listener bind_and_listen(const Addr& addr, int backlog = 128);

  /// Block for the next connection (TCP_NODELAY preset). An invalid Socket
  /// means shut_down() was called — the accept loop's exit signal.
  Socket accept_conn();

  /// The actually-bound port (resolves port 0).
  std::uint16_t port() const { return port_; }
  bool valid() const { return fd_ >= 0; }

  /// Unblock accept_conn() from any thread; further accepts return invalid.
  void shut_down();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Connect to a TCP endpoint (TCP_NODELAY preset). Throws CheckFailure.
Socket connect_to(const Addr& addr);

/// connect_to with retry until `deadline` elapses — for clients racing a
/// server that is still binding (CI smoke scripts, tests).
Socket connect_with_retry(const Addr& addr, std::chrono::milliseconds deadline);

}  // namespace pqs::net

// Minimal deadline-aware TCP primitives for the remote-SUL transport
// (DESIGN.md §12). Everything the net layer needs and nothing more: a
// loopback-friendly listener and a connection with bounded connect / send /
// recv. All operations take explicit wall-clock budgets — a misbehaving peer
// can stall a call, never wedge it — and no call ever raises a signal
// (SIGPIPE is suppressed per send).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "common/bytes.h"

namespace procheck::net {

/// Splits "host:port" (the last ':' separates); nullopt on a missing host
/// or a port outside 1..65535.
std::optional<std::pair<std::string, std::uint16_t>> parse_endpoint(const std::string& text);

/// One TCP connection. Movable, not copyable; the destructor closes the fd.
class TcpConn {
 public:
  TcpConn() = default;
  ~TcpConn();
  TcpConn(TcpConn&& other) noexcept;
  TcpConn& operator=(TcpConn&& other) noexcept;
  TcpConn(const TcpConn&) = delete;
  TcpConn& operator=(const TcpConn&) = delete;

  /// Non-blocking connect bounded by `timeout_seconds`; nullopt on refusal,
  /// unreachable host, or deadline.
  static std::optional<TcpConn> connect(const std::string& host, std::uint16_t port,
                                        double timeout_seconds);

  /// Writes the whole buffer or fails; partial progress past the deadline is
  /// a failure (the frame layer treats the stream as dead either way).
  bool send_all(const Bytes& data, double timeout_seconds);

  /// Outcome of one bounded read.
  enum class RecvStatus : std::uint8_t { kData, kEof, kTimeout, kError };
  /// Appends up to `max_bytes` received bytes to `out`.
  RecvStatus recv_some(Bytes& out, std::size_t max_bytes, double timeout_seconds);

  bool valid() const { return fd_ >= 0; }
  void close();

  /// Adopts an accepted fd (listener use).
  static TcpConn adopt(int fd);

 private:
  int fd_ = -1;
};

/// A listening socket, loopback by default. Port 0 requests an ephemeral
/// port; `port()` reports the bound one.
class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener();
  TcpListener(TcpListener&& other) noexcept;
  TcpListener& operator=(TcpListener&& other) noexcept;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  static std::optional<TcpListener> listen(std::uint16_t port);
  /// Binds a specific IPv4 address ("0.0.0.0" for all interfaces). Callers
  /// exposing a routable bind must layer authentication on top — the SUL
  /// server refuses a non-loopback bind without a PSK.
  static std::optional<TcpListener> listen(const std::string& bind_host,
                                           std::uint16_t port);

  /// Waits up to `timeout_seconds` for one connection; nullopt on timeout or
  /// a closed listener.
  std::optional<TcpConn> accept(double timeout_seconds);

  std::uint16_t port() const { return port_; }
  bool valid() const { return fd_ >= 0; }
  void close();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace procheck::net

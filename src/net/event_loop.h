// Single-threaded epoll event loop: the socket transport behind
// `hsctl serve / client / edge` (DESIGN.md §14).
//
// The loop owns the sockets, the per-connection FrameParsers, and the write
// buffers; the protocol nodes (net/node.h) stay sans-io and see only
// (conn id, Frame) pairs. One thread, no locks: reads, writes, accepts, and
// node callbacks all interleave on the caller of run().
//
// Malformed input never reaches a node: the first bad frame on a connection
// quarantines its parser, bumps NetCounters::frames_bad /
// conns_quarantined, and closes the socket.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "net/node.h"

namespace hetero::net {

class EventLoop : public FrameSink {
 public:
  using Handler = std::function<void(std::size_t conn, const Frame&)>;
  using ConnHandler = std::function<void(std::size_t conn)>;

  explicit EventLoop(std::size_t max_payload = kDefaultMaxPayload);
  ~EventLoop() override;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Frame delivery; required before run().
  void set_handler(Handler handler) { handler_ = std::move(handler); }
  /// Inbound connection accepted (server side).
  void set_accept_handler(ConnHandler handler) {
    accept_handler_ = std::move(handler);
  }
  /// Connection closed (peer hangup, error, or quarantine).
  void set_closed_handler(ConnHandler handler) {
    closed_handler_ = std::move(handler);
  }

  /// Run id stamped into every outgoing frame header (default 1).
  void set_run_id(std::uint64_t run) { run_ = run; }

  /// Starts accepting on host:port and returns the bound port (the
  /// kernel's pick when `port` is 0). Throws std::runtime_error on failure
  /// (e.g. sandboxed environments without bind permission).
  std::uint16_t listen(const std::string& host, std::uint16_t port);

  /// Connects to host:port (blocking handshake, then nonblocking I/O).
  /// Returns the new conn id; throws std::runtime_error on failure.
  std::size_t connect(const std::string& host, std::uint16_t port);

  /// FrameSink: stamps run/seq, writes what the socket accepts now, and
  /// buffers the rest for the loop to flush.
  void send(std::size_t conn, FrameType type,
            const std::vector<std::uint8_t>& payload) override;

  /// Pumps I/O until `done` returns true and every write buffer is flushed.
  /// Returns false when the loop ran out of connections first.
  bool run(const std::function<bool()>& done);

  void close_conn(std::size_t conn);
  std::size_t open_conns() const { return conns_.size(); }
  const NetCounters& counters() const { return counters_; }

 private:
  struct Conn {
    int fd = -1;
    FrameParser parser;
    std::vector<std::uint8_t> out;  ///< unflushed outgoing bytes
    std::size_t out_off = 0;
    std::uint64_t next_seq = 0;
    bool want_write = false;
  };

  std::size_t add_conn(int fd);
  void update_interest(std::size_t conn);
  void flush_writes(std::size_t conn);
  void read_ready(std::size_t conn);
  void accept_ready();
  bool all_flushed() const;

  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  std::size_t max_payload_;
  std::uint64_t run_ = 1;
  std::size_t next_conn_ = 0;
  std::map<std::size_t, Conn> conns_;
  Handler handler_;
  ConnHandler accept_handler_;
  ConnHandler closed_handler_;
  NetCounters counters_;
};

}  // namespace hetero::net

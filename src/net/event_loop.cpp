#include "net/event_loop.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace hetero::net {
namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl(O_NONBLOCK)");
  }
}

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("invalid IPv4 address: " + host);
  }
  return addr;
}

// Conn ids ride in epoll_event.data.u64; the listener uses a sentinel.
constexpr std::uint64_t kListenerTag = ~0ull;

}  // namespace

EventLoop::EventLoop(std::size_t max_payload) : max_payload_(max_payload) {
  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) throw_errno("epoll_create1");
}

EventLoop::~EventLoop() {
  for (auto& [id, conn] : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

std::size_t EventLoop::add_conn(int fd) {
  set_nonblocking(fd);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const std::size_t id = next_conn_++;
  Conn conn;
  conn.fd = fd;
  conn.parser = FrameParser(max_payload_);
  conns_.emplace(id, std::move(conn));
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    conns_.erase(id);
    ::close(fd);
    throw_errno("epoll_ctl(ADD)");
  }
  return id;
}

void EventLoop::update_interest(std::size_t conn) {
  auto it = conns_.find(conn);
  if (it == conns_.end()) return;
  Conn& c = it->second;
  const bool want_write = c.out.size() > c.out_off;
  if (want_write == c.want_write) return;
  epoll_event ev{};
  ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
  ev.data.u64 = conn;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
  c.want_write = want_write;
}

std::uint16_t EventLoop::listen(const std::string& host,
                                std::uint16_t port) {
  if (listen_fd_ >= 0) throw std::runtime_error("EventLoop: already listening");
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = make_addr(host, port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    throw_errno("bind " + host);
  }
  socklen_t len = sizeof(addr);
  if (::listen(fd, 64) < 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    ::close(fd);
    throw_errno("listen");
  }
  set_nonblocking(fd);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerTag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    ::close(fd);
    throw_errno("epoll_ctl(ADD listener)");
  }
  listen_fd_ = fd;
  return ntohs(addr.sin_port);
}

std::size_t EventLoop::connect(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  sockaddr_in addr = make_addr(host, port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    throw_errno("connect " + host);
  }
  return add_conn(fd);
}

void EventLoop::send(std::size_t conn, FrameType type,
                     const std::vector<std::uint8_t>& payload) {
  auto it = conns_.find(conn);
  if (it == conns_.end()) return;  // already closed; drop silently
  Conn& c = it->second;
  const std::vector<std::uint8_t> frame =
      encode_frame(type, run_, c.next_seq++, payload);
  ++counters_.frames_tx;
  counters_.bytes_tx += frame.size();
  c.out.insert(c.out.end(), frame.begin(), frame.end());
  flush_writes(conn);
}

void EventLoop::flush_writes(std::size_t conn) {
  auto it = conns_.find(conn);
  if (it == conns_.end()) return;
  Conn& c = it->second;
  while (c.out_off < c.out.size()) {
    // MSG_NOSIGNAL: a peer that died turns into EPIPE and a closed
    // connection, not a SIGPIPE that kills this process.
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    close_conn(conn);
    return;
  }
  if (c.out_off == c.out.size()) {
    c.out.clear();
    c.out_off = 0;
  }
  update_interest(conn);
}

void EventLoop::read_ready(std::size_t conn) {
  std::uint8_t buf[64 * 1024];
  while (true) {
    auto it = conns_.find(conn);
    if (it == conns_.end()) return;  // handler closed it mid-dispatch
    const ssize_t n = ::read(it->second.fd, buf, sizeof(buf));
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {  // error or orderly peer shutdown
      close_conn(conn);
      return;
    }
    counters_.bytes_rx += static_cast<std::uint64_t>(n);
    it->second.parser.feed(buf, static_cast<std::size_t>(n));
    Frame frame;
    while (true) {
      it = conns_.find(conn);
      if (it == conns_.end()) return;
      if (!it->second.parser.next(frame)) break;
      ++counters_.frames_rx;
      if (handler_) handler_(conn, frame);
    }
    it = conns_.find(conn);
    if (it == conns_.end()) return;
    if (it->second.parser.quarantined()) {
      ++counters_.frames_bad;
      ++counters_.conns_quarantined;
      close_conn(conn);
      return;
    }
  }
}

void EventLoop::accept_ready() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      return;  // transient accept failure; keep serving
    }
    const std::size_t id = add_conn(fd);
    if (accept_handler_) accept_handler_(id);
  }
}

void EventLoop::close_conn(std::size_t conn) {
  auto it = conns_.find(conn);
  if (it == conns_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second.fd, nullptr);
  ::close(it->second.fd);
  conns_.erase(it);
  if (closed_handler_) closed_handler_(conn);
}

bool EventLoop::all_flushed() const {
  for (const auto& [id, conn] : conns_) {
    if (conn.out.size() > conn.out_off) return false;
  }
  return true;
}

bool EventLoop::run(const std::function<bool()>& done) {
  epoll_event events[64];
  while (true) {
    if (done && done() && all_flushed()) return true;
    if (conns_.empty() && listen_fd_ < 0) return done && done();
    const int n = ::epoll_wait(epoll_fd_, events, 64, 50);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("epoll_wait");
    }
    for (int i = 0; i < n; ++i) {
      if (events[i].data.u64 == kListenerTag) {
        accept_ready();
        continue;
      }
      const std::size_t conn = static_cast<std::size_t>(events[i].data.u64);
      if (events[i].events & (EPOLLERR | EPOLLHUP)) {
        // Drain what the kernel still has before closing on hangup.
        read_ready(conn);
        close_conn(conn);
        continue;
      }
      if (events[i].events & EPOLLIN) read_ready(conn);
      if (events[i].events & EPOLLOUT) flush_writes(conn);
    }
  }
}

}  // namespace hetero::net

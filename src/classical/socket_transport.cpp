#include "classical/socket_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

namespace qmpi::classical {

namespace {

constexpr std::uint32_t kHelloMagic = 0x51'4d'50'49;  // "QMPI"
// v2: kRunBegin advertises a peer-listener address, kRunReady returns the
// brokered address table, and the kPeerHello/kPeerPost/kSimFence frames
// exist. The HELLO version check keeps mixed-version jobs from silently
// misparsing the new barrier bodies.
constexpr std::uint16_t kWireVersion = 2;

std::string errno_text() { return std::strerror(errno); }

/// Marks a socket close-on-exec so forked rank processes never inherit
/// the hub's listener or connections (an inherited bound port would keep
/// the address in use after the launcher dies).
void set_cloexec(int fd) { ::fcntl(fd, F_SETFD, FD_CLOEXEC); }

/// read(2) exactly `len` bytes. Returns false on clean EOF at offset 0;
/// EOF mid-buffer is a peer that died between frames' halves.
bool read_all(int fd, std::byte* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::read(fd, data + off, len - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw QmpiError(std::string("transport read failed: ") + errno_text());
    }
    if (n == 0) {
      if (off == 0) return false;
      throw QmpiError(
          "transport peer died mid-message (connection closed after " +
          std::to_string(off) + " of " + std::to_string(len) +
          " expected bytes)");
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Encodes the shared routed-message layout used by kPost and kDeliver:
/// (epoch, dest, source, tag, channel, context, payload). The epoch pins
/// the message to one run, so a delivery that races an abort broadcast can
/// never be mistaken for the next run's traffic; the hub forwards the body
/// verbatim after peeking at the (epoch, dest) prefix.
std::vector<std::byte> encode_routed(std::uint64_t epoch, int dest,
                                     const Message& msg) {
  WireWriter w;
  w.u64(epoch);
  w.i32(dest);
  w.i32(msg.source);
  w.i32(msg.tag);
  w.u8(static_cast<std::uint8_t>(msg.channel));
  w.u64(msg.context);
  w.bytes(msg.payload);
  return w.take();
}

/// Decodes the fields after the epoch (the caller has already read it).
std::pair<int, Message> decode_routed_after_epoch(WireReader& r) {
  const int dest = r.i32();
  Message msg;
  msg.source = r.i32();
  msg.tag = r.i32();
  msg.channel = static_cast<ChannelKind>(r.u8());
  msg.context = r.u64();
  const auto payload = r.rest();
  msg.payload.assign(payload.begin(), payload.end());
  return {dest, std::move(msg)};
}

void encode_run_config(WireWriter& w, const RunConfig& cfg) {
  w.u32(cfg.num_ranks);
  w.u64(cfg.seed);
  w.u8(cfg.backend);
  w.u32(cfg.num_shards);
  w.u32(cfg.sim_threads);
}

RunConfig decode_run_config(WireReader& r) {
  RunConfig cfg;
  cfg.num_ranks = r.u32();
  cfg.seed = r.u64();
  cfg.backend = r.u8();
  cfg.num_shards = r.u32();
  cfg.sim_threads = r.u32();
  return cfg;
}

}  // namespace

// ------------------------------------------------------- socket helpers ---

namespace net {

int listen_tcp(std::uint16_t port, int backlog, const char* role,
               std::uint16_t& bound_port, bool loopback_only) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw QmpiError(std::string(role) + ": cannot create socket: " +
                    errno_text());
  }
  set_cloexec(fd);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(loopback_only ? INADDR_LOOPBACK : INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string what = errno_text();
    ::close(fd);
    throw QmpiError(std::string(role) + ": cannot bind " +
                    (loopback_only ? "127.0.0.1" : "0.0.0.0") + ":" +
                    std::to_string(port) + ": " + what);
  }
  if (::listen(fd, backlog) < 0) {
    const std::string what = errno_text();
    ::close(fd);
    throw QmpiError(std::string(role) + ": listen failed: " + what);
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  bound_port = ntohs(addr.sin_port);
  return fd;
}

int dial_tcp(const std::string& host, std::uint16_t port, int timeout_ms) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &sa.sin_addr) != 1) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  set_cloexec(fd);
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
  if (rc < 0) {
    if (errno != EINPROGRESS) {
      ::close(fd);
      return -1;
    }
    pollfd p{};
    p.fd = fd;
    p.events = POLLOUT;
    if (::poll(&p, 1, timeout_ms) != 1) {
      ::close(fd);
      return -1;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0 || err != 0) {
      ::close(fd);
      return -1;
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace net

// -------------------------------------------------------------- framing ---

void write_frame(int fd, FrameType type, std::span<const std::byte> body) {
  if (body.size() + 1 > kMaxFrameBytes) {
    throw QmpiError("refusing to send oversized transport frame: " +
                    std::to_string(body.size()) + " bytes exceeds the " +
                    std::to_string(kMaxFrameBytes) +
                    "-byte frame limit (split the payload)");
  }
  WireWriter header;
  wire_detail::check_u32_count(body.size() + 1, "frame byte");
  header.u32(static_cast<std::uint32_t>(body.size() + 1));
  header.u8(static_cast<std::uint8_t>(type));
  const auto& head = header.data();
  // Gather write: header and body leave in one sendmsg with no copy of
  // the (possibly multi-megabyte) body, and TCP_NODELAY cannot split the
  // 5-byte header into its own segment.
  iovec iov[2];
  iov[0].iov_base = const_cast<std::byte*>(head.data());
  iov[0].iov_len = head.size();
  iov[1].iov_base = const_cast<std::byte*>(body.data());
  iov[1].iov_len = body.size();
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = body.empty() ? 1 : 2;
  std::size_t sent = 0;
  const std::size_t total = head.size() + body.size();
  while (sent < total) {
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw QmpiError(std::string("transport write failed: ") + errno_text() +
                      " (peer process likely died mid-message)");
    }
    sent += static_cast<std::size_t>(n);
    // Advance the iovecs past the bytes the kernel took (partial writes
    // are rare on loopback but must not corrupt the stream).
    std::size_t consumed = static_cast<std::size_t>(n);
    while (consumed > 0 && msg.msg_iovlen > 0) {
      if (consumed >= msg.msg_iov[0].iov_len) {
        consumed -= msg.msg_iov[0].iov_len;
        ++msg.msg_iov;
        --msg.msg_iovlen;
      } else {
        msg.msg_iov[0].iov_base =
            static_cast<std::byte*>(msg.msg_iov[0].iov_base) + consumed;
        msg.msg_iov[0].iov_len -= consumed;
        consumed = 0;
      }
    }
  }
}

Frame read_frame(int fd) {
  std::byte len_bytes[4];
  if (!read_all(fd, len_bytes, 4)) {
    throw QmpiError("transport peer closed the connection");
  }
  WireReader len_reader(std::span<const std::byte>(len_bytes, 4));
  const std::uint32_t len = len_reader.u32();
  if (len == 0) {
    throw QmpiError("malformed transport frame: zero-length frame");
  }
  if (len > kMaxFrameBytes) {
    throw QmpiError(
        "oversized transport frame rejected: header announces " +
        std::to_string(len) + " bytes, limit is " +
        std::to_string(kMaxFrameBytes) +
        " (corrupt stream or non-QMPI peer on this port)");
  }
  // Read the type byte, then the body straight into its final buffer —
  // no intermediate copy on the routing hot path.
  std::byte type_byte;
  if (!read_all(fd, &type_byte, 1)) {
    throw QmpiError("transport peer died mid-message (frame header "
                    "arrived, body never did)");
  }
  Frame frame;
  frame.type = static_cast<FrameType>(type_byte);
  frame.body.resize(len - 1);
  if (!frame.body.empty() &&
      !read_all(fd, frame.body.data(), frame.body.size())) {
    throw QmpiError("transport peer died mid-message (frame header "
                    "arrived, body never did)");
  }
  return frame;
}

// ------------------------------------------------------------ placement ---

RankBlock rank_block(int num_ranks, int nprocs, int proc) {
  const int base = num_ranks / nprocs;
  const int rem = num_ranks % nprocs;
  RankBlock b;
  b.first = proc * base + std::min(proc, rem);
  b.count = base + (proc < rem ? 1 : 0);
  return b;
}

int rank_owner(int num_ranks, int nprocs, int world_rank) {
  const int base = num_ranks / nprocs;
  const int rem = num_ranks % nprocs;
  const int fat = rem * (base + 1);  // ranks living in (base+1)-sized blocks
  if (world_rank < fat) return world_rank / (base + 1);
  return rem + (world_rank - fat) / base;
}

// ------------------------------------------------------------------ hub ---

Hub::Hub(int nprocs, std::uint16_t port, Services services)
    : nprocs_(nprocs), services_(std::move(services)) {
  sim_failed_.assign(static_cast<std::size_t>(nprocs), std::string());
  conns_.reserve(static_cast<std::size_t>(nprocs));
  for (int p = 0; p < nprocs; ++p) conns_.push_back(std::make_unique<Conn>());

  listen_fd_ = net::listen_tcp(port, nprocs, "hub", port_);
}

Hub::~Hub() {
  stop();
  for (auto& conn : conns_) {
    if (conn->reader.joinable()) conn->reader.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void Hub::serve() {
  while (true) {
    {
      const qmpi::LockGuard lock(mu_);
      if (stopping_ || connected_ == nprocs_) break;
    }
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      const qmpi::LockGuard lock(mu_);
      if (stopping_) break;
      throw QmpiError("hub: accept failed: " + errno_text());
    }
    set_cloexec(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    // HELLO handshake identifies which process this connection is. A
    // receive timeout bounds it: a connection that never speaks (port
    // scanner, rank crashed right after connect) must not wedge the
    // accept loop and with it the whole job launch.
    timeval hello_timeout{};
    hello_timeout.tv_sec = 5;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &hello_timeout,
                 sizeof(hello_timeout));
    int proc = -1;
    try {
      const Frame hello = read_frame(fd);
      WireReader r(hello.body);
      const std::uint32_t magic = r.u32();
      const std::uint16_t version = r.u16();
      const int claimed = r.u16();
      if (hello.type != FrameType::kHello || magic != kHelloMagic ||
          version != kWireVersion || claimed < 0 || claimed >= nprocs_) {
        throw QmpiError("hub: bad HELLO (not a QMPI rank process, or "
                        "version/proc-id mismatch)");
      }
      proc = claimed;
    } catch (const QmpiError&) {
      ::close(fd);
      continue;  // a port scanner or a malformed peer; keep serving
    }

    {
      const qmpi::LockGuard lock(mu_);
      if (stopping_) {
        // stop() already swept the registered connections; anything
        // accepted after that must not spawn an unstoppable reader.
        ::close(fd);
        break;
      }
      Conn& conn = *conns_[static_cast<std::size_t>(proc)];
      if (conn.claimed) {
        // Duplicate proc id (first connection wins) or a reconnect after
        // that process already left the job — either way it must not
        // count toward connected_, or serve() would stop accepting while
        // a real process is still on its way.
        ::close(fd);
        continue;
      }
      const timeval no_timeout{};  // handshake is over; reads block again
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &no_timeout,
                   sizeof(no_timeout));
      {
        // fd/open are read under write_mu by stop() and send_to(); take
        // it here too so registration is visible under either guard.
        const qmpi::LockGuard wlock(conn.write_mu);
        conn.fd = fd;
        conn.open = true;
      }
      conn.claimed = true;
      ++connected_;
      ++alive_;
      conn.reader = std::thread([this, proc] { reader_loop(proc); });
    }
    WireWriter ack;
    ack.u16(static_cast<std::uint16_t>(nprocs_));
    try {
      send_to(proc, FrameType::kHelloAck, ack.data());
    } catch (const QmpiError&) {
      // reader_loop will observe the dead socket and clean up.
    }
  }
  // All processes connected (or stop requested): wait for them to leave.
  qmpi::UniqueLock lock(mu_);
  while (alive_ != 0 && !stopping_) done_cv_.wait(lock);
}

int Hub::connected_count() {
  const qmpi::LockGuard lock(mu_);
  return connected_;
}

void Hub::stop() {
  {
    const qmpi::LockGuard lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    // Only shutdown() here — the fd stays valid (and un-recyclable) until
    // the destructor closes it after serve() has returned, so a racing
    // accept() can never operate on a reused descriptor number.
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  }
  // Shut each connection down under its write mutex: on_disconnect closes
  // fds under the same mutex, so we can never SHUT_RDWR a descriptor the
  // kernel has already recycled for another socket.
  for (auto& conn : conns_) {
    const qmpi::LockGuard wlock(conn->write_mu);
    if (conn->open) ::shutdown(conn->fd, SHUT_RDWR);
  }
  done_cv_.notify_all();
}

void Hub::send_to(int proc, FrameType type, std::span<const std::byte> body) {
  Conn& conn = *conns_[static_cast<std::size_t>(proc)];
  const qmpi::LockGuard lock(conn.write_mu);
  if (!conn.open) return;  // already gone; routing noticed separately
  write_frame(conn.fd, type, body);
}

void Hub::reader_loop(int proc) {
  // Catch std::exception, not just QmpiError: anything escaping a frame
  // handler (bad_alloc on a huge frame, an unexpected service error) must
  // fail this connection's job, never std::terminate the whole launcher.
  try {
    while (true) {
      Frame frame = read_frame(conns_[static_cast<std::size_t>(proc)]->fd);
      handle_frame(proc, std::move(frame));
    }
  } catch (const std::exception& e) {
    const qmpi::LockGuard lock(mu_);
    // A process leaving mid-run kills the job; between runs it is a normal
    // exit (the gtest binary finished).
    if (run_active_ || begin_count_ > 0 || end_count_ > 0) {
      abort_run_locked(proc,
                       "rank process " + std::to_string(proc) +
                           " left the job mid-run: " + e.what());
    }
    on_disconnect(proc);
  }
}

void Hub::on_disconnect(int proc) {
  Conn& conn = *conns_[static_cast<std::size_t>(proc)];
  {
    const qmpi::LockGuard wlock(conn.write_mu);
    if (conn.open) {
      ::close(conn.fd);
      conn.open = false;
    }
  }
  --alive_;
  ++departed_;  // a process never reconnects; later begin barriers must fail
  if (alive_ == 0) done_cv_.notify_all();
}

void Hub::abort_run_locked(int origin_proc, const std::string& reason) {
  // A failed begin barrier still consumes its epoch so the next run's
  // RUN_BEGINs line up (clients already incremented their counters).
  const bool begin_phase = pending_cfg_.has_value();
  const std::uint64_t epoch = begin_phase ? hub_epoch_ + 1 : hub_epoch_;
  // One broadcast per failed epoch — scoped to the epoch, not "until the
  // next run goes live", so a failure in the very next begin phase still
  // broadcasts instead of hanging every process in begin_run.
  if (aborted_epoch_ == epoch) return;
  aborted_epoch_ = epoch;
  if (begin_phase) hub_epoch_ = epoch;
  run_active_ = false;
  for (auto& failed : sim_failed_) failed.clear();
  pending_cfg_.reset();
  begin_count_ = 0;
  begin_req_ids_.clear();
  begin_addrs_.clear();
  end_count_ = 0;
  end_req_ids_.clear();
  end_totals_.clear();

  WireWriter w;
  w.u64(epoch);
  w.str(reason);
  for (int p = 0; p < nprocs_; ++p) {
    if (p == origin_proc) continue;  // the origin already knows
    try {
      send_to(p, FrameType::kAbort, w.data());
    } catch (const QmpiError&) {
      // That peer is dying too; its reader will clean up.
    }
  }
}

void Hub::handle_frame(int proc, Frame frame) {
  switch (frame.type) {
    case FrameType::kPost: {
      // Peek only at the routing prefix (epoch + dest); the body is
      // forwarded verbatim as the kDeliver body, so routing never copies
      // or re-encodes the payload.
      WireReader r(frame.body);
      const std::uint64_t epoch = r.u64();
      const int dest = r.i32();
      int owner = -1;
      {
        const qmpi::LockGuard lock(mu_);
        if (!run_active_ || epoch != hub_epoch_ || dest < 0 ||
            dest >= static_cast<int>(active_cfg_.num_ranks)) {
          return;  // stale traffic from an aborted/finished run
        }
        owner = rank_owner(static_cast<int>(active_cfg_.num_ranks), nprocs_,
                           dest);
      }
      // The epoch check above can race an abort broadcast (mu_ is released
      // before the write), but the delivery still carries its epoch, so the
      // receiving client drops it if its run has moved on.
      try {
        send_to(owner, FrameType::kDeliver, frame.body);
      } catch (const QmpiError& e) {
        const qmpi::LockGuard lock(mu_);
        abort_run_locked(-1, "cannot deliver to rank process " +
                                 std::to_string(owner) + ": " + e.what());
      }
      return;
    }

    case FrameType::kSimBatch: {
      // One-way pipelined quantum ops: epoch-tagged like kPost (a batch
      // from an aborted run must never execute against the next run's
      // backend), executed synchronously on this reader thread so
      // per-connection FIFO makes "batch frame before classical frame"
      // mean "ops applied before the message is routed". No reply on
      // success; a failure travels back as a req-id-0 kSimError, which
      // the client surfaces at its next synchronization point.
      WireReader r(frame.body);
      const std::uint64_t epoch = r.u64();
      {
        const qmpi::LockGuard lock(mu_);
        if (!run_active_ || epoch != hub_epoch_) return;  // stale batch
        // This process's op stream already broke: later batches may be
        // in flight ahead of the error notice, and executing them would
        // apply ops "after" the failure. Drop them.
        if (!sim_failed_[static_cast<std::size_t>(proc)].empty()) return;
      }
      const auto request = r.rest();
      try {
        const qmpi::LockGuard sim_lock(sim_mu_);
        if (!services_.sim) {
          throw QmpiError("hub has no quantum service configured");
        }
        (void)services_.sim(request);
      } catch (const std::exception& e) {
        {
          const qmpi::LockGuard lock(mu_);
          auto& reason = sim_failed_[static_cast<std::size_t>(proc)];
          if (reason.empty()) reason = e.what();
        }
        WireWriter err;
        err.u64(0);  // req id 0: asynchronous batch error
        err.str(e.what());
        send_to(proc, FrameType::kSimError, err.data());
      }
      return;
    }

    case FrameType::kSim: {
      WireReader r(frame.body);
      const std::uint64_t req_id = r.u64();
      const auto request = r.rest();
      WireWriter reply;
      reply.u64(req_id);
      {
        // A request behind a failed batch from the same process must not
        // observe the broken state; answer it with the root cause (this
        // also makes the deferred error deterministic: even if the
        // req-id-0 notice races, the next round trip reports it).
        const qmpi::LockGuard lock(mu_);
        const auto& reason = sim_failed_[static_cast<std::size_t>(proc)];
        if (!reason.empty()) {
          reply.str(reason);
          send_to(proc, FrameType::kSimError, reply.data());
          return;
        }
      }
      FrameType reply_type = FrameType::kSimResult;
      try {
        std::vector<std::byte> result;
        {
          // The sim mutex is the quantum serialization point: ops from all
          // ranks execute one at a time in arrival order, as under the
          // in-process SimServer's exec_mu. It is separate from mu_ so an
          // O(2^n) sweep never stalls classical routing.
          const qmpi::LockGuard sim_lock(sim_mu_);
          if (!services_.sim) {
            throw QmpiError("hub has no quantum service configured");
          }
          result = services_.sim(request);
        }
        reply.bytes(result);
      } catch (const std::exception& e) {
        reply_type = FrameType::kSimError;
        reply.str(e.what());
      }
      send_to(proc, reply_type, reply.data());
      return;
    }

    case FrameType::kCtxAlloc: {
      WireReader r(frame.body);
      const std::uint64_t req_id = r.u64();
      std::uint64_t ctx = 0;
      {
        const qmpi::LockGuard lock(mu_);
        ctx = next_context_++;
      }
      WireWriter reply;
      reply.u64(req_id);
      reply.u64(ctx);
      send_to(proc, FrameType::kCtxId, reply.data());
      return;
    }

    case FrameType::kSimFence: {
      // Pure ack. kSimBatch frames execute synchronously on this reader
      // thread, so by the time this frame is handled every batch written
      // before it has already run (or been recorded as failed — the
      // req-id-0 kSimError precedes this ack on the FIFO connection, so
      // the client sees the failure before the fence completes).
      WireReader r(frame.body);
      const std::uint64_t req_id = r.u64();
      WireWriter reply;
      reply.u64(req_id);
      send_to(proc, FrameType::kSimFenceAck, reply.data());
      return;
    }

    case FrameType::kRunBegin: {
      WireReader r(frame.body);
      const std::uint64_t req_id = r.u64();
      const std::uint64_t epoch = r.u64();
      const RunConfig cfg = decode_run_config(r);
      // Peer-listener advertisement (wire v2). Tolerate its absence so a
      // minimal client (tests driving the barrier directly) just reads
      // back a table of port-0 entries, i.e. all-hub routing.
      PeerAddr addr;
      if (r.remaining() > 0) {
        addr.host = r.str();
        addr.port = r.u16();
      }
      const qmpi::LockGuard lock(mu_);
      if (departed_ > 0) {
        // A peer left the job for good between runs; this barrier can
        // never complete, so fail it immediately instead of hanging.
        const std::string reason =
            std::to_string(departed_) + " rank process(es) already left "
            "the job; a new run cannot start";
        if (!pending_cfg_.has_value()) hub_epoch_ = epoch;  // consume it
        WireWriter abort_body;
        abort_body.u64(epoch);
        abort_body.str(reason);
        try {
          send_to(proc, FrameType::kAbort, abort_body.data());
        } catch (const QmpiError&) {
        }
        return;
      }
      if (epoch != hub_epoch_ + 1) {
        // This process is re-beginning an epoch the hub already consumed
        // (its previous begin raced an abort whose broadcast it ignored
        // because it had not entered the barrier yet). The epoch-scoped
        // broadcast dedup may suppress a re-broadcast, so tell this
        // process directly.
        const std::string reason =
            "process " + std::to_string(proc) + " began run epoch " +
            std::to_string(epoch) + " but the hub is at epoch " +
            std::to_string(hub_epoch_) + " (a previous run was aborted)";
        WireWriter abort_body;
        abort_body.u64(epoch);
        abort_body.str(reason);
        try {
          send_to(proc, FrameType::kAbort, abort_body.data());
        } catch (const QmpiError&) {
        }
        abort_run_locked(proc, reason);
        return;
      }
      if (!pending_cfg_.has_value()) {
        pending_cfg_ = cfg;
        begin_req_ids_.assign(static_cast<std::size_t>(nprocs_), 0);
        begin_addrs_.assign(static_cast<std::size_t>(nprocs_), PeerAddr{});
      } else if (!(cfg == *pending_cfg_)) {
        abort_run_locked(-1,
                         "QMPI run configuration differs across processes "
                         "(check that every process sees the same QMPI_* "
                         "environment)");
        return;
      }
      begin_req_ids_[static_cast<std::size_t>(proc)] = req_id;
      begin_addrs_[static_cast<std::size_t>(proc)] = std::move(addr);
      if (++begin_count_ < nprocs_) return;

      // Barrier complete: reset the backend, then go live before any
      // RUN_READY leaves, so early kPost traffic is routable. A reset
      // failure (e.g. a shard count the backend rejects) fails this run
      // for every process instead of killing the hub.
      if (services_.reset) {
        try {
          services_.reset(*pending_cfg_);
        } catch (const std::exception& e) {
          abort_run_locked(-1, std::string("cannot start run, backend "
                                           "reset failed: ") +
                                   e.what());
          return;
        }
      }
      active_cfg_ = *pending_cfg_;
      pending_cfg_.reset();
      begin_count_ = 0;
      hub_epoch_ = epoch;
      next_context_ = 1;  // fresh Universe semantics per run
      for (auto& failed : sim_failed_) failed.clear();  // fresh backend too
      run_active_ = true;
      for (int p = 0; p < nprocs_; ++p) {
        WireWriter ready;
        ready.u64(begin_req_ids_[static_cast<std::size_t>(p)]);
        // The brokered data plane: every process learns where every other
        // process accepts direct peer connections (port 0 = hub-route it).
        wire_detail::check_u32_count(begin_addrs_.size(), "peer address");
        ready.u32(static_cast<std::uint32_t>(begin_addrs_.size()));
        for (const auto& a : begin_addrs_) {
          ready.str(a.host);
          ready.u16(a.port);
        }
        try {
          send_to(p, FrameType::kRunReady, ready.data());
        } catch (const QmpiError& e) {
          abort_run_locked(p, std::string("cannot start run: ") + e.what());
          return;
        }
      }
      begin_addrs_.clear();
      return;
    }

    case FrameType::kRunEnd: {
      WireReader r(frame.body);
      const std::uint64_t req_id = r.u64();
      const std::uint64_t epoch = r.u64();
      const std::uint32_t n = r.u32();
      const qmpi::LockGuard lock(mu_);
      if (!run_active_ || epoch != hub_epoch_) return;  // aborted already
      if (end_count_ == 0) {  // first RUN_END of this barrier
        end_totals_.assign(n, 0);
        end_req_ids_.assign(static_cast<std::size_t>(nprocs_), 0);
      } else if (n != end_totals_.size()) {
        // Heterogeneous binaries (one process built with a different
        // resource-counter layout): summing would silently corrupt the
        // world totals, so fail the run loudly instead.
        abort_run_locked(-1,
                         "resource totals layout differs across processes "
                         "(are all ranks running the same binary?)");
        return;
      }
      for (std::uint32_t i = 0; i < n && i < end_totals_.size(); ++i) {
        end_totals_[i] += r.u64();
      }
      end_req_ids_[static_cast<std::size_t>(proc)] = req_id;
      if (++end_count_ < nprocs_) return;

      run_active_ = false;
      for (int p = 0; p < nprocs_; ++p) {
        WireWriter ack;
        ack.u64(end_req_ids_[static_cast<std::size_t>(p)]);
        wire_detail::check_u32_count(end_totals_.size(), "resource total");
        ack.u32(static_cast<std::uint32_t>(end_totals_.size()));
        for (const auto v : end_totals_) ack.u64(v);
        try {
          send_to(p, FrameType::kRunEndAck, ack.data());
        } catch (const QmpiError&) {
          // Peer died at the very end; its reader aborts the (now
          // finished) run, which is a no-op.
        }
      }
      end_count_ = 0;
      end_req_ids_.clear();
      end_totals_.clear();
      return;
    }

    case FrameType::kAbort: {
      WireReader r(frame.body);
      const std::uint64_t epoch = r.u64();
      const std::string reason = r.str();
      const qmpi::LockGuard lock(mu_);
      const std::uint64_t current =
          pending_cfg_.has_value() ? hub_epoch_ + 1 : hub_epoch_;
      if (epoch == current && (run_active_ || pending_cfg_.has_value() ||
                               end_count_ > 0)) {
        abort_run_locked(proc, reason);
      }
      return;
    }

    default:
      // Unknown or out-of-place frame: a protocol bug. Fail loudly.
      throw QmpiError("hub: unexpected frame type " +
                      std::to_string(static_cast<int>(frame.type)) +
                      " from process " + std::to_string(proc));
  }
}

// --------------------------------------------------------------- client ---

HubClient::HubClient(const std::string& host, std::uint16_t port, int proc_id,
                     int connect_attempts)
    : proc_id_(proc_id) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw QmpiError("QMPI_TCP_HOST=\"" + host +
                    "\" is not a valid IPv4 address");
  }

  std::string last_error;
  for (int attempt = 0; attempt < connect_attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
      throw QmpiError("cannot create socket: " + errno_text());
    }
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
        0) {
      break;
    }
    last_error = errno_text();
    ::close(fd_);
    fd_ = -1;
  }
  if (fd_ < 0) {
    throw QmpiError("cannot connect to QMPI hub at " + host + ":" +
                    std::to_string(port) + ": " + last_error +
                    " (is qmpirun running, and do QMPI_TCP_HOST/"
                    "QMPI_TCP_PORT match its listener?)");
  }
  set_cloexec(fd_);
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  // Synchronous HELLO before the receiver thread exists: nothing else can
  // be in flight yet. Bounded by a receive timeout, mirroring the hub's
  // handshake guard: a listener that accepts but never answers (wrong
  // service on QMPI_TCP_PORT, wedged hub) must fail loud, not hang.
  timeval hello_timeout{};
  hello_timeout.tv_sec = 5;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &hello_timeout,
               sizeof(hello_timeout));
  WireWriter hello;
  hello.u32(kHelloMagic);
  hello.u16(kWireVersion);
  hello.u16(static_cast<std::uint16_t>(proc_id));
  write_frame(fd_, FrameType::kHello, hello.data());
  Frame ack;
  try {
    ack = read_frame(fd_);
  } catch (const QmpiError& e) {
    ::close(fd_);
    throw QmpiError("no HELLO_ACK from " + host + ":" +
                    std::to_string(port) +
                    " within 5s — is that really a qmpirun hub? (" +
                    e.what() + ")");
  }
  const timeval no_timeout{};  // handshake over; reads block again
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &no_timeout,
               sizeof(no_timeout));
  if (ack.type != FrameType::kHelloAck) {
    ::close(fd_);
    throw QmpiError("hub handshake failed: expected HELLO_ACK, got frame "
                    "type " +
                    std::to_string(static_cast<int>(ack.type)));
  }
  WireReader r(ack.body);
  nprocs_ = r.u16();
  if (proc_id_ >= nprocs_) {
    ::close(fd_);
    throw QmpiError("QMPI_PROC_ID=" + std::to_string(proc_id_) +
                    " out of range for a " + std::to_string(nprocs_) +
                    "-process job");
  }
  receiver_ = std::thread([this] { receiver_loop(); });
}

HubClient::~HubClient() {
  {
    const qmpi::LockGuard lock(mu_);
    fatal_ = true;
  }
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  if (receiver_.joinable()) receiver_.join();
  if (fd_ >= 0) ::close(fd_);
}

void HubClient::fail_locked(const std::string& reason, bool fatal) {
  run_dead_ = true;
  if (fatal) fatal_ = true;
  if (dead_reason_.empty()) dead_reason_ = reason;
  if (on_abort_) on_abort_(dead_reason_);
  cv_.notify_all();
}

void HubClient::receiver_loop() {
  try {
    while (true) {
      Frame frame = read_frame(fd_);
      qmpi::UniqueLock lock(mu_);
      switch (frame.type) {
        case FrameType::kDeliver: {
          WireReader r(frame.body);
          const std::uint64_t epoch = r.u64();
          // Drop anything not addressed to the run we are currently in:
          // a delivery that raced an abort at the hub carries the dead
          // run's epoch and must never reach the next run's mailboxes.
          if (epoch != epoch_ || run_dead_ || !deliver_) break;
          auto [dest, msg] = decode_routed_after_epoch(r);
          // Invoke the sink OUTSIDE mu_: in distributed mode the sink is
          // the sim plane, and the root's sequencer immediately
          // rebroadcasts through post_remote(), which takes mu_ again.
          // Staying on this thread keeps per-connection FIFO intact.
          const auto deliver = deliver_;
          lock.unlock();
          try {
            deliver(dest, std::move(msg));
          } catch (const ShutdownError&) {
            // The run died after the epoch check (the root sequencer's
            // rebroadcast then meets a dead run). Its abort carries the
            // cause; the hub connection must survive for the next run.
          }
          break;
        }
        case FrameType::kRunReady:
        case FrameType::kCtxId:
        case FrameType::kSimResult:
        case FrameType::kSimError:
        case FrameType::kSimFenceAck:
        case FrameType::kRunEndAck: {
          WireReader r(frame.body);
          const std::uint64_t req_id = r.u64();
          if (frame.type == FrameType::kSimError && req_id == 0) {
            // Deferred failure of a one-way sim_post batch. First error
            // wins (later ones are downstream of the same broken state);
            // it is rethrown from the next sim_post/sim_call.
            const std::string reason = r.str();
            if (sim_post_error_.empty()) sim_post_error_ = reason;
            break;
          }
          if (req_id != waiting_req_id_) break;  // stale reply; drop
          if (frame.type == FrameType::kRunEndAck) epoch_done_ = true;
          reply_ = std::move(frame);
          cv_.notify_all();
          break;
        }
        case FrameType::kAbort: {
          WireReader r(frame.body);
          const std::uint64_t epoch = r.u64();
          const std::string reason = r.str();
          if (epoch == epoch_ && !epoch_done_) {
            fail_locked(reason, /*fatal=*/false);
          }
          break;
        }
        default:
          throw QmpiError("unexpected frame type " +
                          std::to_string(static_cast<int>(frame.type)) +
                          " from hub");
      }
    }
  } catch (const std::exception& e) {
    const qmpi::LockGuard lock(mu_);
    if (!fatal_) {
      fail_locked(std::string("lost connection to QMPI hub: ") + e.what(),
                  /*fatal=*/true);
    } else {
      // Deliberate local close (destructor); wake any remaining waiter.
      cv_.notify_all();
    }
  }
}

void HubClient::check_alive_locked() {
  if (fatal_ || run_dead_) {
    // Secondary failure: the run is already dead; blocked callers must
    // unwind the same way mailbox waiters do so the harness can prefer the
    // root cause.
    throw ShutdownError();
  }
}

void HubClient::throw_sim_post_error_locked() {
  if (sim_post_error_.empty()) return;
  std::string reason;
  reason.swap(sim_post_error_);
  throw RemoteSimError(reason);
}

void HubClient::run_sim_flush() {
  std::function<void()> flush;
  {
    const qmpi::LockGuard lock(mu_);
    flush = sim_flush_;
  }
  // Invoked without any HubClient lock held: the hook calls back into
  // sim_post, which takes mu_ and wr_mu_ itself.
  if (flush) flush();
}

std::vector<std::byte> HubClient::request(FrameType type, FrameType expect,
                                          std::span<const std::byte> body) {
  const qmpi::LockGuard req_lock(req_mu_);
  std::uint64_t req_id = 0;
  {
    const qmpi::LockGuard lock(mu_);
    check_alive_locked();
    req_id = next_req_id_++;
    waiting_req_id_ = req_id;
    reply_.reset();
  }
  WireWriter w;
  w.u64(req_id);
  w.bytes(body);
  {
    const qmpi::LockGuard wlock(wr_mu_);
    write_frame(fd_, type, w.data());
  }
  qmpi::UniqueLock lock(mu_);
  while (!reply_.has_value() && !run_dead_ && !fatal_) cv_.wait(lock);
  waiting_req_id_ = 0;
  if (!reply_.has_value()) throw ShutdownError();
  Frame reply = std::move(*reply_);
  reply_.reset();
  if (reply.type == FrameType::kSimError) {
    WireReader r(reply.body);
    r.u64();  // req id
    throw RemoteSimError(r.str());
  }
  if (reply.type != expect) {
    throw QmpiError("hub protocol error: expected frame type " +
                    std::to_string(static_cast<int>(expect)) + ", got " +
                    std::to_string(static_cast<int>(reply.type)));
  }
  // Strip the request-id echo; callers see only the semantic body.
  WireReader r(reply.body);
  r.u64();
  const auto rest = r.rest();
  return std::vector<std::byte>(rest.begin(), rest.end());
}

void HubClient::begin_run(const RunConfig& cfg) {
  std::uint64_t epoch = 0;
  PeerAddr endpoint;
  {
    const qmpi::LockGuard lock(mu_);
    if (fatal_) {
      throw QmpiError("cannot start a run: " + dead_reason_);
    }
    epoch = ++epoch_;
    epoch_done_ = false;
    run_dead_ = false;
    dead_reason_.clear();
    // A deferred batch error from an aborted run must not poison this
    // one: the hub's backend is reset at the begin barrier.
    sim_post_error_.clear();
    // A stale table must not outlive the run that brokered it.
    peers_.clear();
    endpoint = endpoint_;
  }
  WireWriter w;
  w.u64(epoch);
  encode_run_config(w, cfg);
  w.str(endpoint.host);
  w.u16(endpoint.port);
  std::vector<std::byte> body;
  try {
    body = request(FrameType::kRunBegin, FrameType::kRunReady, w.data());
  } catch (const ShutdownError&) {
    // A begin-barrier failure is always primary (config mismatch, peer
    // death): nothing user-visible has started yet, so report the reason.
    throw QmpiError("cannot start a run: " + dead_reason());
  }
  // The brokered peer address table (one entry per process).
  WireReader r(body);
  std::vector<PeerAddr> peers;
  if (r.remaining() > 0) {
    const std::uint32_t n = r.u32();
    peers.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      PeerAddr a;
      a.host = r.str();
      a.port = r.u16();
      peers.push_back(std::move(a));
    }
  }
  const qmpi::LockGuard lock(mu_);
  peers_ = std::move(peers);
}

void HubClient::set_peer_endpoint(std::string host, std::uint16_t port) {
  const qmpi::LockGuard lock(mu_);
  endpoint_ = PeerAddr{std::move(host), port};
}

std::vector<PeerAddr> HubClient::peer_addresses() {
  const qmpi::LockGuard lock(mu_);
  return peers_;
}

std::uint64_t HubClient::run_epoch() {
  const qmpi::LockGuard lock(mu_);
  check_alive_locked();
  return epoch_;
}

bool HubClient::run_epoch_live(std::uint64_t epoch) {
  const qmpi::LockGuard lock(mu_);
  return epoch == epoch_ && !run_dead_ && !fatal_;
}

void HubClient::sim_fence() {
  // Put any buffered batches on the wire first, so "seq" covers them.
  run_sim_flush();
  const std::uint64_t target = batch_seq_.load(std::memory_order_acquire);
  if (target == batch_synced_.load(std::memory_order_acquire)) return;
  (void)request(FrameType::kSimFence, FrameType::kSimFenceAck, {});
  {
    // The FIFO hub->client stream delivered any req-id-0 batch error
    // before the fence ack; surface it now, exactly like sim_call does.
    const qmpi::LockGuard lock(mu_);
    throw_sim_post_error_locked();
  }
  // Monotonic max: a concurrent fence may already have advanced it.
  std::uint64_t cur = batch_synced_.load(std::memory_order_relaxed);
  while (cur < target &&
         !batch_synced_.compare_exchange_weak(cur, target,
                                              std::memory_order_release)) {
  }
}

std::vector<std::uint64_t> HubClient::end_run(
    std::span<const std::uint64_t> totals) {
  // Flush-before-barrier: buffered quantum ops must be on the wire (and
  // thus executed, by connection FIFO) before the run can complete.
  run_sim_flush();
  WireWriter w;
  {
    const qmpi::LockGuard lock(mu_);
    w.u64(epoch_);
  }
  wire_detail::check_u32_count(totals.size(), "resource total");
  w.u32(static_cast<std::uint32_t>(totals.size()));
  for (const auto v : totals) w.u64(v);
  std::vector<std::byte> body;
  try {
    body = request(FrameType::kRunEnd, FrameType::kRunEndAck, w.data());
  } catch (const ShutdownError&) {
    // A peer failed while we waited at the end barrier; surface the
    // job-level cause (peer death, config mismatch) instead of the
    // secondary shutdown.
    const std::string reason = dead_reason();
    throw QmpiError("QMPI job aborted" +
                    (reason.empty() ? std::string(" by a peer process")
                                    : ": " + reason));
  }
  WireReader r(body);
  const std::uint32_t n = r.u32();
  std::vector<std::uint64_t> sums(n);
  for (std::uint32_t i = 0; i < n; ++i) sums[i] = r.u64();
  return sums;
}

void HubClient::abort_run(const std::string& reason) {
  std::uint64_t epoch = 0;
  {
    const qmpi::LockGuard lock(mu_);
    if (fatal_ || run_dead_) return;  // already failed; first reason wins
    epoch = epoch_;
    fail_locked(reason, /*fatal=*/false);
  }
  WireWriter w;
  w.u64(epoch);
  w.str(reason);
  try {
    const qmpi::LockGuard wlock(wr_mu_);
    write_frame(fd_, FrameType::kAbort, w.data());
  } catch (const QmpiError&) {
    // Hub is gone too; local ranks are already unblocked.
  }
}

std::uint64_t HubClient::allocate_context() {
  const auto body =
      request(FrameType::kCtxAlloc, FrameType::kCtxId, {});
  WireReader r(body);
  return r.u64();
}

std::vector<std::byte> HubClient::sim_call(
    std::span<const std::byte> request_body) {
  {
    // An already-known batch failure is the root cause of whatever this
    // call would observe; throw it instead of issuing the request.
    const qmpi::LockGuard lock(mu_);
    throw_sim_post_error_locked();
  }
  auto reply = request(FrameType::kSim, FrameType::kSimResult, request_body);
  {
    // Both directions of the connection are FIFO, so an error frame for
    // any batch that executed before this request has been processed by
    // the receiver before our reply woke us: if the flag is set now, the
    // reply was computed on post-failure state and must not be returned.
    const qmpi::LockGuard lock(mu_);
    throw_sim_post_error_locked();
  }
  return reply;
}

void HubClient::sim_post(std::span<const std::byte> request) {
  std::uint64_t epoch = 0;
  {
    const qmpi::LockGuard lock(mu_);
    check_alive_locked();
    throw_sim_post_error_locked();
    epoch = epoch_;
  }
  WireWriter w;
  w.u64(epoch);
  w.bytes(request);
  const qmpi::LockGuard wlock(wr_mu_);
  // Number the batch under the write lock, before it hits the wire: wire
  // order and seq order then agree, which is what sim_fence()'s "ack
  // covers every batch <= target" argument rests on.
  batch_seq_.fetch_add(1, std::memory_order_release);
  write_frame(fd_, FrameType::kSimBatch, w.data());
}

void HubClient::post_remote(int dest_world_rank, const Message& msg) {
  // Flush buffered quantum ops onto the connection first: FIFO then
  // guarantees the receiving rank can never observe this message before
  // the hub has executed every op that preceded it on this process.
  run_sim_flush();
  std::uint64_t epoch = 0;
  {
    const qmpi::LockGuard lock(mu_);
    check_alive_locked();
    epoch = epoch_;
  }
  const auto body = encode_routed(epoch, dest_world_rank, msg);
  const qmpi::LockGuard wlock(wr_mu_);
  write_frame(fd_, FrameType::kPost, body);
}

void HubClient::set_sinks(
    std::function<void(int, Message)> deliver,
    std::function<void(const std::string&)> on_abort) {
  const qmpi::LockGuard lock(mu_);
  deliver_ = std::move(deliver);
  on_abort_ = std::move(on_abort);
}

void HubClient::set_sim_flush(std::function<void()> flush) {
  const qmpi::LockGuard lock(mu_);
  sim_flush_ = std::move(flush);
}

std::string HubClient::dead_reason() {
  const qmpi::LockGuard lock(mu_);
  return dead_reason_;
}

// ----------------------------------------------------------- peer mesh ---

PeerMesh::PeerMesh(HubClient& hub,
                   std::function<void(int dest, Message)> deliver,
                   const std::string& advertised_host)
    : hub_(&hub), deliver_(std::move(deliver)) {
  links_.reserve(static_cast<std::size_t>(hub.nprocs()));
  for (int p = 0; p < hub.nprocs(); ++p) {
    links_.push_back(std::make_unique<Link>());
  }

  // With the loopback default the listener stays loopback-bound; a real
  // (QMPI_P2P_HOST) advertisement means peers dial in from other hosts,
  // so the listener must accept on all interfaces. Ephemeral port always:
  // many rank processes share this host.
  const bool loopback_only =
      advertised_host.empty() || advertised_host == "127.0.0.1" ||
      advertised_host == "localhost";
  listen_fd_ = net::listen_tcp(/*port=*/0, hub.nprocs(), "peer mesh", port_,
                               loopback_only);
  acceptor_ = std::thread([this] { accept_loop(); });
}

PeerMesh::~PeerMesh() {
  {
    const qmpi::LockGuard lock(mu_);
    stopping_ = true;
    // shutdown(), never close(), while threads may still use the fds: a
    // closed descriptor number could be recycled by an unrelated socket
    // before the reader notices. close happens after the joins.
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
    for (const int fd : peer_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& t : readers_) {
    if (t.joinable()) t.join();
  }
  for (const int fd : peer_fds_) ::close(fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  for (auto& link : links_) {
    if (link->fd >= 0) ::close(link->fd);
  }
}

void PeerMesh::break_listener_for_test() {
  const qmpi::LockGuard lock(mu_);
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
}

void PeerMesh::break_links_for_test() {
  const qmpi::LockGuard lock(mu_);
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  for (const int fd : peer_fds_) ::shutdown(fd, SHUT_RDWR);
}

void PeerMesh::accept_loop() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (destructor or test hook)
    }
    set_cloexec(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    // Same bounded-handshake discipline as the hub: a connection that
    // never identifies itself must not wedge the accept loop.
    timeval hello_timeout{};
    hello_timeout.tv_sec = 5;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &hello_timeout,
                 sizeof(hello_timeout));
    try {
      const Frame hello = read_frame(fd);
      WireReader r(hello.body);
      const std::uint32_t magic = r.u32();
      const std::uint16_t version = r.u16();
      if (hello.type != FrameType::kPeerHello || magic != kHelloMagic ||
          version != kWireVersion) {
        throw QmpiError("peer mesh: bad peer hello");
      }
      (void)r.u16();  // dialer's proc id (diagnostics only)
      (void)r.u64();  // dialer's epoch; each kPeerPost carries its own
    } catch (const QmpiError&) {
      ::close(fd);
      continue;
    }
    const timeval no_timeout{};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &no_timeout,
                 sizeof(no_timeout));

    const qmpi::LockGuard lock(mu_);
    if (stopping_) {
      ::close(fd);
      return;
    }
    peer_fds_.push_back(fd);
    readers_.emplace_back([this, fd] { peer_reader(fd); });
  }
}

void PeerMesh::peer_reader(int fd) {
  try {
    while (true) {
      Frame frame = read_frame(fd);
      if (frame.type != FrameType::kPeerPost) {
        throw QmpiError("peer mesh: unexpected frame type " +
                        std::to_string(static_cast<int>(frame.type)));
      }
      WireReader r(frame.body);
      const std::uint64_t epoch = r.u64();
      auto [dest, msg] = decode_routed_after_epoch(r);
      // Receiver-side stale-epoch defense: frames stamped by a run that
      // is no longer this process's live run (aborted, finished, or
      // raced by an abort broadcast) are dropped, mirroring the kDeliver
      // check in HubClient::receiver_loop.
      if (!hub_->run_epoch_live(epoch)) continue;
      deliver_(dest, std::move(msg));
    }
  } catch (const std::exception&) {
    // Dialer closed (its process exited or its run died) or we are being
    // torn down. Peer death mid-run is detected and propagated by the
    // hub's connection tracking; nothing to do here.
  }
}

void PeerMesh::resolve_locked(Link& link, int dest_proc,
                              std::uint64_t epoch) {
  // Pessimistic default: anything short of a completed dial+hello makes
  // this pair hub-routed for the whole run. The route must never change
  // again — flipping to direct later could overtake messages already
  // queued at the hub.
  link.state = Link::State::kHubRouted;
  PeerAddr addr;
  const auto peers = hub_->peer_addresses();
  if (dest_proc >= 0 && dest_proc < static_cast<int>(peers.size())) {
    addr = peers[static_cast<std::size_t>(dest_proc)];
  }
  if (addr.port == 0 || addr.host.empty()) return;  // peer opted out
  // Bounded retry with backoff before the permanent hub fallback: a peer
  // that advertised a listener may still be momentarily unreachable (its
  // accept backlog full on a busy host, or a cross-host route still
  // converging). Three dials spaced 100/300 ms keep worst-case first-send
  // latency bounded while surviving transient refusals.
  int fd = -1;
  for (int attempt = 0; attempt < 3 && fd < 0; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(attempt == 1 ? 100 : 300));
    }
    fd = net::dial_tcp(addr.host, addr.port, /*timeout_ms=*/2000);
  }
  if (fd < 0) return;  // unreachable peer: permanent hub fallback
  WireWriter hello;
  hello.u32(kHelloMagic);
  hello.u16(kWireVersion);
  hello.u16(static_cast<std::uint16_t>(hub_->proc_id()));
  hello.u64(epoch);
  try {
    write_frame(fd, FrameType::kPeerHello, hello.data());
  } catch (const QmpiError&) {
    ::close(fd);
    return;
  }
  link.fd = fd;
  link.state = Link::State::kDirect;
}

bool PeerMesh::try_send(int dest_proc, int dest_world_rank,
                        const Message& msg) {
  // Stamp before locking the link: throws ShutdownError when the run is
  // already dead (the sender-side stale-epoch defense).
  const std::uint64_t epoch = hub_->run_epoch();
  Link& link = *links_[static_cast<std::size_t>(dest_proc)];
  const qmpi::LockGuard lock(link.mu);
  if (link.state == Link::State::kUnresolved) {
    resolve_locked(link, dest_proc, epoch);
  }
  if (link.state == Link::State::kHubRouted) return false;
  if (link.state == Link::State::kBroken) {
    throw PeerLinkError(hub_->proc_id(), dest_proc,
                        "an earlier send on this link already failed");
  }
  try {
    write_frame(link.fd, FrameType::kPeerPost,
                encode_routed(epoch, dest_world_rank, msg));
  } catch (const QmpiError& e) {
    link.state = Link::State::kBroken;
    throw PeerLinkError(hub_->proc_id(), dest_proc, e.what());
  }
  return true;
}

// ------------------------------------------------------------ transport ---

/// Data-plane channel toward one world rank: co-hosted destinations are a
/// mailbox push, cross-process ones go through the mesh (direct link with
/// permanent hub fallback) or straight to the hub when p2p is off.
class SocketTransport::RankChannel final : public Channel {
 public:
  RankChannel(SocketTransport& transport, int dest)
      : transport_(transport),
        dest_(dest),
        owner_(rank_owner(transport.num_ranks_, transport.hub_->nprocs(),
                          dest)) {}

  void send(Message msg) override {
    transport_.send_to_rank(dest_, owner_, std::move(msg));
  }

  bool direct() const override {
    return transport_.is_local(dest_) || transport_.mesh_ != nullptr;
  }

 private:
  SocketTransport& transport_;
  int dest_;
  int owner_;  ///< process hosting dest_
};

SocketTransport::SocketTransport(HubClient& hub, int num_ranks, bool p2p,
                                 const std::string& p2p_host)
    : hub_(&hub), num_ranks_(num_ranks) {
  local_ = rank_block(num_ranks, hub.nprocs(), hub.proc_id());
  boxes_.reserve(static_cast<std::size_t>(local_.count));
  for (int i = 0; i < local_.count; ++i) {
    boxes_.push_back(std::make_unique<Mailbox>());
  }
  hub_->set_sinks(
      [this](int dest, Message msg) {
        deliver_local(dest, std::move(msg));
      },
      [this](const std::string& reason) {
        run_sim_fail(reason);
        shutdown_local();
      });
  if (p2p && hub.nprocs() > 1) {
    // The mesh delivers through the same local sink as hub deliveries
    // (epoch checking already done by the mesh reader).
    mesh_ = std::make_unique<PeerMesh>(
        hub,
        [this](int dest, Message msg) {
          deliver_local(dest, std::move(msg));
        },
        p2p_host);
    hub_->set_peer_endpoint(p2p_host, mesh_->port());
  } else {
    // Advertise "no listener" so peers hub-route toward this process;
    // this also clears any endpoint a previous run's transport set.
    hub_->set_peer_endpoint("", 0);
  }
  channels_.reserve(static_cast<std::size_t>(num_ranks));
  for (int r = 0; r < num_ranks; ++r) {
    channels_.push_back(std::make_unique<RankChannel>(*this, r));
  }
}

SocketTransport::~SocketTransport() {
  // Join the mesh's reader threads before the mailboxes they deliver
  // into (and the sinks) go away.
  mesh_.reset();
  hub_->set_sinks(nullptr, nullptr);
}

Channel& SocketTransport::channel(int dest_world_rank) {
  return *channels_[static_cast<std::size_t>(dest_world_rank)];
}

void SocketTransport::send_to_rank(int dest_world_rank, int owner_proc,
                                   Message msg) {
  if (is_local(dest_world_rank)) {
    boxes_[static_cast<std::size_t>(dest_world_rank - local_.first)]->post(
        std::move(msg));
    return;
  }
  // Cross-process classical sends must not outrun the quantum ops that
  // precede them in program order. The distributed backend registers a
  // fence here that sequences its pending ops through the root before
  // the message leaves; same-process deliveries above need no fence
  // because they share the origin's FIFO control stream.
  run_sim_fence();
  if (mesh_ != nullptr) {
    // Restore the ops-before-message order hub routing gives for free:
    // any buffered quantum ops must be known executed before a message
    // that bypasses the hub can announce their effects to the receiver.
    hub_->sim_fence();
    try {
      if (mesh_->try_send(owner_proc, dest_world_rank, msg)) return;
    } catch (const PeerLinkError& e) {
      // A broken direct link fails the whole job (peers blocked on this
      // process must wake), then surfaces the named edge to the caller.
      fail(e.what());
      throw;
    }
  }
  hub_->post_remote(dest_world_rank, msg);
}

void SocketTransport::break_peer_listener_for_test() {
  if (mesh_) mesh_->break_listener_for_test();
}

void SocketTransport::break_peer_links_for_test() {
  if (mesh_) mesh_->break_links_for_test();
}

Mailbox& SocketTransport::mailbox(int world_rank) {
  if (!is_local(world_rank)) {
    throw QmpiError("rank " + std::to_string(world_rank) +
                    " is not hosted by this process (local block is [" +
                    std::to_string(local_.first) + ", " +
                    std::to_string(local_.first + local_.count) + "))");
  }
  return *boxes_[static_cast<std::size_t>(world_rank - local_.first)];
}

std::uint64_t SocketTransport::allocate_context() {
  return hub_->allocate_context();
}

void SocketTransport::shutdown_local() {
  for (auto& box : boxes_) box->shutdown();
}

void SocketTransport::fail(const std::string& reason) {
  // Report the root cause to the hub BEFORE any local teardown: waking
  // sibling rank threads first lets their secondary ShutdownErrors race
  // into abort_run() ahead of this reason, and first-abort-wins would
  // then pin the job-level message to the symptom instead of the cause.
  hub_->abort_run(reason);
  run_sim_fail(reason);
  shutdown_local();
}

void SocketTransport::deliver_local(int dest, Message msg) {
  if (msg.channel >= ChannelKind::kSimCtl) {
    // Sim-plane traffic never reaches a mailbox: it is addressed to the
    // process, not a rank, and the distributed backend consumes it on
    // whatever thread delivered it.
    std::function<void(Message)> sink;
    {
      const qmpi::LockGuard lock(sim_hooks_mu_);
      sink = sim_sink_;
    }
    if (sink) sink(std::move(msg));
    return;
  }
  if (is_local(dest)) {
    boxes_[static_cast<std::size_t>(dest - local_.first)]->post(
        std::move(msg));
  }
  // Non-local: a routing bug upstream; dropping is safe (the sender
  // will block and the job times out visibly rather than corrupting
  // another rank's stream).
}

void SocketTransport::post_sim(int dest_world_rank, Message msg) {
  if (is_local(dest_world_rank)) {
    deliver_local(dest_world_rank, std::move(msg));
    return;
  }
  // Never run_sim_fence() here: sim-plane posts ARE the fenced traffic,
  // and fencing would recurse.
  const int owner = rank_owner(num_ranks_, hub_->nprocs(), dest_world_rank);
  if (mesh_ != nullptr) {
    try {
      if (mesh_->try_send(owner, dest_world_rank, msg)) return;
    } catch (const PeerLinkError& e) {
      fail(e.what());
      throw;
    }
  }
  hub_->post_remote(dest_world_rank, msg);
}

void SocketTransport::set_sim_sink(std::function<void(Message)> sink) {
  const qmpi::LockGuard lock(sim_hooks_mu_);
  sim_sink_ = std::move(sink);
}

void SocketTransport::set_sim_fence(std::function<void()> fence) {
  const qmpi::LockGuard lock(sim_hooks_mu_);
  sim_fence_ = std::move(fence);
}

void SocketTransport::set_sim_fail(std::function<void(const std::string&)> on_fail) {
  const qmpi::LockGuard lock(sim_hooks_mu_);
  sim_fail_ = std::move(on_fail);
}

void SocketTransport::run_sim_fence() {
  std::function<void()> fence;
  {
    const qmpi::LockGuard lock(sim_hooks_mu_);
    fence = sim_fence_;
  }
  if (fence) fence();
}

void SocketTransport::run_sim_fail(const std::string& reason) {
  std::function<void(const std::string&)> on_fail;
  {
    const qmpi::LockGuard lock(sim_hooks_mu_);
    on_fail = sim_fail_;
  }
  if (on_fail) on_fail(reason);
}

}  // namespace qmpi::classical

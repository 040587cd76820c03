#pragma once

/// \file transport.hpp
/// The pluggable classical-transport seam the Comm layer is written
/// against, split into a control-plane surface (world shape, context ids,
/// run lifecycle) and a data-plane surface (per-destination Channels).
/// See docs/ARCHITECTURE.md §2 and the "Control plane vs. data plane"
/// section.


#include <cstdint>
#include <string>

#include "classical/mailbox.hpp"
#include "classical/message.hpp"

namespace qmpi::classical {

/// The contiguous block of world ranks hosted by one process.
struct RankBlock {
  int first = 0;
  int count = 0;
};

/// Data-plane endpoint: ordered eager delivery toward one fixed
/// destination world rank.
///
/// A Channel is the unit the collective algorithms are built from: a
/// one-way, reliable, non-overtaking lane from the calling process to one
/// rank. Implementations:
///
///   - Universe: a direct push into the destination rank's mailbox.
///   - SocketTransport: a push into a co-hosted rank's mailbox, a framed
///     write on a direct peer TCP connection (p2p mode), or a framed
///     write to the hub which forwards it (hub fallback / QMPI_P2P=off).
///
/// Contract (what Comm, Request and the collective algorithms rely on):
///   - send() is eager and non-blocking: it never waits for the receiver.
///     Distributed transports may bound one message's size (the TCP
///     transport rejects frames above wire.hpp's kMaxFrameBytes with a
///     QmpiError); split payloads that could exceed it.
///   - All sends on one Channel arrive in send() order on each
///     (tag, channel, context) stream — MPI's non-overtaking rule. A
///     transport must never split one (source, destination) pair's
///     traffic across paths with different ordering (the socket transport
///     therefore fixes each pair's route — direct or hub — at first use
///     and never changes it mid-run).
///   - A send on a dead job raises ShutdownError; a direct peer link that
///     breaks mid-run raises PeerLinkError naming the failing edge.
class Channel {
 public:
  virtual ~Channel() = default;

  /// Delivers `msg` to this channel's destination rank (eager,
  /// non-blocking). The caller fills in source/tag/channel/context.
  virtual void send(Message msg) = 0;

  /// True when this channel reaches its destination without transiting a
  /// central relay (shared-memory mailbox or direct peer socket). Purely
  /// informational — semantics are identical either way.
  virtual bool direct() const = 0;
};

/// Control plane + channel factory connecting the ranks of one QMPI job.
///
/// A Transport owns (a) the control plane — the world's shape, globally
/// fresh communicator context ids, and fail-fast shutdown — and (b) the
/// data plane: one Channel per destination rank, plus the inbox of every
/// rank that is *hosted locally* (in this process). The Comm layer is
/// written entirely against this interface, so point-to-point matching,
/// collectives, and communicator algebra work identically over any
/// implementation:
///
///   - Universe (universe.hpp): the in-memory implementation — every rank
///     is a thread of this process and every channel is a mailbox push.
///   - SocketTransport (socket_transport.hpp): ranks live in separate OS
///     processes; channels write framed messages either on direct peer
///     TCP connections brokered by the hub at the run-begin barrier, or
///     to the hub itself (fallback), while barriers, run epochs, config
///     checks, aborts, and quantum ops always stay hub-routed.
///
/// Selection is plumbed through the job harness via QMPI_TRANSPORT
/// (core/context.cpp); user code never names a concrete transport.
///
/// Contract:
///   - channel(d) is valid for every world rank d and may be called
///     concurrently from different rank threads; the returned reference
///     stays valid for the transport's lifetime.
///   - mailbox(r) is valid only for locally hosted ranks; Comm only ever
///     asks for the inbox of the rank it belongs to.
///   - allocate_context() returns globally fresh ids: no two calls
///     anywhere in the world may observe the same id (communicator
///     isolation).
///   - shutdown() wakes every locally blocked rank with ShutdownError
///     and, for distributed transports, propagates the failure to all
///     peer processes so the whole job fails fast instead of deadlocking.
class Transport {
 public:
  virtual ~Transport() = default;

  // ------------------------------------------------------ control plane --

  /// Number of ranks in the world this transport connects.
  virtual int world_size() const = 0;

  /// Allocates a communicator context id that is fresh across the whole
  /// world (thread-safe; distributed transports delegate to the hub).
  virtual std::uint64_t allocate_context() = 0;

  /// Fails the job fast: wakes local blocked ranks with ShutdownError and
  /// propagates the abort to remote peers where applicable.
  virtual void shutdown() = 0;

  /// shutdown() on behalf of a local rank that failed with `reason`; a
  /// distributed transport hands the reason to its peers.
  virtual void fail(const std::string& /*reason*/) { shutdown(); }

  /// Human-readable transport name ("inproc", "tcp") for diagnostics.
  virtual const char* name() const = 0;

  /// The world ranks hosted in this process (one thread each under
  /// Runtime::run): every rank for Universe, this process's block for
  /// SocketTransport.
  virtual RankBlock local_ranks() const = 0;

  // --------------------------------------------------------- data plane --

  /// The outgoing channel toward `dest_world_rank`. Implementations keep
  /// one channel per destination alive for the transport's lifetime.
  virtual Channel& channel(int dest_world_rank) = 0;

  /// The local inbox of `world_rank`. Only valid for ranks hosted in this
  /// process; implementations throw on a non-local rank.
  virtual Mailbox& mailbox(int world_rank) = 0;

  /// Capability query: true when cross-process rank pairs generally get
  /// direct peer links (the collective strategy layer selects ring /
  /// recursive-doubling schedules only when this holds; hub-routed
  /// transports keep the centralized schedules so QMPI_P2P=off is
  /// byte-identical to the pre-p2p behavior).
  virtual bool peer_to_peer() const = 0;
};

}  // namespace qmpi::classical

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "classical/mailbox.hpp"
#include "classical/transport.hpp"

namespace qmpi::classical {

/// In-process Transport: the shared state of a threads-as-ranks "MPI job".
///
/// The Universe owns one mailbox per world rank and hands out fresh context
/// ids for communicator duplication/splitting. It is created once by the
/// Runtime and shared (by reference) with every rank thread; all members are
/// thread-safe. Because every rank is local, every data-plane channel is a
/// direct mailbox push — this is the zero-copy fast path the socket
/// transport falls back to for co-hosted ranks.
class Universe final : public Transport {
 public:
  explicit Universe(int world_size)
      : mailboxes_(static_cast<std::size_t>(world_size)) {
    for (auto& box : mailboxes_) box = std::make_unique<Mailbox>();
    channels_.reserve(mailboxes_.size());
    for (auto& box : mailboxes_) {
      channels_.push_back(std::make_unique<MailboxChannel>(*box));
    }
  }

  int world_size() const override {
    return static_cast<int>(mailboxes_.size());
  }

  /// Every rank is hosted here, so any world rank has a local inbox.
  Mailbox& mailbox(int world_rank) override {
    return *mailboxes_[static_cast<std::size_t>(world_rank)];
  }

  /// The data-plane lane toward `dest_world_rank`: a mailbox push.
  Channel& channel(int dest_world_rank) override {
    return *channels_[static_cast<std::size_t>(dest_world_rank)];
  }

  /// Every pair of ranks shares an address space: all channels are direct.
  bool peer_to_peer() const override { return true; }

  /// Allocates a fresh communicator context id. Ranks must call this
  /// collectively in the same order so they agree on the id; the Comm layer
  /// guarantees that by electing rank 0 to allocate and broadcasting.
  std::uint64_t allocate_context() override {
    return next_context_.fetch_add(1);
  }

  /// Wakes every rank blocked in a receive with ShutdownError. Called when a
  /// rank thread dies with an exception so the job fails fast instead of
  /// deadlocking.
  void shutdown() override {
    for (auto& box : mailboxes_) box->shutdown();
  }

  const char* name() const override { return "inproc"; }

  RankBlock local_ranks() const override { return {0, world_size()}; }

 private:
  /// In-process channel: send() is a push into the destination's mailbox.
  class MailboxChannel final : public Channel {
   public:
    explicit MailboxChannel(Mailbox& box) : box_(box) {}
    void send(Message msg) override { box_.post(std::move(msg)); }
    bool direct() const override { return true; }

   private:
    Mailbox& box_;
  };

  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<std::unique_ptr<MailboxChannel>> channels_;
  std::atomic<std::uint64_t> next_context_{1};  // 0 = world context
};

}  // namespace qmpi::classical

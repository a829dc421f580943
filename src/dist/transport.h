// Transport seam between the manager and its cluster agents: K duplex
// channels carrying encoded protocol bytes (dist/codec.h). Nothing but
// bytes crosses a channel — the seam is exactly what a socket layer would
// replace for multi-process / multi-node deployment.
//
// Implementations:
//   - ChannelTransport: in-process Mailbox channels, reliable FIFO.
//   - FaultyTransport: a decorator over any Transport that injects
//     seeded drops, delays (which double as reordering), duplicates, and
//     permanent agent crashes. All fault decisions are drawn from
//     per-edge RNG streams advanced only by that edge's (single) sending
//     thread, so a given FaultPlan seed produces the same fault schedule
//     on every run — the fault-sweep tests assert the merged profit is a
//     pure function of (cloud, options, plan).
//
// Threading contract: send_to_agent(k, ...) is called only by the manager
// thread; send_to_manager(k, ...) only by agent k's thread;
// agent_receive(k) only by agent k's thread. manager_receive_for is
// manager-thread-only. Counters are internally synchronized.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/sync.h"
#include "dist/mailbox.h"

namespace cloudalloc::dist {

/// A message delivered to the manager, tagged with the sending agent.
struct ManagerEnvelope {
  int from = -1;
  std::string bytes;
};

/// Aggregate transport accounting. `messages`/`bytes` count successful
/// send calls at the API the protocol code talks to (for FaultyTransport
/// that is *attempted* traffic: a dropped message was still sent by its
/// sender); the fault counters record what the decorator did to it.
struct TransportStats {
  std::size_t messages = 0;
  std::size_t bytes = 0;
  std::size_t dropped = 0;
  std::size_t duplicated = 0;
  std::size_t delayed = 0;
  int crashed_agents = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  virtual int num_agents() const = 0;

  /// Manager -> agent k. False means agent k's channel is closed (the
  /// agent crashed or shut down) — the caller must treat k as dead.
  [[nodiscard]] virtual bool send_to_agent(int k, std::string bytes) = 0;

  /// Agent k -> manager. False means the manager's channel is closed
  /// (the run is over) — the agent should wind down.
  [[nodiscard]] virtual bool send_to_manager(int k, std::string bytes) = 0;

  /// Agent k's blocking receive; nullopt = channel closed and drained
  /// (the actor loop's exit condition).
  virtual std::optional<std::string> agent_receive(int k) = 0;

  /// Manager receive with a per-call timeout; `timeout_ms <= 0` blocks
  /// indefinitely. nullopt = timed out (or transport closed).
  virtual std::optional<ManagerEnvelope> manager_receive_for(
      double timeout_ms) = 0;

  /// Permanently closes agent k's inbound channel (crash injection and
  /// targeted shutdown); sends to k then fail, agent_receive(k) drains.
  virtual void close_agent(int k) = 0;

  /// Closes every channel; all actors unblock and exit.
  virtual void close_all() = 0;

  virtual TransportStats stats() const = 0;
};

/// Reliable in-process transport: one Mailbox per agent plus one shared
/// manager inbox. messages_sent() of the underlying mailboxes is the
/// single source of truth for TransportStats::messages.
class ChannelTransport : public Transport {
 public:
  explicit ChannelTransport(int num_agents);

  int num_agents() const override {
    return static_cast<int>(agent_inbox_.size());
  }
  [[nodiscard]] bool send_to_agent(int k, std::string bytes) override;
  [[nodiscard]] bool send_to_manager(int k, std::string bytes) override;
  std::optional<std::string> agent_receive(int k) override;
  std::optional<ManagerEnvelope> manager_receive_for(
      double timeout_ms) override;
  void close_agent(int k) override;
  void close_all() override;
  TransportStats stats() const override;

 private:
  void count_bytes(std::size_t n);
  void uncount_bytes(std::size_t n);

  std::vector<std::unique_ptr<Mailbox<std::string>>> agent_inbox_;
  Mailbox<ManagerEnvelope> manager_inbox_;
  // Byte counters only; message counts come from the mailboxes.
  mutable sync::Mutex bytes_mutex_;
  std::size_t bytes_ GUARDED_BY(bytes_mutex_) = 0;
};

/// Seeded fault-injection plan. All-zero probabilities = transparent
/// pass-through. Probabilities are per message; crash selection is per
/// agent, decided up front from `seed`.
struct FaultPlan {
  std::uint64_t seed = 0;
  /// P(message silently vanishes). The sender still sees success.
  double drop_prob = 0.0;
  /// P(message is delivered twice back to back).
  double duplicate_prob = 0.0;
  /// P(message is held back and released only after `delay_span` later
  /// sends traverse the same edge) — this is also the reordering knob,
  /// since the held message is overtaken by everything sent meanwhile. A
  /// held message with no follow-up traffic on its edge is flushed when
  /// the transport closes, i.e. it behaves like a drop for that round.
  double delay_prob = 0.0;
  int delay_span = 2;
  /// P(a given agent permanently crashes); a crashing agent's channel is
  /// closed after `crash_after_deliveries` messages have reached it.
  double crash_prob = 0.0;
  int crash_after_deliveries = 2;

  bool any() const {
    return drop_prob > 0.0 || duplicate_prob > 0.0 || delay_prob > 0.0 ||
           crash_prob > 0.0;
  }
};

/// Decorator injecting FaultPlan faults into an inner transport. See the
/// file comment for the determinism argument.
class FaultyTransport : public Transport {
 public:
  FaultyTransport(std::unique_ptr<Transport> inner, FaultPlan plan);

  int num_agents() const override { return inner_->num_agents(); }
  [[nodiscard]] bool send_to_agent(int k, std::string bytes) override;
  [[nodiscard]] bool send_to_manager(int k, std::string bytes) override;
  std::optional<std::string> agent_receive(int k) override;
  std::optional<ManagerEnvelope> manager_receive_for(
      double timeout_ms) override;
  void close_agent(int k) override;
  void close_all() override;
  TransportStats stats() const override;

 private:
  // One fault lane per directed edge; owned by that edge's sending
  // thread (manager thread for ->agent lanes, agent k for ->manager).
  struct Lane {
    Rng rng{0};
    std::vector<std::pair<int, std::string>> held;  ///< (sends left, bytes)
  };

  enum class Fate { kDeliver, kDrop, kDuplicate, kDelay };
  Fate decide(Lane& lane);
  /// Ships one message on an edge: decides its fate, releases any held
  /// messages that come due, performs the inner sends.
  bool ship(Lane& lane, std::string bytes,
            const std::function<bool(std::string)>& deliver);
  void note_delivery_to_agent(int k);
  void count_send(std::size_t n);

  std::unique_ptr<Transport> inner_;
  FaultPlan plan_;
  std::vector<Lane> to_agent_;    ///< manager -> agent k
  std::vector<Lane> to_manager_;  ///< agent k -> manager
  std::vector<char> crashes_;     ///< per-agent: crash scheduled?
  std::vector<int> delivered_;    ///< deliveries seen by agent k so far
  std::vector<char> crashed_;     ///< crash already executed
  mutable sync::Mutex stats_mutex_;
  /// Attempted traffic + fault counters.
  TransportStats local_ GUARDED_BY(stats_mutex_);
};

}  // namespace cloudalloc::dist

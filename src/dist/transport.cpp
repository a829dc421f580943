#include "dist/transport.h"

#include <chrono>

#include "common/check.h"

namespace cloudalloc::dist {

// --- ChannelTransport ----------------------------------------------------

ChannelTransport::ChannelTransport(int num_agents) {
  CHECK(num_agents >= 0);
  agent_inbox_.reserve(static_cast<std::size_t>(num_agents));
  for (int k = 0; k < num_agents; ++k)
    agent_inbox_.push_back(std::make_unique<Mailbox<std::string>>());
}

bool ChannelTransport::send_to_agent(int k, std::string bytes) {
  CHECK(k >= 0 && k < num_agents());
  const std::size_t n = bytes.size();
  count_bytes(n);
  if (agent_inbox_[static_cast<std::size_t>(k)]->send(std::move(bytes)))
    return true;
  uncount_bytes(n);
  return false;
}

bool ChannelTransport::send_to_manager(int k, std::string bytes) {
  CHECK(k >= 0 && k < num_agents());
  const std::size_t n = bytes.size();
  count_bytes(n);
  if (manager_inbox_.send(ManagerEnvelope{k, std::move(bytes)})) return true;
  uncount_bytes(n);
  return false;
}

// A message's bytes are counted before it is delivered: a receiver that
// has the message, and reads stats() after it, sees them. Counted after
// the delivery, an agent's last response could be received, and the
// run's stats read, before its sender thread had added its bytes.
void ChannelTransport::count_bytes(std::size_t n) {
  sync::MutexLock lock(bytes_mutex_);
  bytes_ += n;
}

void ChannelTransport::uncount_bytes(std::size_t n) {
  sync::MutexLock lock(bytes_mutex_);
  bytes_ -= n;
}

std::optional<std::string> ChannelTransport::agent_receive(int k) {
  CHECK(k >= 0 && k < num_agents());
  return agent_inbox_[static_cast<std::size_t>(k)]->receive();
}

std::optional<ManagerEnvelope> ChannelTransport::manager_receive_for(
    double timeout_ms) {
  if (timeout_ms <= 0.0) return manager_inbox_.receive();
  return manager_inbox_.receive_for(
      std::chrono::duration<double, std::milli>(timeout_ms));
}

void ChannelTransport::close_agent(int k) {
  CHECK(k >= 0 && k < num_agents());
  agent_inbox_[static_cast<std::size_t>(k)]->close();
}

void ChannelTransport::close_all() {
  for (auto& box : agent_inbox_) box->close();
  manager_inbox_.close();
}

TransportStats ChannelTransport::stats() const {
  TransportStats s;
  // messages_sent() of the channels is the single source of truth.
  for (const auto& box : agent_inbox_) s.messages += box->messages_sent();
  s.messages += manager_inbox_.messages_sent();
  sync::MutexLock lock(bytes_mutex_);
  s.bytes = bytes_;
  return s;
}

// --- FaultyTransport -----------------------------------------------------

namespace {
/// Distinct, stable stream ids per directed edge.
std::uint64_t lane_seed(std::uint64_t seed, int k, bool to_agent) {
  return seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(k) * 2 +
         (to_agent ? 0 : 1) + 1;
}
}  // namespace

FaultyTransport::FaultyTransport(std::unique_ptr<Transport> inner,
                                 FaultPlan plan)
    : inner_(std::move(inner)), plan_(plan) {
  const int K = inner_->num_agents();
  to_agent_.reserve(static_cast<std::size_t>(K));
  to_manager_.reserve(static_cast<std::size_t>(K));
  Rng crash_rng(plan_.seed * 0x2545F4914F6CDD1Dull + 0xDA3E39CB94B95BDBull);
  for (int k = 0; k < K; ++k) {
    to_agent_.push_back(Lane{Rng(lane_seed(plan_.seed, k, true)), {}});
    to_manager_.push_back(Lane{Rng(lane_seed(plan_.seed, k, false)), {}});
    crashes_.push_back(plan_.crash_prob > 0.0 &&
                       crash_rng.uniform() < plan_.crash_prob);
  }
  delivered_.assign(static_cast<std::size_t>(K), 0);
  crashed_.assign(static_cast<std::size_t>(K), 0);
}

FaultyTransport::Fate FaultyTransport::decide(Lane& lane) {
  // One draw per knob keeps the stream layout stable as knobs toggle.
  const double d_drop = lane.rng.uniform();
  const double d_dup = lane.rng.uniform();
  const double d_delay = lane.rng.uniform();
  if (d_drop < plan_.drop_prob) return Fate::kDrop;
  if (d_dup < plan_.duplicate_prob) return Fate::kDuplicate;
  if (d_delay < plan_.delay_prob) return Fate::kDelay;
  return Fate::kDeliver;
}

bool FaultyTransport::ship(Lane& lane, std::string bytes,
                          const std::function<bool(std::string)>& deliver) {
  const Fate fate = decide(lane);
  bool ok = true;
  switch (fate) {
    case Fate::kDrop: {
      sync::MutexLock lock(stats_mutex_);
      ++local_.dropped;
      break;  // sender still sees success
    }
    case Fate::kDuplicate: {
      {
        sync::MutexLock lock(stats_mutex_);
        ++local_.duplicated;
      }
      ok = deliver(bytes);
      if (ok) ok = deliver(std::move(bytes));
      break;
    }
    case Fate::kDelay: {
      {
        sync::MutexLock lock(stats_mutex_);
        ++local_.delayed;
      }
      lane.held.emplace_back(plan_.delay_span, std::move(bytes));
      break;  // released by later traffic on this lane
    }
    case Fate::kDeliver:
      ok = deliver(std::move(bytes));
      break;
  }
  // Age held messages and release the ones that come due — after the
  // current message, which is what makes a delay a reordering.
  for (std::size_t i = 0; i < lane.held.size();) {
    if (--lane.held[i].first <= 0) {
      // Ignore delivery failure of a stale release: the peer may be gone.
      (void)deliver(std::move(lane.held[i].second));
      lane.held.erase(lane.held.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  return ok;
}

void FaultyTransport::note_delivery_to_agent(int k) {
  const auto idx = static_cast<std::size_t>(k);
  if (!crashes_[idx] || crashed_[idx]) return;
  if (++delivered_[idx] >= plan_.crash_after_deliveries) {
    crashed_[idx] = 1;
    inner_->close_agent(k);
    sync::MutexLock lock(stats_mutex_);
    ++local_.crashed_agents;
  }
}

bool FaultyTransport::send_to_agent(int k, std::string bytes) {
  CHECK(k >= 0 && k < num_agents());
  count_send(bytes.size());
  return ship(to_agent_[static_cast<std::size_t>(k)], std::move(bytes),
              [this, k](std::string b) {
                if (!inner_->send_to_agent(k, std::move(b))) return false;
                note_delivery_to_agent(k);
                return true;
              });
}

bool FaultyTransport::send_to_manager(int k, std::string bytes) {
  CHECK(k >= 0 && k < num_agents());
  count_send(bytes.size());
  return ship(to_manager_[static_cast<std::size_t>(k)], std::move(bytes),
              [this, k](std::string b) {
                return inner_->send_to_manager(k, std::move(b));
              });
}

// Every send attempt counts, delivered or not, and before the delivery,
// for the reason ChannelTransport::count_bytes gives.
void FaultyTransport::count_send(std::size_t n) {
  sync::MutexLock lock(stats_mutex_);
  ++local_.messages;
  local_.bytes += n;
}

std::optional<std::string> FaultyTransport::agent_receive(int k) {
  return inner_->agent_receive(k);
}

std::optional<ManagerEnvelope> FaultyTransport::manager_receive_for(
    double timeout_ms) {
  return inner_->manager_receive_for(timeout_ms);
}

void FaultyTransport::close_agent(int k) { inner_->close_agent(k); }

void FaultyTransport::close_all() { inner_->close_all(); }

TransportStats FaultyTransport::stats() const {
  sync::MutexLock lock(stats_mutex_);
  return local_;
}

}  // namespace cloudalloc::dist

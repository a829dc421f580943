// ViewScratchPool: reusable ResidualView scratch copies for the snapshot
// reassign fan-out, whose chunks speculate (remove a client, price its
// moves, restore) and so each need a private copy of the frozen view.
// Fan-outs that only read — sharded block pricing — probe the frozen view
// itself and lease nothing.
//
// The dominant allocation traffic at 100k clients used to be the per-chunk
// `ResidualView scratch = frozen;` copy: reassign_pass_snapshot prices in
// chunks of 16 clients, which meant ~n/16 full copies of ten
// server-length arrays per pass. The pool replaces that with a small set
// of long-lived slots, each refreshed at most once per frozen snapshot:
//
//   - Every settle point (once per pass) draws a fresh stamp.
//   - acquire() hands out a free slot. If the slot's stamp matches, its
//     contents are already bitwise-equal to `frozen` — chunks mutate the
//     scratch only via remove/restore pairs, and restore is bitwise-exact
//     — so no copy happens at all. On mismatch the slot is refreshed via
//     ResidualView::operator=, which keeps vector capacity, so steady
//     state allocates nothing.
//
// Determinism: plans are pure functions of the frozen snapshot's residual
// values, and every slot holds a bitwise-equal copy of the same snapshot,
// so WHICH slot a chunk gets — and whether it was recycled — cannot
// change a single plan bit at any worker count.
//
// Exception safety: a throw mid-probe can leave a lease's scratch between
// a remove and its restore. The lease detects unwinding and poisons the
// slot (stamp 0), forcing a recopy on next acquire.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <vector>

#include "common/sync.h"
#include "model/residual.h"

namespace cloudalloc::alloc {

class ViewScratchPool {
 public:
  class Lease {
   public:
    Lease(ViewScratchPool* pool, std::size_t index, model::ResidualView* view)
        : pool_(pool),
          index_(index),
          view_(view),
          unwind_depth_(std::uncaught_exceptions()) {}
    ~Lease() {
      if (pool_ == nullptr) return;
      pool_->release(index_, std::uncaught_exceptions() > unwind_depth_);
    }
    Lease(Lease&& other) noexcept
        : pool_(other.pool_),
          index_(other.index_),
          view_(other.view_),
          unwind_depth_(other.unwind_depth_) {
      other.pool_ = nullptr;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease& operator=(Lease&&) = delete;

    model::ResidualView& view() { return *view_; }

   private:
    ViewScratchPool* pool_;
    std::size_t index_;
    model::ResidualView* view_;
    int unwind_depth_;
  };

  /// Hands out a scratch copy of `frozen` for the snapshot epoch `stamp`
  /// (from next_stamp()). Recycles a stamp-matching slot without copying
  /// when one is free; otherwise refreshes (or creates) a slot. The
  /// refresh copy runs outside the pool lock, so concurrent acquires
  /// never serialize on each other's copies.
  Lease acquire(const model::ResidualView& frozen, std::uint64_t stamp) {
    Slot* slot = nullptr;
    std::size_t index = 0;
    bool fresh = false;
    {
      sync::MutexLock lock(mutex_);
      // Prefer a slot already holding this snapshot (zero-copy path).
      for (std::size_t s = 0; s < slots_.size(); ++s) {
        if (!slots_[s]->in_use && slots_[s]->stamp == stamp) {
          slot = slots_[s].get();
          index = s;
          break;
        }
      }
      if (slot == nullptr) {
        for (std::size_t s = 0; s < slots_.size(); ++s) {
          if (!slots_[s]->in_use) {
            slot = slots_[s].get();
            index = s;
            break;
          }
        }
      }
      if (slot == nullptr) {
        slots_.push_back(std::make_unique<Slot>());
        slot = slots_.back().get();
        index = slots_.size() - 1;
      }
      slot->in_use = true;
      fresh = slot->stamp != stamp;
      slot->stamp = stamp;
    }
    if (fresh) {
      if (slot->view.has_value()) {
        *slot->view = frozen;  // capacity-preserving refresh
      } else {
        slot->view.emplace(frozen);
      }
    }
    return Lease(this, index, &*slot->view);
  }

  /// Process-wide pool. Slot count converges to the peak number of
  /// concurrently probing workers; memory is reclaimed at process exit.
  static ViewScratchPool& instance() {
    static ViewScratchPool pool;
    return pool;
  }

  /// Fresh snapshot-epoch stamp. Never returns 0 (the poisoned value).
  static std::uint64_t next_stamp() {
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
  }

 private:
  struct Slot {
    std::optional<model::ResidualView> view;
    std::uint64_t stamp = 0;  ///< 0 = empty or poisoned
    bool in_use = false;
  };

  void release(std::size_t index, bool poison) {
    sync::MutexLock lock(mutex_);
    if (poison) slots_[index]->stamp = 0;
    slots_[index]->in_use = false;
  }

  sync::Mutex mutex_;
  /// Slot headers (stamp/in_use) are mutated only under mutex_; the view
  /// payload of an acquired slot is deliberately refreshed OUTSIDE the
  /// lock (in_use marks exclusive ownership), which is why the guard sits
  /// on the vector, not inside Slot.
  std::vector<std::unique_ptr<Slot>> slots_ GUARDED_BY(mutex_);
};

}  // namespace cloudalloc::alloc

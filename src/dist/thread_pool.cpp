#include "dist/thread_pool.h"

#include <map>
#include <memory>

namespace cloudalloc::dist {

ThreadPool::ThreadPool(int workers) {
  CHECK(workers >= 1);
  threads_.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w)
    threads_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    sync::MutexLock lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  // Workers finish the batch they are in and leave once nothing is listed.
  for (auto& t : threads_) t.join();
  threads_.clear();
}

ThreadPool& ThreadPool::shared(int workers) {
  CHECK(workers >= 1);
  static sync::Mutex mutex;
  static std::map<int, std::unique_ptr<ThreadPool>>& pools =
      // lint: allow(naked-new)
      *new std::map<int, std::unique_ptr<ThreadPool>>();
  // Intentionally leaked registry: shared pools must outlive every static
  // whose destructor might still fan out, so they are reclaimed by the OS
  // at process exit rather than by a destruction-order lottery. Workers
  // sleep when idle; leaking them costs parked threads, not CPU.
  sync::MutexLock lock(mutex);
  std::unique_ptr<ThreadPool>& slot = pools[workers];
  if (slot == nullptr) slot = std::make_unique<ThreadPool>(workers);
  return *slot;
}

void ThreadPool::Batch::claim() {
  for (int i = next.fetch_add(1); i < tasks; i = next.fetch_add(1)) {
    try {
      invoke(fn, i);
    } catch (...) {
      errors[static_cast<std::size_t>(i)] = std::current_exception();
    }
  }
}

void ThreadPool::unlist(Batch& batch) {
  const auto it = std::find(listed_.begin(), listed_.end(), &batch);
  if (it != listed_.end()) listed_.erase(it);
}

void ThreadPool::run(Batch& batch) {
  {
    sync::MutexLock lock(mutex_);
    listed_.push_back(&batch);
  }
  work_cv_.notify_all();
  batch.claim();
  {
    // Every index is claimed. Unlisting stops new workers from joining;
    // the ones inside are running the last indices and leave when done.
    // Waiting for them (not just for the tasks) keeps the stack Batch
    // alive until no thread can touch it.
    sync::MutexLock lock(mutex_);
    unlist(batch);
    while (batch.joined > 0) left_cv_.wait(lock);
  }
  for (const std::exception_ptr& e : batch.errors)
    if (e) std::rethrow_exception(e);
}

void ThreadPool::worker_loop() {
  for (;;) {
    Batch* batch = nullptr;
    {
      sync::MutexLock lock(mutex_);
      while (!stopping_ && listed_.empty()) work_cv_.wait(lock);
      if (listed_.empty()) return;  // stopping, nothing left to join
      batch = listed_.back();
      ++batch->joined;
    }
    batch->claim();
    {
      // The counter ran out, so no later joiner could claim anything.
      sync::MutexLock lock(mutex_);
      unlist(*batch);
      if (--batch->joined == 0) left_cv_.notify_all();
    }
  }
}

}  // namespace cloudalloc::dist

#include "common/prof.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <ostream>
#include <thread>

#include "common/sync.h"

namespace cloudalloc::prof {
namespace internal {

namespace {

/// Per-thread ring capacity. 1<<16 complete events x 24 bytes = 1.5 MiB
/// per thread at the high-water mark — enough to hold every phase zone of
/// a 100k-client solve while bounding long online-serving runs.
constexpr std::size_t kEventCap = std::size_t{1} << 16;

struct Event {
  const char* name;
  std::int64_t t0_ns;
  std::int64_t t1_ns;
};

struct Accum {
  const char* name;
  std::int64_t count;
  std::int64_t total_ns;
};

}  // namespace

struct ThreadLog {
  std::unique_ptr<Event[]> ring;  ///< allocated on first event
  std::size_t head = 0;           ///< next write slot
  std::size_t filled = 0;         ///< min(#events recorded, kEventCap)
  std::uint64_t dropped = 0;      ///< events overwritten after the ring wrapped
  /// Name-keyed accumulators. Names are literal pointers and a process
  /// has a few dozen zones, so a linear scan beats any map.
  std::vector<Accum> accums;
  std::uint64_t tid = 0;

  void clear() {
    head = filled = 0;
    dropped = 0;
    accums.clear();
  }
};

namespace {

std::atomic<bool> g_enabled{false};
std::once_flag g_env_once;

sync::Mutex g_registry_mutex;

/// The per-thread log registry. Annotated REQUIRES: every caller must
/// hold g_registry_mutex, which clang -Wthread-safety enforces even
/// though the vector itself is a function-local static (GUARDED_BY is
/// not grammatical there).
std::vector<std::unique_ptr<ThreadLog>>& registry()
    REQUIRES(g_registry_mutex) {
  // Never destroyed (see the header): pool workers outlive solves and may
  // record until the process ends, and the aggregate must keep seeing a
  // thread's rows after it exits, so no static destructor frees a log.
  // analyze: allow(naked-new) -- process-lifetime registry, never destroyed
  static auto& logs = *new std::vector<std::unique_ptr<ThreadLog>>;
  return logs;
}

ThreadLog* make_thread_log() {
  sync::MutexLock lock(g_registry_mutex);
  auto log = std::make_unique<ThreadLog>();
  log->tid = static_cast<std::uint64_t>(registry().size() + 1);
  registry().push_back(std::move(log));
  return registry().back().get();
}

}  // namespace

ThreadLog* thread_log() {
  thread_local ThreadLog* log = make_thread_log();
  return log;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void record(ThreadLog* log, const char* name, std::int64_t t0,
            std::int64_t t1) {
  if (log->ring == nullptr) log->ring = std::make_unique<Event[]>(kEventCap);
  if (log->filled == kEventCap) ++log->dropped;
  log->ring[log->head] = Event{name, t0, t1};
  log->head = (log->head + 1) % kEventCap;
  if (log->filled < kEventCap) ++log->filled;
  for (Accum& a : log->accums) {
    if (a.name == name) {
      ++a.count;
      a.total_ns += t1 - t0;
      return;
    }
  }
  log->accums.push_back(Accum{name, 1, t1 - t0});
}

}  // namespace internal

bool enabled() {
  std::call_once(internal::g_env_once, [] {
    const char* env = std::getenv("CLOUDALLOC_PROF");
    if (env != nullptr && env[0] != '\0' && env[0] != '0')
      internal::g_enabled.store(true, std::memory_order_relaxed);
  });
  return internal::g_enabled.load(std::memory_order_relaxed);
}

void set_enabled(bool on) {
  (void)enabled();  // settle the env read so it cannot override us later
  internal::g_enabled.store(on, std::memory_order_relaxed);
}

void reset() {
  sync::MutexLock lock(internal::g_registry_mutex);
  for (const auto& log : internal::registry()) log->clear();
}

std::vector<PhaseRow> aggregate() {
  std::vector<PhaseRow> rows;
  {
    sync::MutexLock lock(internal::g_registry_mutex);
    for (const auto& log : internal::registry()) {
      for (const internal::Accum& a : log->accums) {
        PhaseRow* row = nullptr;
        for (PhaseRow& r : rows)
          if (r.name == a.name) row = &r;
        if (row == nullptr) {
          rows.push_back(PhaseRow{a.name, 0, 0.0});
          row = &rows.back();
        }
        row->count += a.count;
        row->total_ms += static_cast<double>(a.total_ns) * 1e-6;
      }
    }
  }
  std::sort(rows.begin(), rows.end(), [](const PhaseRow& a, const PhaseRow& b) {
    if (a.total_ms != b.total_ms) return a.total_ms > b.total_ms;
    return std::strcmp(a.name, b.name) < 0;
  });
  return rows;
}

void print_table(std::ostream& os) {
  const std::vector<PhaseRow> rows = aggregate();
  double total = 0.0;
  std::size_t width = 5;
  for (const PhaseRow& r : rows) {
    total += r.total_ms;
    width = std::max(width, std::char_traits<char>::length(r.name));
  }
  char line[256];
  std::snprintf(line, sizeof(line), "%-*s %10s %12s %6s\n",
                static_cast<int>(width), "zone", "count", "ms", "%");
  os << line;
  for (const PhaseRow& r : rows) {
    std::snprintf(line, sizeof(line), "%-*s %10lld %12.2f %6.1f\n",
                  static_cast<int>(width), r.name,
                  static_cast<long long>(r.count), r.total_ms,
                  total > 0.0 ? 100.0 * r.total_ms / total : 0.0);
    os << line;
  }
}

bool dump_chrome_trace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[", f);
  bool first = true;
  {
    sync::MutexLock lock(internal::g_registry_mutex);
    for (const auto& log : internal::registry()) {
      const std::size_t n = log->filled;
      const std::size_t start =
          (log->head + internal::kEventCap - n) % internal::kEventCap;
      for (std::size_t idx = 0; idx < n; ++idx) {
        const internal::Event& e =
            log->ring[(start + idx) % internal::kEventCap];
        std::fprintf(
            f,
            "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
            "\"ts\":%.3f,\"dur\":%.3f}",
            first ? "" : ",", e.name,
            static_cast<unsigned long long>(log->tid),
            static_cast<double>(e.t0_ns) * 1e-3,
            static_cast<double>(e.t1_ns - e.t0_ns) * 1e-3);
        first = false;
      }
    }
  }
  std::fputs("\n]}\n", f);
  std::fclose(f);
  return true;
}

}  // namespace cloudalloc::prof

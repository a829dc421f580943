// Built-in profiler: scoped zones, per-thread event buffers, and two
// consumers — a per-phase aggregate table (where does epoch time go?) and
// a chrome://tracing JSON dump (what does the schedule look like?).
//
// Design constraints, in order:
//   1. Near-zero cost when disabled: a zone is one relaxed atomic load
//      and a branch; no clock read, no TLS write.
//   2. No locks on the record path: each thread appends to its own
//      event ring; the only lock is the registry mutex, taken once per
//      thread lifetime and by the (cold) readers.
//   3. Bounded memory: per-thread storage is a ring — once a thread has
//      kEventCap events, new events overwrite the oldest. Aggregation is
//      incremental (per-name accumulators updated at zone exit), so the
//      per-phase table is exact even after the ring wraps; only the
//      trace dump is windowed to the most recent events.
//
// Zone names must be string literals (or otherwise outlive the process):
// the profiler stores and compares the pointers, never the characters.
//
// Enabling: prof::set_enabled(true) from code, or CLOUDALLOC_PROF=1 in
// the environment (read once, at the first enabled() query). The trace
// dump goes wherever the caller points it; benches honor
// CLOUDALLOC_PROF_TRACE=<path> (see README "Profiling").
//
// Threads register lazily on their first zone and are never unregistered:
// pool workers outlive solves, and exit-time aggregation must still see
// their rows. The logs, and the registry that holds them, are never
// freed: they stay reachable until the process ends, so a leak checker at
// exit reports nothing.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace cloudalloc::prof {

/// Global on/off switch. Reads CLOUDALLOC_PROF from the environment on
/// the first query; set_enabled() overrides it either way.
bool enabled();
void set_enabled(bool on);

/// Clears every thread's events and accumulators (not the registry).
/// Call between bench configurations so tables cover one run each.
void reset();

namespace internal {

struct ThreadLog;

/// Hot-path hooks (see Zone): return the per-thread log, stamp an event.
ThreadLog* thread_log();
std::int64_t now_ns();
void record(ThreadLog* log, const char* name, std::int64_t t0,
            std::int64_t t1);

}  // namespace internal

/// RAII scoped zone. Records [construction, destruction) on this thread
/// under `name` when profiling is enabled at construction time.
class Zone {
 public:
  explicit Zone(const char* name)
      : name_(enabled() ? name : nullptr),
        t0_(name_ != nullptr ? internal::now_ns() : 0) {}
  Zone(const Zone&) = delete;
  Zone& operator=(const Zone&) = delete;
  ~Zone() {
    if (name_ != nullptr)
      internal::record(internal::thread_log(), name_, t0_, internal::now_ns());
  }

 private:
  const char* name_;
  std::int64_t t0_;
};

#define CLOUDALLOC_PROF_CONCAT_(a, b) a##b
#define CLOUDALLOC_PROF_CONCAT(a, b) CLOUDALLOC_PROF_CONCAT_(a, b)
/// Scoped zone tied to the enclosing block; `name` must be a literal.
#define PROF_ZONE(name) \
  ::cloudalloc::prof::Zone CLOUDALLOC_PROF_CONCAT(prof_zone_, __COUNTER__)(name)

/// One row of the per-phase aggregate: inclusive time (a nested zone's
/// time also counts toward its enclosing zone) summed across threads.
struct PhaseRow {
  const char* name;
  std::int64_t count = 0;
  double total_ms = 0.0;
};

/// Aggregate across all registered threads, sorted by total_ms descending.
/// Exact regardless of ring wrap (accumulators are incremental).
std::vector<PhaseRow> aggregate();

/// Prints the aggregate as an aligned table (name, count, total ms, %).
void print_table(std::ostream& os);

/// Writes the retained event window as a chrome://tracing "traceEvents"
/// JSON array (load via chrome://tracing or https://ui.perfetto.dev).
/// Returns false when the file cannot be opened.
bool dump_chrome_trace(const std::string& path);

}  // namespace cloudalloc::prof

// Measurement plumbing shared by the workloads: the result record every
// run prints as its last line, span tracing around calls into the
// library's public functions, and the small statistics the metrics need.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace allocbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One metric as printed: its value and unit. Names and units must match
/// BENCHMARK.json; run.py refuses a result that disagrees with it.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports. Operations are the units a user waits for (a
/// solve, a serving epoch, a replication set); an operation fails when any
/// check on its output fails, and the run carries on.
class Result {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = Metric{value, unit};
  }

  /// Records a check on the harness itself (a replay or a repeated
  /// operation reproducing its reference bit for bit); a failure prints
  /// what broke, makes the run's `correct` false and returns false.
  bool check(bool ok, const std::string& what);

  /// Records a check on the program's output (feasibility, agreement with
  /// the queueing model, no missed responses); a failure prints what broke
  /// and returns false so the caller fails its operation. It leaves
  /// `correct` alone: a wrong output is counted in `failed`.
  bool expect(bool ok, const std::string& what);

  /// Counts one attempted operation, failed unless `ok`.
  void op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }

  int attempted() const { return attempted_; }
  int failed() const { return failed_; }
  bool correct() const { return failed_checks_ == 0; }
  const std::map<std::string, Metric>& metrics() const { return metrics_; }

  /// The single-line JSON result that ends every run's output, holding
  /// every metric set.
  std::string json() const;

 private:
  std::map<std::string, Metric> metrics_;
  int attempted_ = 0;
  int failed_ = 0;
  int failed_checks_ = 0;
};

/// In-memory span recorder. A span is a named [start, end) interval with
/// the span that was open when it began as its parent; spans stay in
/// memory until the run ends and are then written out once.
class Tracer {
 public:
  struct Span {
    const char* name;
    int parent;
    std::int64_t t0_ns;
    std::int64_t t1_ns;
  };

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_;
  };

  Scope span(const char* name) { return Scope(*this, name); }

  /// Durations (seconds) of every span called `name`, in start order.
  std::vector<double> durations(const char* name) const;
  double total(const char* name) const;
  /// Sum of the durations of the spans whose parent is the root span
  /// called `root`.
  double children_total(const char* root) const;

  /// chrome://tracing "traceEvents" dump; false when unwritable.
  bool write_chrome(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  int open_ = -1;
};

double median(std::vector<double> v);

/// The tail the benchmark reports for a latency sample: the highest
/// integer percentile (nearest rank) with at least ten samples above it.
/// With fewer than 20 samples no percentile of at least 50 qualifies and
/// the maximum is reported as percentile 100.
struct Tail {
  double value = 0.0;
  int percentile = 100;
  int samples = 0;
};
Tail tail_of(std::vector<double> v);

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

}  // namespace allocbench

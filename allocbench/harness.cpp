#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string_view>

namespace allocbench {
namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

bool Result::check(bool ok, const std::string& what) {
  if (!ok) {
    ++failed_checks_;
    std::cout << "check failed: " << what << "\n";
  }
  return ok;
}

bool Result::expect(bool ok, const std::string& what) {
  if (!ok) std::cout << "operation failed: " << what << "\n";
  return ok;
}

std::string Result::json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

Tracer::Scope::Scope(Tracer& tracer, const char* name)
    : tracer_(tracer), index_(static_cast<int>(tracer.spans_.size())) {
  tracer_.spans_.push_back(Span{name, tracer_.open_, now_ns(), 0});
  tracer_.open_ = index_;
}

Tracer::Scope::~Scope() {
  Span& span = tracer_.spans_[static_cast<std::size_t>(index_)];
  span.t1_ns = now_ns();
  tracer_.open_ = span.parent;
}

std::vector<double> Tracer::durations(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (std::string_view(s.name) == name)
      out.push_back(static_cast<double>(s.t1_ns - s.t0_ns) * 1e-9);
  return out;
}

double Tracer::total(const char* name) const {
  double sum = 0.0;
  for (double d : durations(name)) sum += d;
  return sum;
}

double Tracer::children_total(const char* root) const {
  double sum = 0.0;
  for (const Span& s : spans_)
    if (s.parent >= 0 &&
        std::string_view(spans_[static_cast<std::size_t>(s.parent)].name) ==
            root &&
        spans_[static_cast<std::size_t>(s.parent)].parent < 0)
      sum += static_cast<double>(s.t1_ns - s.t0_ns) * 1e-9;
  return sum;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t base = spans_.empty() ? 0 : spans_.front().t0_ns;
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "") << "{\"name\": \"" << s.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << number(static_cast<double>(s.t0_ns - base) * 1e-3)
        << ", \"dur\": "
        << number(static_cast<double>(s.t1_ns - s.t0_ns) * 1e-3)
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail_of(std::vector<double> v) {
  Tail tail;
  tail.samples = static_cast<int>(v.size());
  if (v.empty()) return tail;
  std::sort(v.begin(), v.end());
  const int n = tail.samples;
  for (int p = 99; p >= 50; --p) {
    // Nearest rank: the smallest sample with at least p% of the sample at
    // or below it.
    const int rank = (p * n + 99) / 100;
    if (n - rank >= 10) {
      tail.value = v[static_cast<std::size_t>(rank - 1)];
      tail.percentile = p;
      return tail;
    }
  }
  tail.value = v.back();
  tail.percentile = 100;
  return tail;
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace allocbench

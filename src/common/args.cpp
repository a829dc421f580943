#include "common/args.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <sstream>

namespace cloudalloc {

Args::Args(int argc, const char* const* argv) {
  bool only_positional = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (only_positional) {
      positional_.push_back(std::move(arg));
      continue;
    }
    if (arg == "--") {
      only_positional = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

bool Args::has(const std::string& name) const { return values_.count(name); }

std::string Args::get(const std::string& name,
                      const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Args::get_int(const std::string& name,
                           std::int64_t fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : std::strtoll(it->second.c_str(), nullptr, 10);
}

double Args::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
}

bool Args::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

namespace {

/// Parses all of `text` as a T; nullopt if anything is left over.
template <typename T>
std::optional<T> parse_whole(const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

template <typename T>
std::optional<T> read_in(const std::map<std::string, std::string>& values,
                         const std::string& name, T fallback, T lo, T hi,
                         const char* kind, std::string* error) {
  const auto it = values.find(name);
  if (it == values.end()) return fallback;
  std::optional<T> value = parse_whole<T>(it->second);
  if (value && *value >= lo && *value <= hi) return value;  // NaN fails
  if (error != nullptr) {
    std::ostringstream out;
    out << "--" << name << " must be " << kind << " in [" << lo << ", "
        << hi << "], got '" << it->second << "'";
    *error = out.str();
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::string> Args::unknown_flag(
    std::initializer_list<std::string_view> known) const {
  for (const auto& [name, value] : values_)
    if (std::find(known.begin(), known.end(), name) == known.end())
      return name;
  return std::nullopt;
}

std::optional<std::int64_t> Args::get_int_in(const std::string& name,
                                             std::int64_t fallback,
                                             std::int64_t lo, std::int64_t hi,
                                             std::string* error) const {
  return read_in(values_, name, fallback, lo, hi, "an integer", error);
}

std::optional<double> Args::get_double_in(const std::string& name,
                                          double fallback, double lo,
                                          double hi,
                                          std::string* error) const {
  return read_in(values_, name, fallback, lo, hi, "a number", error);
}

}  // namespace cloudalloc

// Minimal command-line flag parsing for examples and benchmark binaries.
//
// Syntax: --name=value or --name value; bare --flag sets a boolean true.
// Every flag is kept, so callers can reject unknown ones (unknown_flag) or
// ignore them (the google-benchmark binaries forward unrecognized flags to
// the framework).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cloudalloc {

class Args {
 public:
  /// Parses argv; does not take ownership. Flags after a literal "--" are
  /// left in positional().
  Args(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Strict reads for flags that must be validated: the whole value must
  /// parse (as a base-10 integer, or a number std::from_chars accepts)
  /// and lie in [lo, hi], which NaN never does. An absent flag yields
  /// `fallback`. A malformed or out-of-range value yields nullopt and, if
  /// `error` is set, a message such as
  /// "--clients must be an integer in [1, 1000000], got '-5'".
  std::optional<std::int64_t> get_int_in(const std::string& name,
                                         std::int64_t fallback,
                                         std::int64_t lo, std::int64_t hi,
                                         std::string* error = nullptr) const;
  std::optional<double> get_double_in(const std::string& name,
                                      double fallback, double lo, double hi,
                                      std::string* error = nullptr) const;

  /// The first flag, in name order, that `known` does not list; nullopt
  /// when every flag is known.
  std::optional<std::string> unknown_flag(
      std::initializer_list<std::string_view> known) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace cloudalloc

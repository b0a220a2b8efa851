#pragma once
// Minimal command-line flag parser for benches and examples.
//
// Supports `--name value`, `--name=value`, and boolean `--name` /
// `--no-name` forms. Flags are registered with defaults and a help string;
// `--help` prints usage and exits. Unknown flags are an error (typos in
// experiment parameters should never be silently ignored), and so is a
// double flag whose value is not finite (nan, inf, -inf).
//
// Every numeric flag declares its range when it is registered, and parse
// refuses a value outside it (exit 2, with a stderr line naming the flag,
// the range and the value), so no caller sees an out-of-range number.
// usage() prints each range beside its flag.

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace flattree::util {

/// The values an integer flag accepts: lo, lo + step, lo + 2 step, ... up
/// to hi.
struct IntRange {
  std::int64_t lo;
  std::int64_t hi;
  std::int64_t step = 1;

  bool contains(std::int64_t v) const {
    // Unsigned so that v - lo cannot overflow.
    return v >= lo && v <= hi &&
           (static_cast<std::uint64_t>(v) - static_cast<std::uint64_t>(lo)) %
                   static_cast<std::uint64_t>(step) ==
               0;
  }
};

/// The values a double flag accepts: the interval from lo to hi, each end
/// closed unless marked open. hi = infinity (open) leaves the flag
/// unbounded above; non-finite values are refused whatever the range.
struct DoubleRange {
  double lo;
  double hi;
  bool lo_open = false;
  bool hi_open = false;

  /// [lo, hi].
  static constexpr DoubleRange closed(double lo, double hi) { return {lo, hi, false, false}; }
  /// (lo, hi).
  static constexpr DoubleRange open(double lo, double hi) { return {lo, hi, true, true}; }
  /// [lo, inf).
  static constexpr DoubleRange at_least(double lo) {
    return {lo, std::numeric_limits<double>::infinity(), false, true};
  }
  /// (lo, inf).
  static constexpr DoubleRange above(double lo) {
    return {lo, std::numeric_limits<double>::infinity(), true, true};
  }

  bool contains(double v) const {
    return (lo_open ? v > lo : v >= lo) && (hi_open ? v < hi : v <= hi);
  }
};

class CliParser {
 public:
  explicit CliParser(std::string program_description);

  /// Registers a flag bound to `*target` (which also supplies the default).
  /// Numeric flags take the range parse accepts; a default outside it, or
  /// an empty range, throws std::invalid_argument.
  void add_int(const std::string& name, std::int64_t* target, IntRange range,
               const std::string& help);
  void add_double(const std::string& name, double* target, DoubleRange range,
                  const std::string& help);
  void add_bool(const std::string& name, bool* target, const std::string& help);
  void add_string(const std::string& name, std::string* target, const std::string& help);

  /// Parses argv. Returns false (after printing a message) on error or
  /// `--help`; the caller should exit(0)/exit(2) accordingly via exit_code().
  bool parse(int argc, char** argv);
  int exit_code() const { return exit_code_; }

  std::string usage() const;

 private:
  enum class Kind { Int, Double, Bool, String };
  struct Flag {
    std::string name;
    Kind kind;
    void* target;
    std::string help;
    std::string default_repr;
    IntRange int_range{0, 0};
    DoubleRange double_range{0.0, 0.0};
  };

  const Flag* find(const std::string& name) const;
  /// Stores `value` into the flag's target; returns why it was refused
  /// (empty when it was not).
  std::string assign(const Flag& flag, const std::string& value);

  std::string description_;
  std::vector<Flag> flags_;
  int exit_code_ = 0;
};

}  // namespace flattree::util

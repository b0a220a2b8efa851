#pragma once
// Minimal command-line flag parser for benches and examples.
//
// Supports `--name value`, `--name=value`, and boolean `--name` /
// `--no-name` forms. Flags are registered with defaults and a help string;
// `--help` prints usage and exits. Unknown flags are an error (typos in
// experiment parameters should never be silently ignored), and so is a
// double flag whose value is not finite (nan, inf, -inf).

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace flattree::util {

class CliParser {
 public:
  explicit CliParser(std::string program_description);

  /// Registers a flag bound to `*target` (which also supplies the default).
  void add_int(const std::string& name, std::int64_t* target, const std::string& help);
  void add_double(const std::string& name, double* target, const std::string& help);
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
  };

  const Flag* find(const std::string& name) const;
  bool assign(const Flag& flag, const std::string& value);

  std::string description_;
  std::vector<Flag> flags_;
  int exit_code_ = 0;
};

}  // namespace flattree::util

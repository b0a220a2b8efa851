#include "util/cli.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace flattree::util {

namespace {

std::string describe(const IntRange& r) {
  std::string s = "[" + std::to_string(r.lo) + ", " + std::to_string(r.hi) + "]";
  if (r.step != 1) s += " step " + std::to_string(r.step);
  return s;
}

std::string describe(const DoubleRange& r) {
  std::ostringstream os;
  os << (r.lo_open ? '(' : '[') << r.lo << ", " << r.hi << (r.hi_open ? ')' : ']');
  return os.str();
}

}  // namespace

CliParser::CliParser(std::string program_description)
    : description_(std::move(program_description)) {}

void CliParser::add_int(const std::string& name, std::int64_t* target, IntRange range,
                        const std::string& help) {
  if (range.step < 1 || range.lo > range.hi || !range.contains(*target))
    throw std::invalid_argument("CliParser: --" + name + " default " +
                                std::to_string(*target) + " outside its range " +
                                describe(range));
  Flag flag{name, Kind::Int, target, help, std::to_string(*target)};
  flag.int_range = range;
  flags_.push_back(std::move(flag));
}

void CliParser::add_double(const std::string& name, double* target, DoubleRange range,
                           const std::string& help) {
  std::ostringstream os;
  os << *target;
  if (!std::isfinite(*target) || !range.contains(*target))
    throw std::invalid_argument("CliParser: --" + name + " default " + os.str() +
                                " outside its range " + describe(range));
  Flag flag{name, Kind::Double, target, help, os.str()};
  flag.double_range = range;
  flags_.push_back(std::move(flag));
}

void CliParser::add_bool(const std::string& name, bool* target, const std::string& help) {
  flags_.push_back({name, Kind::Bool, target, help, *target ? "true" : "false"});
}

void CliParser::add_string(const std::string& name, std::string* target,
                           const std::string& help) {
  flags_.push_back({name, Kind::String, target, help, *target});
}

const CliParser::Flag* CliParser::find(const std::string& name) const {
  for (const auto& f : flags_)
    if (f.name == name) return &f;
  return nullptr;
}

std::string CliParser::assign(const Flag& flag, const std::string& value) {
  const std::string invalid =
      "invalid value '" + value + "' for flag '--" + flag.name + "'";
  errno = 0;
  char* end = nullptr;
  switch (flag.kind) {
    case Kind::Int: {
      long long v = std::strtoll(value.c_str(), &end, 10);
      if (errno != 0 || end == value.c_str() || *end != '\0') return invalid;
      if (!flag.int_range.contains(v))
        return "flag '--" + flag.name + "' must lie in " + describe(flag.int_range) +
               ", got " + value;
      *static_cast<std::int64_t*>(flag.target) = v;
      return {};
    }
    case Kind::Double: {
      double v = std::strtod(value.c_str(), &end);
      // strtod also reads nan, inf and -inf; no flag means any of them.
      if (errno != 0 || end == value.c_str() || *end != '\0' || !std::isfinite(v))
        return invalid;
      if (!flag.double_range.contains(v))
        return "flag '--" + flag.name + "' must lie in " + describe(flag.double_range) +
               ", got " + value;
      *static_cast<double*>(flag.target) = v;
      return {};
    }
    case Kind::Bool: {
      if (value == "true" || value == "1") {
        *static_cast<bool*>(flag.target) = true;
        return {};
      }
      if (value == "false" || value == "0") {
        *static_cast<bool*>(flag.target) = false;
        return {};
      }
      return invalid;
    }
    case Kind::String:
      *static_cast<std::string*>(flag.target) = value;
      return {};
  }
  return invalid;
}

bool CliParser::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      exit_code_ = 0;
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected positional argument '%s'\n%s", arg.c_str(),
                   usage().c_str());
      exit_code_ = 2;
      return false;
    }
    std::string body = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (auto eq = body.find('='); eq != std::string::npos) {
      value = body.substr(eq + 1);
      body = body.substr(0, eq);
      has_value = true;
    }
    const Flag* flag = find(body);
    if (flag == nullptr && body.rfind("no-", 0) == 0) {
      // `--no-name` form for booleans. `--no-name=value` is contradictory
      // (which wins?) so it gets its own error instead of "unknown flag".
      const Flag* base = find(body.substr(3));
      if (base != nullptr && base->kind == Kind::Bool) {
        if (has_value) {
          std::fprintf(stderr,
                       "flag '--%s' does not take a value (use --%s=0|1 instead)\n",
                       body.c_str(), body.substr(3).c_str());
          exit_code_ = 2;
          return false;
        }
        *static_cast<bool*>(base->target) = false;
        continue;
      }
    }
    if (flag == nullptr) {
      std::fprintf(stderr, "unknown flag '--%s'\n%s", body.c_str(), usage().c_str());
      exit_code_ = 2;
      return false;
    }
    if (!has_value) {
      if (flag->kind == Kind::Bool) {
        *static_cast<bool*>(flag->target) = true;
        continue;
      }
      if (i + 1 >= argc) {
        std::fprintf(stderr, "flag '--%s' expects a value\n", body.c_str());
        exit_code_ = 2;
        return false;
      }
      value = argv[++i];
    }
    if (std::string error = assign(*flag, value); !error.empty()) {
      std::fprintf(stderr, "%s\n", error.c_str());
      exit_code_ = 2;
      return false;
    }
  }
  return true;
}

std::string CliParser::usage() const {
  std::ostringstream os;
  os << description_ << "\n\nFlags:\n";
  for (const auto& f : flags_) {
    os << "  --" << f.name;
    switch (f.kind) {
      case Kind::Int: os << " <int in " << describe(f.int_range) << ">"; break;
      case Kind::Double: os << " <float in " << describe(f.double_range) << ">"; break;
      case Kind::Bool: os << " | --no-" << f.name; break;
      case Kind::String: os << " <string>"; break;
    }
    os << "\n      " << f.help << " (default: " << f.default_repr << ")\n";
  }
  return os.str();
}

}  // namespace flattree::util

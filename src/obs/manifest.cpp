#include "obs/manifest.hpp"

#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace flattree::obs {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string basename_of(const std::string& path) {
  std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::size_t written = std::fwrite(content.data(), 1, content.size(), f);
  return std::fclose(f) == 0 && written == content.size();
}

}  // namespace

std::string git_describe() {
  std::FILE* pipe = ::popen("git describe --always --dirty 2>/dev/null", "r");
  if (pipe == nullptr) return "unknown";
  char buf[256];
  std::string out;
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
  int rc = ::pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) out.pop_back();
  if (rc != 0 || out.empty()) return "unknown";
  return out;
}

RunSession::RunSession(int argc, const char* const* argv, std::string metrics_path,
                       std::string trace_path)
    : metrics_path_(std::move(metrics_path)),
      trace_path_(std::move(trace_path)),
      start_ns_(now_ns()) {
  argv_.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) argv_.emplace_back(argv[i]);
}

RunSession::~RunSession() { finish(); }

void RunSession::set_int(const std::string& key, std::int64_t value) {
  fields_.push_back({key, std::to_string(value)});
}

void RunSession::set_double(const std::string& key, double value) {
  fields_.push_back({key, json_number(value)});
}

std::string RunSession::manifest_json() const {
  MetricsSnapshot snap = snapshot_metrics();
  JsonWriter w;
  w.begin_object();
  w.key("schema");
  w.string_value("flattree.run.v1");
  w.key("name");
  w.string_value(argv_.empty() ? "unknown" : basename_of(argv_[0]));
  w.key("argv");
  w.begin_array();
  for (const std::string& a : argv_) w.string_value(a);
  w.end_array();
  w.key("git");
  w.string_value(git_describe());
  w.key("hardware_threads");
  w.uint_value(std::thread::hardware_concurrency());
  w.key("wall_time_s");
  w.double_value(static_cast<double>(now_ns() - start_ns_) / 1e9);
  w.key("fields");
  w.begin_object();
  for (const Field& f : fields_) {
    w.key(f.key);
    w.raw_value(f.json_value);
  }
  w.end_object();
  w.key("subsystems");
  w.begin_array();
  for (const std::string& s : snap.subsystems()) w.string_value(s);
  w.end_array();
  w.key("metrics");
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& [name, value] : snap.counters) {
    w.key(name);
    w.uint_value(value);
  }
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [name, value] : snap.gauges) {
    w.key(name);
    w.double_value(value);
  }
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const HistogramSnapshot& h : snap.histograms) {
    w.key(h.name);
    w.begin_object();
    w.key("count");
    w.uint_value(h.count);
    w.key("sum");
    w.double_value(h.sum);
    w.key("min");
    w.double_value(h.min);
    w.key("max");
    w.double_value(h.max);
    w.key("buckets");
    w.begin_array();
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      w.begin_object();
      w.key("le");
      if (b < h.bounds.size())
        w.double_value(h.bounds[b]);
      else
        w.string_value("inf");
      w.key("count");
      w.uint_value(h.buckets[b]);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
  w.end_object();
  std::string doc = w.str();
  doc += '\n';
  return doc;
}

bool RunSession::finish() {
  if (finished_) return true;
  finished_ = true;
  bool ok = true;
  if (!trace_path_.empty()) {
    if (!write_trace(trace_path_))
      ok = false;
    else
      std::fprintf(stderr, "obs: wrote trace %s\n", trace_path_.c_str());
  }
  if (!metrics_path_.empty()) {
    if (!write_file(metrics_path_, manifest_json()))
      ok = false;
    else
      std::fprintf(stderr, "obs: wrote manifest %s\n", metrics_path_.c_str());
  }
  return ok;
}

}  // namespace flattree::obs

#include "obs/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

namespace flattree::obs {

namespace {

std::atomic<bool> g_enabled{false};

constexpr double kInf = std::numeric_limits<double>::infinity();

struct GaugeCell {
  double value = 0.0;
  bool has_value = false;
};

struct HistCell {
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = kInf;
  double max = -kInf;
};

/// Global store. Leaked on purpose: thread-local shards flush from thread
/// destructors, which must never race static destruction order.
struct Store {
  std::mutex mu;
  std::unordered_map<std::string, MetricId> counter_ids;
  std::vector<std::string> counter_names;
  std::vector<std::uint64_t> counters;

  std::unordered_map<std::string, MetricId> gauge_ids;
  std::vector<std::string> gauge_names;
  std::vector<GaugeCell> gauges;

  std::unordered_map<std::string, MetricId> hist_ids;
  std::vector<std::string> hist_names;
  std::vector<HistCell> hists;
};

Store& store() {
  static Store* s = new Store;
  return *s;
}

/// Thread-local deltas, merged into the store by flush(). Index = MetricId;
/// vectors grow lazily, so a shard only pays for metrics its thread touches.
struct Shard {
  std::vector<std::uint64_t> counters;

  struct HistDelta {
    std::vector<double> bounds;  ///< copied from the store on first observe
    std::vector<std::uint64_t> buckets;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = kInf;
    double max = -kInf;
  };
  std::vector<HistDelta> hists;
  bool dirty = false;

  ~Shard() { flush(); }

  void add_counter(MetricId id, std::uint64_t n) {
    if (counters.size() <= id) counters.resize(id + 1, 0);
    counters[id] += n;
    dirty = true;
  }

  void observe(MetricId id, double v) {
    if (hists.size() <= id) hists.resize(id + 1);
    HistDelta& h = hists[id];
    if (h.bounds.empty() && h.buckets.empty()) {
      Store& s = store();
      std::lock_guard lock(s.mu);
      h.bounds = s.hists[id].bounds;
      h.buckets.assign(h.bounds.size() + 1, 0);
    }
    std::size_t b = static_cast<std::size_t>(
        std::lower_bound(h.bounds.begin(), h.bounds.end(), v) - h.bounds.begin());
    ++h.buckets[b];
    ++h.count;
    h.sum += v;
    h.min = std::min(h.min, v);
    h.max = std::max(h.max, v);
    dirty = true;
  }

  void flush() {
    if (!dirty) return;
    Store& s = store();
    std::lock_guard lock(s.mu);
    for (MetricId id = 0; id < counters.size(); ++id) {
      if (counters[id] == 0) continue;
      s.counters[id] += counters[id];
      counters[id] = 0;
    }
    for (MetricId id = 0; id < hists.size(); ++id) {
      HistDelta& d = hists[id];
      if (d.count == 0) continue;
      HistCell& c = s.hists[id];
      for (std::size_t b = 0; b < d.buckets.size(); ++b) {
        c.buckets[b] += d.buckets[b];
        d.buckets[b] = 0;
      }
      c.count += d.count;
      c.sum += d.sum;
      c.min = std::min(c.min, d.min);
      c.max = std::max(c.max, d.max);
      d.count = 0;
      d.sum = 0.0;
      d.min = kInf;
      d.max = -kInf;
    }
    dirty = false;
  }
};

thread_local Shard t_shard;

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

Counter::Counter(const std::string& name) {
  Store& s = store();
  std::lock_guard lock(s.mu);
  auto it = s.counter_ids.find(name);
  if (it != s.counter_ids.end()) {
    id_ = it->second;
    return;
  }
  id_ = static_cast<MetricId>(s.counter_names.size());
  s.counter_ids.emplace(name, id_);
  s.counter_names.push_back(name);
  s.counters.push_back(0);
}

void Counter::add(std::uint64_t n) {
  if (!enabled()) return;
  t_shard.add_counter(id_, n);
}

Gauge::Gauge(const std::string& name) {
  Store& s = store();
  std::lock_guard lock(s.mu);
  auto it = s.gauge_ids.find(name);
  if (it != s.gauge_ids.end()) {
    id_ = it->second;
    return;
  }
  id_ = static_cast<MetricId>(s.gauge_names.size());
  s.gauge_ids.emplace(name, id_);
  s.gauge_names.push_back(name);
  s.gauges.push_back({});
}

void Gauge::set(double v) {
  if (!enabled()) return;
  Store& s = store();
  std::lock_guard lock(s.mu);
  s.gauges[id_].value = v;
  s.gauges[id_].has_value = true;
}

Histogram::Histogram(const std::string& name, std::vector<double> bounds) {
  if (bounds.empty()) throw std::invalid_argument("Histogram: need at least one bound");
  for (std::size_t i = 1; i < bounds.size(); ++i)
    if (!(bounds[i - 1] < bounds[i]))
      throw std::invalid_argument("Histogram: bounds must be strictly ascending");
  Store& s = store();
  std::lock_guard lock(s.mu);
  auto it = s.hist_ids.find(name);
  if (it != s.hist_ids.end()) {
    if (s.hists[it->second].bounds != bounds)
      throw std::invalid_argument("Histogram: re-registered '" + name +
                                  "' with different bounds");
    id_ = it->second;
    return;
  }
  id_ = static_cast<MetricId>(s.hist_names.size());
  s.hist_ids.emplace(name, id_);
  s.hist_names.push_back(name);
  HistCell cell;
  cell.buckets.assign(bounds.size() + 1, 0);
  cell.bounds = std::move(bounds);
  s.hists.push_back(std::move(cell));
}

void Histogram::observe(double v) {
  if (!enabled()) return;
  t_shard.observe(id_, v);
}

std::vector<double> Histogram::exponential_bounds(double start, double factor,
                                                  std::size_t count) {
  if (start <= 0.0 || factor <= 1.0 || count == 0)
    throw std::invalid_argument("Histogram::exponential_bounds: bad parameters");
  std::vector<double> bounds(count);
  double edge = start;
  for (std::size_t i = 0; i < count; ++i) {
    bounds[i] = edge;
    edge *= factor;
  }
  return bounds;
}

std::vector<double> Histogram::linear_bounds(double start, double step,
                                             std::size_t count) {
  if (step <= 0.0 || count == 0)
    throw std::invalid_argument("Histogram::linear_bounds: bad parameters");
  std::vector<double> bounds(count);
  for (std::size_t i = 0; i < count; ++i)
    bounds[i] = start + step * static_cast<double>(i);
  return bounds;
}

void flush_thread_metrics() { t_shard.flush(); }

std::vector<std::string> MetricsSnapshot::subsystems() const {
  std::vector<std::string> out;
  auto note = [&out](const std::string& name, bool live) {
    if (!live) return;
    std::string head = name.substr(0, name.find('.'));
    if (std::find(out.begin(), out.end(), head) == out.end()) out.push_back(head);
  };
  for (const auto& [name, v] : counters) note(name, v != 0);
  for (const auto& [name, v] : gauges) note(name, true);
  for (const auto& h : histograms) note(h.name, h.count != 0);
  std::sort(out.begin(), out.end());
  return out;
}

MetricsSnapshot snapshot_metrics() {
  flush_thread_metrics();
  MetricsSnapshot snap;
  Store& s = store();
  std::lock_guard lock(s.mu);
  for (MetricId id = 0; id < s.counter_names.size(); ++id)
    snap.counters.emplace_back(s.counter_names[id], s.counters[id]);
  for (MetricId id = 0; id < s.gauge_names.size(); ++id)
    if (s.gauges[id].has_value)
      snap.gauges.emplace_back(s.gauge_names[id], s.gauges[id].value);
  for (MetricId id = 0; id < s.hist_names.size(); ++id) {
    const HistCell& c = s.hists[id];
    HistogramSnapshot h;
    h.name = s.hist_names[id];
    h.bounds = c.bounds;
    h.buckets = c.buckets;
    h.count = c.count;
    h.sum = c.sum;
    h.min = c.count ? c.min : 0.0;
    h.max = c.count ? c.max : 0.0;
    snap.histograms.push_back(std::move(h));
  }
  auto by_name = [](const auto& a, const auto& b) { return a.first < b.first; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(),
            [](const HistogramSnapshot& a, const HistogramSnapshot& b) {
              return a.name < b.name;
            });
  return snap;
}

void reset_metrics() {
  // Clear the caller's pending deltas first so they cannot resurrect
  // post-reset values on the next flush.
  t_shard.counters.clear();
  t_shard.hists.clear();
  t_shard.dirty = false;
  Store& s = store();
  std::lock_guard lock(s.mu);
  std::fill(s.counters.begin(), s.counters.end(), 0);
  for (GaugeCell& g : s.gauges) g = {};
  for (HistCell& h : s.hists) {
    std::fill(h.buckets.begin(), h.buckets.end(), 0);
    h.count = 0;
    h.sum = 0.0;
    h.min = kInf;
    h.max = -kInf;
  }
}

}  // namespace flattree::obs

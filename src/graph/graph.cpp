#include "graph/graph.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"

namespace flattree::graph {

namespace {

// CSR maintenance accounting: one event per build/patch, never per arc.
obs::Counter c_csr_builds("graph.csr.full_builds");
obs::Counter c_csr_patches("graph.csr.patches");
obs::Counter c_csr_patched_links("graph.csr.patched_links");

}  // namespace

Graph::Graph(std::size_t node_count) : node_count_(node_count) {}

Graph::Graph(const Graph& other)
    : node_count_(other.node_count_),
      links_(other.links_),
      live_(other.live_),
      live_link_count_(other.live_link_count_) {}

Graph& Graph::operator=(const Graph& other) {
  if (this != &other) {
    node_count_ = other.node_count_;
    links_ = other.links_;
    live_ = other.live_;
    live_link_count_ = other.live_link_count_;
    csr_structurally_stale_ = true;
    csr_pending_.clear();
    csr_valid_.store(false, std::memory_order_release);
  }
  return *this;
}

Graph::Graph(Graph&& other) noexcept
    : node_count_(other.node_count_),
      links_(std::move(other.links_)),
      live_(std::move(other.live_)),
      live_link_count_(other.live_link_count_) {}

Graph& Graph::operator=(Graph&& other) noexcept {
  if (this != &other) {
    node_count_ = other.node_count_;
    links_ = std::move(other.links_);
    live_ = std::move(other.live_);
    live_link_count_ = other.live_link_count_;
    csr_structurally_stale_ = true;
    csr_pending_.clear();
    csr_valid_.store(false, std::memory_order_release);
  }
  return *this;
}

void Graph::note_structural_edit() {
  csr_structurally_stale_ = true;
  csr_pending_.clear();
  // Release so a reader sequenced after this mutation (the documented
  // contract) acquires a coherent view of the invalidation.
  csr_valid_.store(false, std::memory_order_release);
}

void Graph::note_liveness_edit(LinkId id, bool now_live) {
  if (csr_built_ && !csr_structurally_stale_) csr_pending_.emplace_back(id, now_live);
  csr_valid_.store(false, std::memory_order_release);
}

NodeId Graph::add_nodes(std::size_t count) {
  NodeId first = static_cast<NodeId>(node_count_);
  node_count_ += count;
  note_structural_edit();
  return first;
}

LinkId Graph::add_link(NodeId a, NodeId b, double capacity) {
  if (a >= node_count_ || b >= node_count_)
    throw std::out_of_range("Graph::add_link: endpoint out of range");
  if (a == b) throw std::invalid_argument("Graph::add_link: self-loop");
  if (capacity <= 0.0) throw std::invalid_argument("Graph::add_link: non-positive capacity");
  links_.push_back(Link{a, b, capacity});
  if (!live_.empty()) live_.push_back(1);
  ++live_link_count_;
  note_structural_edit();
  return static_cast<LinkId>(links_.size() - 1);
}

void Graph::remove_link(LinkId id) {
  if (id >= links_.size()) throw std::out_of_range("Graph::remove_link: bad link id");
  if (live_.empty()) live_.assign(links_.size(), 1);
  if (!live_[id]) throw std::logic_error("Graph::remove_link: link already removed");
  live_[id] = 0;
  --live_link_count_;
  note_liveness_edit(id, false);
}

void Graph::restore_link(LinkId id) {
  if (id >= links_.size()) throw std::out_of_range("Graph::restore_link: bad link id");
  if (live_.empty() || live_[id])
    throw std::logic_error("Graph::restore_link: link is live");
  live_[id] = 1;
  ++live_link_count_;
  note_liveness_edit(id, true);
}

std::size_t Graph::degree(NodeId node) const {
  auto arcs = neighbors(node);
  return arcs.size();
}

void Graph::build_csr() const {
  // Segments are sized by ALL link slots (tombstones included) so later
  // remove/restore deltas patch by swapping inside a fixed segment. Live
  // arcs are written first, dead arcs are parked behind them.
  csr_offset_.assign(node_count_ + 1, 0);
  for (const Link& l : links_) {
    ++csr_offset_[l.a + 1];
    ++csr_offset_[l.b + 1];
  }
  for (std::size_t i = 1; i <= node_count_; ++i) csr_offset_[i] += csr_offset_[i - 1];
  csr_arcs_.resize(links_.size() * 2);
  std::vector<std::uint32_t> cursor(csr_offset_.begin(), csr_offset_.end() - 1);
  for (LinkId id = 0; id < links_.size(); ++id) {
    if (!link_live(id)) continue;
    const Link& l = links_[id];
    csr_arcs_[cursor[l.a]++] = Arc{l.b, id};
    csr_arcs_[cursor[l.b]++] = Arc{l.a, id};
  }
  csr_live_deg_.assign(node_count_, 0);
  for (NodeId v = 0; v < node_count_; ++v) csr_live_deg_[v] = cursor[v] - csr_offset_[v];
  for (LinkId id = 0; id < links_.size(); ++id) {
    if (link_live(id)) continue;
    const Link& l = links_[id];
    csr_arcs_[cursor[l.a]++] = Arc{l.b, id};
    csr_arcs_[cursor[l.b]++] = Arc{l.a, id};
  }
  if (obs::enabled()) c_csr_builds.inc();
}

bool Graph::patch_csr() const {
  // In-place application of the pending liveness flips. Patching is
  // O(delta * degree); past ~an eighth of the link slots a full O(V + E)
  // rebuild is cheaper, so the caller falls back.
  const std::size_t patch_cap = std::max<std::size_t>(16, links_.size() / 8);
  if (csr_pending_.size() > patch_cap) return false;
  for (auto [id, now_live] : csr_pending_) {
    const Link& l = links_[id];
    for (NodeId v : {l.a, l.b}) {
      const std::uint32_t begin = csr_offset_[v];
      const std::uint32_t live_end = begin + csr_live_deg_[v];
      const std::uint32_t end = csr_offset_[v + 1];
      if (now_live) {
        for (std::uint32_t i = live_end; i < end; ++i) {
          if (csr_arcs_[i].link == id) {
            std::swap(csr_arcs_[i], csr_arcs_[live_end]);
            ++csr_live_deg_[v];
            break;
          }
        }
      } else {
        for (std::uint32_t i = begin; i < live_end; ++i) {
          if (csr_arcs_[i].link == id) {
            std::swap(csr_arcs_[i], csr_arcs_[live_end - 1]);
            --csr_live_deg_[v];
            break;
          }
        }
      }
    }
  }
  if (obs::enabled()) {
    c_csr_patches.inc();
    c_csr_patched_links.add(csr_pending_.size());
  }
  return true;
}

void Graph::ensure_csr() const {
  // Double-checked lazy build: concurrent readers (parallel BFS/Dijkstra
  // workers sharing one Graph) may race to the first neighbors() call. The
  // release-store publishes the vectors filled under the lock; the acquire
  // load in the fast path synchronizes with it. Every mutator — including
  // remove/restore — stores csr_valid_ = false, so a reader sequenced
  // after the mutation never sees a stale index.
  if (csr_valid_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(csr_mutex_);
  if (csr_valid_.load(std::memory_order_relaxed)) return;
  if (csr_built_ && !csr_structurally_stale_ && patch_csr()) {
    csr_pending_.clear();
  } else {
    build_csr();
    csr_built_ = true;
    csr_structurally_stale_ = false;
    csr_pending_.clear();
  }
  csr_valid_.store(true, std::memory_order_release);
}

std::span<const Arc> Graph::neighbors(NodeId node) const {
  if (node >= node_count_) throw std::out_of_range("Graph::neighbors: node out of range");
  ensure_csr();
  return {csr_arcs_.data() + csr_offset_[node], csr_live_deg_[node]};
}

bool Graph::connected(NodeId a, NodeId b) const {
  for (const Arc& arc : neighbors(a))
    if (arc.to == b) return true;
  return false;
}

double Graph::capacity_between(NodeId a, NodeId b) const {
  double total = 0.0;
  for (const Arc& arc : neighbors(a))
    if (arc.to == b) total += links_[arc.link].capacity;
  return total;
}

}  // namespace flattree::graph

#include "graph/graph.hpp"

#include <mutex>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"

namespace flattree::graph {

namespace {

// CSR maintenance accounting: one event per build, never per arc.
obs::Counter c_csr_builds("graph.csr.full_builds");

}  // namespace

Graph::Graph(Graph&& other) noexcept
    : node_count_(other.node_count_), links_(std::move(other.links_)) {}

Graph& Graph::operator=(Graph&& other) noexcept {
  if (this != &other) {
    node_count_ = other.node_count_;
    links_ = std::move(other.links_);
    invalidate_csr();
  }
  return *this;
}

void Graph::invalidate_csr() {
  // Release so a reader sequenced after this mutation (the documented
  // contract) acquires a coherent view of the invalidation.
  csr_valid_.store(false, std::memory_order_release);
}

NodeId Graph::add_nodes(std::size_t count) {
  NodeId first = static_cast<NodeId>(node_count_);
  node_count_ += count;
  invalidate_csr();
  return first;
}

LinkId Graph::add_link(NodeId a, NodeId b, double capacity) {
  if (a >= node_count_ || b >= node_count_)
    throw std::out_of_range("Graph::add_link: endpoint out of range");
  if (a == b) throw std::invalid_argument("Graph::add_link: self-loop");
  if (capacity <= 0.0) throw std::invalid_argument("Graph::add_link: non-positive capacity");
  links_.push_back(Link{a, b, capacity});
  invalidate_csr();
  return static_cast<LinkId>(links_.size() - 1);
}

void Graph::build_csr() const {
  csr_offset_.assign(node_count_ + 1, 0);
  for (const Link& l : links_) {
    ++csr_offset_[l.a + 1];
    ++csr_offset_[l.b + 1];
  }
  for (std::size_t i = 1; i <= node_count_; ++i) csr_offset_[i] += csr_offset_[i - 1];
  csr_arcs_.resize(links_.size() * 2);
  std::vector<std::uint32_t> cursor(csr_offset_.begin(), csr_offset_.end() - 1);
  for (LinkId id = 0; id < links_.size(); ++id) {
    const Link& l = links_[id];
    csr_arcs_[cursor[l.a]++] = Arc{l.b, id};
    csr_arcs_[cursor[l.b]++] = Arc{l.a, id};
  }
  if (obs::enabled()) c_csr_builds.inc();
}

void Graph::ensure_csr() const {
  // Double-checked lazy build: concurrent readers (parallel BFS/Dijkstra
  // workers sharing one Graph) may race to the first neighbors() call. The
  // release-store publishes the vectors filled under the lock; the acquire
  // load in the fast path synchronizes with it. Every mutator stores
  // csr_valid_ = false, so a reader sequenced after the mutation never
  // sees a stale index.
  if (csr_valid_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(csr_mutex_);
  if (csr_valid_.load(std::memory_order_relaxed)) return;
  build_csr();
  csr_valid_.store(true, std::memory_order_release);
}

std::span<const Arc> Graph::neighbors(NodeId node) const {
  if (node >= node_count_) throw std::out_of_range("Graph::neighbors: node out of range");
  ensure_csr();
  return {csr_arcs_.data() + csr_offset_[node], csr_offset_[node + 1] - csr_offset_[node]};
}

}  // namespace flattree::graph

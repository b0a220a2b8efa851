#include "routing/ksp_routing.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"

namespace flattree::routing {

namespace {

obs::Counter c_cache_hits("routing.ksp.cache_hits");
obs::Counter c_cache_misses("routing.ksp.cache_misses");

}  // namespace

KspRouting::KspRouting(const graph::Graph& g, std::size_t k) : graph_(g), k_(k) {}

const std::vector<Path>& KspRouting::paths(NodeId src, NodeId dst) {
  if (const auto* cached = db_.find(src, dst)) {
    c_cache_hits.inc();
    return *cached;
  }
  c_cache_misses.inc();
  auto computed = graph::yen_ksp_hops(graph_, src, dst, k_);
  if (computed.empty()) throw std::runtime_error("KspRouting: pair disconnected");
  db_.set(src, dst, std::move(computed));
  return *db_.find(src, dst);
}

}  // namespace flattree::routing

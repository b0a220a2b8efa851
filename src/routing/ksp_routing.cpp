#include "routing/ksp_routing.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace flattree::routing {

namespace {

obs::Counter c_cache_hits("routing.ksp.cache_hits");
obs::Counter c_cache_misses("routing.ksp.cache_misses");
obs::Counter c_selected("routing.ksp.paths_selected");

}  // namespace

KspRouting::KspRouting(const graph::Graph& g, std::size_t k, std::uint64_t salt)
    : graph_(g), k_(k), salt_(salt) {}

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

const Path& KspRouting::select(NodeId src, NodeId dst, std::uint64_t flow_id) {
  c_selected.inc();
  const auto& set = paths(src, dst);
  std::uint64_t h = util::mix64(flow_id ^ salt_ ^
                                ((static_cast<std::uint64_t>(src) << 32) | dst));
  return set[h % set.size()];
}

}  // namespace flattree::routing

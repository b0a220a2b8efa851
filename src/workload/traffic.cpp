#include "workload/traffic.hpp"

#include <stdexcept>

namespace flattree::workload {

std::vector<ServerDemand> broadcast_traffic(const Cluster& cluster, util::Rng& rng) {
  if (cluster.servers.size() < 2)
    throw std::invalid_argument("broadcast_traffic: cluster too small");
  ServerId hot = cluster.servers[rng.index(cluster.servers.size())];
  std::vector<ServerDemand> out;
  out.reserve(cluster.servers.size() - 1);
  for (ServerId s : cluster.servers)
    if (s != hot) out.push_back({hot, s, 1.0});
  return out;
}

std::vector<ServerDemand> incast_traffic(const Cluster& cluster, util::Rng& rng) {
  if (cluster.servers.size() < 2)
    throw std::invalid_argument("incast_traffic: cluster too small");
  ServerId hot = cluster.servers[rng.index(cluster.servers.size())];
  std::vector<ServerDemand> out;
  out.reserve(cluster.servers.size() - 1);
  for (ServerId s : cluster.servers)
    if (s != hot) out.push_back({s, hot, 1.0});
  return out;
}

std::vector<ServerDemand> all_to_all_traffic(const Cluster& cluster) {
  std::vector<ServerDemand> out;
  out.reserve(cluster.servers.size() * (cluster.servers.size() - 1));
  for (ServerId a : cluster.servers)
    for (ServerId b : cluster.servers)
      if (a != b) out.push_back({a, b, 1.0});
  return out;
}

std::vector<ServerDemand> cluster_traffic(const std::vector<Cluster>& clusters,
                                          Pattern pattern, util::Rng& rng) {
  std::vector<ServerDemand> out;
  for (const Cluster& cluster : clusters) {
    std::vector<ServerDemand> part;
    switch (pattern) {
      case Pattern::Broadcast: part = broadcast_traffic(cluster, rng); break;
      case Pattern::Incast: part = incast_traffic(cluster, rng); break;
      case Pattern::AllToAll: part = all_to_all_traffic(cluster); break;
    }
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

std::vector<ServerDemand> permutation_traffic(std::uint32_t total_servers, util::Rng& rng) {
  if (total_servers < 2)
    throw std::invalid_argument("permutation_traffic: need at least two servers");
  std::vector<ServerId> perm(total_servers);
  for (std::uint32_t s = 0; s < total_servers; ++s) perm[s] = s;
  // Re-draw until no fixed points (fast for any realistic size); bounded
  // fallback rotates the identity if astronomically unlucky.
  for (int attempt = 0; attempt < 64; ++attempt) {
    rng.shuffle(perm);
    bool fixed = false;
    for (std::uint32_t s = 0; s < total_servers; ++s)
      if (perm[s] == s) {
        fixed = true;
        break;
      }
    if (!fixed) break;
    if (attempt == 63)
      for (std::uint32_t s = 0; s < total_servers; ++s) perm[s] = (s + 1) % total_servers;
  }
  std::vector<ServerDemand> out;
  out.reserve(total_servers);
  for (std::uint32_t s = 0; s < total_servers; ++s) out.push_back({s, perm[s], 1.0});
  return out;
}

std::vector<ServerDemand> incast_pattern(std::uint32_t total_servers,
                                         std::uint32_t sources, std::uint64_t seed) {
  if (total_servers < 2)
    throw std::invalid_argument("incast_pattern: need at least two servers");
  if (sources == 0 || sources >= total_servers)
    throw std::invalid_argument("incast_pattern: need 1 <= sources < total_servers");
  util::Rng sink_rng = util::Rng::substream(seed, 0);
  ServerId sink = static_cast<ServerId>(sink_rng.index(total_servers));
  std::vector<ServerId> candidates;
  candidates.reserve(total_servers - 1);
  for (std::uint32_t s = 0; s < total_servers; ++s)
    if (s != sink) candidates.push_back(s);
  util::Rng pick_rng = util::Rng::substream(seed, 1);
  pick_rng.shuffle(candidates);
  std::vector<ServerDemand> out;
  out.reserve(sources);
  for (std::uint32_t i = 0; i < sources; ++i) out.push_back({candidates[i], sink, 1.0});
  return out;
}

}  // namespace flattree::workload

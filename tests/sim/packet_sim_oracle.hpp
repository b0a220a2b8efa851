#pragma once
// Test oracle for PacketSimulator::run: the original two-heap event loop.
// Drop-tail schedules every packet's first arrival before the loop starts
// (seq in flow-major order), and a second min-heap of (arrival time, arc)
// drains decrements every arc's occupancy before each event. Packet i of a
// flow with a non-empty path set follows path i mod |set| and skips the
// table and the flowlet table. The simulator must reproduce its
// PacketStats bit for bit on any valid input.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/packet_sim.hpp"
#include "te/flowlet.hpp"
#include "te/weighted_fib.hpp"
#include "topo/topology.hpp"
#include "util/stats.hpp"

namespace flattree::sim::oracle {

/// The reference run over a FIB and config the caller has already
/// validated (the simulator's constructor and run() refuse bad inputs).
inline PacketStats oracle_run(const topo::Topology& topo, const te::WeightedFib& fib,
                              const PacketSimConfig& config,
                              const std::vector<PacketFlow>& flows) {
  struct Packet {
    std::uint64_t flow_id = 0;
    std::uint64_t salt = 0;
    const graph::Path* route = nullptr;  ///< null = the table
    std::size_t hop = 0;
    topo::NodeId dst_switch = 0;
    double injected_at = 0.0;
    bool marked = false;
    bool dropped = false;
  };
  enum class Kind : std::uint8_t { Arrive, Credit, Inject };
  struct Event {
    double time = 0.0;
    std::uint64_t seq = 0;
    Kind kind = Kind::Arrive;
    topo::NodeId at = 0;
    std::size_t idx = 0;
    bool operator>(const Event& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };
  struct Arc {
    double busy_until = 0.0;
    std::size_t queued = 0;
  };
  struct Drain {
    double time;
    std::size_t arc;
    bool operator>(const Drain& o) const { return time > o.time; }
  };
  struct Flow {
    std::uint32_t sent = 0;
    std::uint32_t inflight = 0;
    std::uint32_t cwnd = 1;
    std::uint32_t window_size = 1;
    std::uint32_t window_acked = 0;
    std::uint32_t window_marked = 0;
    double alpha = 1.0;
    double nic_free = 0.0;
    bool inject_pending = false;
  };

  std::vector<Arc> arc_state(topo.link_count() * 2);
  std::vector<Packet> packets;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  std::priority_queue<Drain, std::vector<Drain>, std::greater<>> drains;
  std::uint64_t seq = 0;

  PacketStats stats;
  std::vector<double> delays;
  std::vector<double> last_delivery(flows.size(), -1.0);
  double queue_sum = 0.0;
  double queue_peak = 0.0;
  std::uint64_t queue_samples = 0;
  te::FlowletTable flowlets(config.flowlet_gap);
  std::vector<Flow> state;
  const double injection_gap = 1.0 / config.nic_rate;
  // Packet i of flow f: its route, and its flowlet salt on the table.
  auto make_packet = [&](std::size_t f, std::uint32_t i, double t) {
    const PacketFlow& flow = flows[f];
    Packet pkt;
    pkt.flow_id = f;
    if (flow.paths != nullptr && !flow.paths->empty())
      pkt.route = &(*flow.paths)[i % flow.paths->size()];
    else
      pkt.salt = flowlets.salt(pkt.flow_id, t);
    pkt.dst_switch = topo.host(flow.dst);
    pkt.injected_at = t;
    return pkt;
  };

  if (!config.ecn) {
    for (std::size_t f = 0; f < flows.size(); ++f) {
      const PacketFlow& flow = flows[f];
      for (std::uint32_t p = 0; p < flow.packets; ++p) {
        double t = flow.start + static_cast<double>(p) * injection_gap;
        packets.push_back(make_packet(f, p, t));
        events.push({t, seq++, Kind::Arrive, topo.host(flow.src), packets.size() - 1});
        ++stats.injected;
      }
    }
  } else {
    state.resize(flows.size());
    for (std::size_t f = 0; f < flows.size(); ++f) {
      Flow& fs = state[f];
      fs.cwnd = kInitCwnd;
      fs.window_size = fs.cwnd;
      fs.nic_free = flows[f].start;
      fs.inject_pending = true;
      events.push({flows[f].start, seq++, Kind::Inject, 0, f});
    }
  }

  auto pump = [&](std::size_t f, double now) {
    Flow& fs = state[f];
    const PacketFlow& flow = flows[f];
    if (fs.sent < flow.packets && fs.inflight < fs.cwnd && fs.nic_free <= now) {
      packets.push_back(make_packet(f, fs.sent, now));
      events.push({now, seq++, Kind::Arrive, topo.host(flow.src), packets.size() - 1});
      ++fs.sent;
      ++fs.inflight;
      fs.nic_free = now + injection_gap;
      ++stats.injected;
    }
    if (!fs.inject_pending && fs.sent < flow.packets && fs.inflight < fs.cwnd) {
      fs.inject_pending = true;
      events.push({std::max(now, fs.nic_free), seq++, Kind::Inject, 0, f});
    }
  };

  auto credit = [&](std::size_t packet_idx, double now) {
    const Packet& pkt = packets[packet_idx];
    std::size_t f = static_cast<std::size_t>(pkt.flow_id);
    Flow& fs = state[f];
    --fs.inflight;
    if (pkt.dropped) {
      fs.cwnd = std::max(1u, fs.cwnd / 2);
      ++stats.window_cuts;
      fs.window_size = fs.cwnd;
      fs.window_acked = 0;
      fs.window_marked = 0;
    } else {
      ++fs.window_acked;
      if (pkt.marked) ++fs.window_marked;
      if (fs.window_acked >= fs.window_size) {
        double fraction =
            static_cast<double>(fs.window_marked) / static_cast<double>(fs.window_acked);
        fs.alpha = (1.0 - kDctcpGain) * fs.alpha + kDctcpGain * fraction;
        if (fs.window_marked > 0) {
          fs.cwnd = std::max(1u, static_cast<std::uint32_t>(static_cast<double>(fs.cwnd) *
                                                            (1.0 - fs.alpha / 2.0)));
          ++stats.window_cuts;
        } else {
          ++fs.cwnd;
        }
        fs.window_size = fs.cwnd;
        fs.window_acked = 0;
        fs.window_marked = 0;
      }
    }
    pump(f, now);
  };

  while (!events.empty()) {
    Event ev = events.top();
    events.pop();
    while (!drains.empty() && drains.top().time <= ev.time) {
      --arc_state[drains.top().arc].queued;
      drains.pop();
    }
    if (ev.kind == Kind::Inject) {
      state[ev.idx].inject_pending = false;
      pump(ev.idx, ev.time);
      continue;
    }
    if (ev.kind == Kind::Credit) {
      credit(ev.idx, ev.time);
      continue;
    }

    Packet& pkt = packets[ev.idx];
    if (ev.at == pkt.dst_switch) {
      ++stats.delivered;
      delays.push_back(ev.time - pkt.injected_at);
      if (pkt.marked) ++stats.ecn_marked;
      last_delivery[pkt.flow_id] = std::max(last_delivery[pkt.flow_id], ev.time);
      stats.finish_time = std::max(stats.finish_time, ev.time);
      if (config.ecn) events.push({ev.time, seq++, Kind::Credit, 0, ev.idx});
      continue;
    }

    graph::LinkId link = pkt.route != nullptr ? pkt.route->links[pkt.hop++]
                                              : fib.select(ev.at, pkt.dst_switch, pkt.salt);
    const graph::Link& l = topo.graph().link(link);
    std::size_t arc = 2 * link + (l.a == ev.at ? 0 : 1);
    Arc& astate = arc_state[arc];
    queue_sum += static_cast<double>(astate.queued);
    queue_peak = std::max(queue_peak, static_cast<double>(astate.queued));
    ++queue_samples;

    if (config.queue_packets != 0 && astate.queued >= config.queue_packets) {
      ++stats.dropped;
      pkt.dropped = true;
      stats.finish_time = std::max(stats.finish_time, ev.time);
      if (config.ecn) events.push({ev.time, seq++, Kind::Credit, 0, ev.idx});
      continue;
    }
    if (config.ecn && astate.queued >= config.ecn_threshold) pkt.marked = true;
    double service = 1.0 / l.capacity;
    double depart = std::max(ev.time, astate.busy_until) + service;
    astate.busy_until = depart;
    ++astate.queued;
    double arrive = depart + config.propagation_delay;
    drains.push({arrive, arc});
    events.push({arrive, seq++, Kind::Arrive, l.other(ev.at), ev.idx});
  }

  stats.flowlet_switches = flowlets.switches();
  stats.mean_queue = queue_samples ? queue_sum / static_cast<double>(queue_samples) : 0.0;
  stats.max_queue = queue_peak;
  if (!delays.empty()) {
    util::Distribution dist(std::move(delays));
    stats.mean_delay = dist.mean();
    stats.max_delay = dist.quantile(1.0);
    stats.p99_delay = dist.quantile(0.99);
  }
  std::vector<double> fcts;
  for (std::size_t f = 0; f < flows.size(); ++f)
    if (last_delivery[f] >= 0.0) fcts.push_back(last_delivery[f] - flows[f].start);
  if (!fcts.empty()) {
    util::Distribution dist(std::move(fcts));
    stats.fct_mean = dist.mean();
    stats.fct_p50 = dist.quantile(0.50);
    stats.fct_p99 = dist.quantile(0.99);
    stats.fct_max = dist.quantile(1.0);
  }
  return stats;
}

}  // namespace flattree::sim::oracle

#include "sim/packet_sim.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "te/flowlet.hpp"
#include "util/stats.hpp"

namespace flattree::sim {

namespace {

obs::Counter c_pkt_events("sim.packet.events_processed");
obs::Counter c_pkt_injected("sim.packet.injected");
obs::Counter c_pkt_delivered("sim.packet.delivered");
obs::Counter c_pkt_dropped("sim.packet.dropped");
obs::Histogram h_pkt_delay("sim.packet.delay",
                           obs::Histogram::exponential_bounds(1e-7, 4.0, 16));
obs::Counter c_ecn_marked("sim.ecn.marked");
obs::Counter c_ecn_window_cuts("sim.ecn.window_cuts");
obs::Counter c_flowlet_switches("sim.flowlet.switches");

struct Packet {
  std::uint64_t flow_id = 0;      ///< index into the flow table
  std::uint64_t salt = 0;         ///< flowlet-salted id fed to the FIB hash
  topo::NodeId dst_switch = 0;
  double injected_at = 0.0;
  bool marked = false;            ///< ECN CE bit (set at a hot queue)
  bool dropped = false;
};

/// Event kinds. Drop-tail runs only use Arrive; Credit (delivery or drop
/// feedback to the source) and Inject (window-clocked send) drive DCTCP.
enum class EventKind : std::uint8_t { Arrive, Credit, Inject };

struct Event {
  double time = 0.0;
  std::uint64_t seq = 0;  ///< FIFO tie-break for determinism
  EventKind kind = EventKind::Arrive;
  topo::NodeId at = 0;    ///< switch the packet arrives at (Arrive only)
  std::size_t idx = 0;    ///< packet index (Arrive/Credit) or flow index (Inject)

  bool operator>(const Event& o) const {
    if (time != o.time) return time > o.time;
    return seq > o.seq;
  }
};

/// Per-directed-arc transmit state: when the line frees up and how many
/// packets are waiting or in flight.
struct ArcState {
  double busy_until = 0.0;
  std::size_t queued = 0;
};

/// DCTCP source state, one per flow. alpha starts at 1.0 (react strongly
/// to the first marked window, the conservative standard choice).
struct FlowState {
  std::uint32_t sent = 0;
  std::uint32_t inflight = 0;
  std::uint32_t cwnd = 1;
  std::uint32_t window_size = 1;   ///< cwnd at the start of this window
  std::uint32_t window_acked = 0;
  std::uint32_t window_marked = 0;
  double alpha = 1.0;
  double nic_free = 0.0;
  bool inject_pending = false;     ///< an Inject event is already queued
};

/// Departure bookkeeping: queued counts drain when the head leaves the
/// wire; model it by scheduling the decrement together with the arrival
/// (store-and-forward: the packet occupies the queue until received).
struct Drain {
  double time;
  std::size_t arc;
  bool operator>(const Drain& o) const { return time > o.time; }
};

/// Queue-occupancy sampling (sampled at each arc arrival, before the drop
/// decision).
struct QueueSampler {
  double sum = 0.0;
  double peak = 0.0;
  std::uint64_t samples = 0;

  void sample(std::size_t queued) {
    sum += static_cast<double>(queued);
    peak = std::max(peak, static_cast<double>(queued));
    ++samples;
  }
  void finalize(PacketStats& stats) const {
    stats.mean_queue = samples ? sum / static_cast<double>(samples) : 0.0;
    stats.max_queue = peak;
  }
};

/// Distribution wrap-up: per-packet delay and per-flow completion-time
/// percentiles (all 0.0 when nothing qualifies).
void finalize_distributions(PacketStats& stats, std::vector<double>& delays,
                            const std::vector<PacketFlow>& flows,
                            const std::vector<double>& last_delivery) {
  if (!delays.empty()) {
    util::Distribution dist(std::move(delays));
    stats.mean_delay = dist.mean();
    stats.max_delay = dist.quantile(1.0);
    stats.p99_delay = dist.quantile(0.99);
  }
  std::vector<double> fcts;
  fcts.reserve(flows.size());
  for (std::size_t f = 0; f < flows.size(); ++f)
    if (last_delivery[f] >= 0.0) fcts.push_back(last_delivery[f] - flows[f].start);
  if (!fcts.empty()) {
    util::Distribution dist(std::move(fcts));
    stats.fct_mean = dist.mean();
    stats.fct_p50 = dist.quantile(0.50);
    stats.fct_p99 = dist.quantile(0.99);
    stats.fct_max = dist.quantile(1.0);
  }
}

}  // namespace

PacketSimulator::PacketSimulator(const topo::Topology& topo, const te::WeightedFib& fib,
                                 PacketSimConfig config)
    : topo_(topo), fib_(fib), config_(config) {
  if (config_.packet_size <= 0 || config_.nic_rate <= 0)
    throw std::invalid_argument("PacketSimulator: non-positive packet size or NIC rate");
  if (config_.init_cwnd == 0)
    throw std::invalid_argument("PacketSimulator: init_cwnd must be positive");
}

graph::LinkId PacketSimulator::select(topo::NodeId at, topo::NodeId dst,
                                      std::uint64_t salt) const {
  try {
    return fib_.select(at, dst, salt);
  } catch (const std::runtime_error&) {
    throw std::runtime_error("PacketSimulator: FIB has no route for a flow's pair");
  }
}

PacketStats PacketSimulator::run(const std::vector<PacketFlow>& flows) {
  if (flows.empty()) throw std::invalid_argument("PacketSimulator::run: no flows");
  for (const PacketFlow& flow : flows)
    if (flow.src == flow.dst)
      throw std::invalid_argument("PacketSimulator: src == dst");
  OBS_SPAN("sim.packet.run");

  const std::size_t arcs = topo_.link_count() * 2;
  std::vector<ArcState> arc_state(arcs);
  std::vector<Packet> packets;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  std::priority_queue<Drain, std::vector<Drain>, std::greater<>> drains;
  std::uint64_t seq = 0;

  PacketStats stats;
  std::vector<double> delays;
  std::vector<double> last_delivery(flows.size(), -1.0);
  QueueSampler queues;
  te::FlowletTable flowlets(config_.flowlet_gap);
  std::vector<FlowState> state;
  const double injection_gap = config_.packet_size / config_.nic_rate;

  if (!config_.ecn) {
    // Drop-tail: packets enter their source host switch at NIC pace.
    // Scheduling every arrival up front fixes the seq tie-break order the
    // drop-tail outputs (and BENCH_te.json) are pinned to. Flowlet salts
    // are a per-flow function of the injection times, so they can be
    // assigned during this pre-scheduling pass.
    for (std::size_t f = 0; f < flows.size(); ++f) {
      const PacketFlow& flow = flows[f];
      topo::NodeId dst_switch = topo_.host(flow.dst);
      for (std::uint32_t p = 0; p < flow.packets; ++p) {
        double t = flow.start + static_cast<double>(p) * injection_gap;
        Packet pkt;
        pkt.flow_id = static_cast<std::uint64_t>(f);
        pkt.salt = flowlets.salt(pkt.flow_id, t);
        pkt.dst_switch = dst_switch;
        pkt.injected_at = t;
        packets.push_back(pkt);
        events.push({t, seq++, EventKind::Arrive, topo_.host(flow.src), packets.size() - 1});
        ++stats.injected;
      }
    }
  } else {
    state.resize(flows.size());
    for (std::size_t f = 0; f < flows.size(); ++f) {
      FlowState& fs = state[f];
      fs.cwnd = config_.init_cwnd;
      fs.window_size = fs.cwnd;
      fs.nic_free = flows[f].start;
      fs.inject_pending = true;
      events.push({flows[f].start, seq++, EventKind::Inject, 0, f});
    }
  }

  // Sends one packet of flow f at `now` if the window and NIC allow, then
  // keeps an Inject event queued while more could be sent.
  auto pump = [&](std::size_t f, double now) {
    FlowState& fs = state[f];
    const PacketFlow& flow = flows[f];
    if (fs.sent < flow.packets && fs.inflight < fs.cwnd && fs.nic_free <= now) {
      Packet pkt;
      pkt.flow_id = static_cast<std::uint64_t>(f);
      pkt.salt = flowlets.salt(pkt.flow_id, now);
      pkt.dst_switch = topo_.host(flow.dst);
      pkt.injected_at = now;
      packets.push_back(pkt);
      events.push({now, seq++, EventKind::Arrive, topo_.host(flow.src),
                   packets.size() - 1});
      ++fs.sent;
      ++fs.inflight;
      fs.nic_free = now + injection_gap;
      ++stats.injected;
    }
    if (!fs.inject_pending && fs.sent < flow.packets && fs.inflight < fs.cwnd) {
      fs.inject_pending = true;
      events.push({std::max(now, fs.nic_free), seq++, EventKind::Inject, 0, f});
    }
  };

  // ACK/NACK bookkeeping at the source: the DCTCP loop proper.
  auto credit = [&](std::size_t packet_idx, double now) {
    const Packet& pkt = packets[packet_idx];
    std::size_t f = static_cast<std::size_t>(pkt.flow_id);
    FlowState& fs = state[f];
    --fs.inflight;
    if (pkt.dropped) {
      // Loss: multiplicative decrease and a fresh window (fast-retransmit
      // abstraction; the packet itself is not retransmitted).
      fs.cwnd = std::max(1u, fs.cwnd / 2);
      ++stats.window_cuts;
      fs.window_size = fs.cwnd;
      fs.window_acked = 0;
      fs.window_marked = 0;
    } else {
      ++fs.window_acked;
      if (pkt.marked) ++fs.window_marked;
      if (fs.window_acked >= fs.window_size) {
        double fraction = static_cast<double>(fs.window_marked) /
                          static_cast<double>(fs.window_acked);
        fs.alpha = (1.0 - config_.dctcp_gain) * fs.alpha + config_.dctcp_gain * fraction;
        if (fs.window_marked > 0) {
          fs.cwnd = std::max(
              1u, static_cast<std::uint32_t>(static_cast<double>(fs.cwnd) *
                                             (1.0 - fs.alpha / 2.0)));
          ++stats.window_cuts;
        } else {
          ++fs.cwnd;  // additive increase per clean window
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
    c_pkt_events.inc();
    while (!drains.empty() && drains.top().time <= ev.time) {
      --arc_state[drains.top().arc].queued;
      drains.pop();
    }

    if (ev.kind == EventKind::Inject) {
      state[ev.idx].inject_pending = false;
      pump(ev.idx, ev.time);
      continue;
    }
    if (ev.kind == EventKind::Credit) {
      credit(ev.idx, ev.time);
      continue;
    }

    Packet& pkt = packets[ev.idx];
    if (ev.at == pkt.dst_switch) {
      ++stats.delivered;
      double delay = ev.time - pkt.injected_at;
      c_pkt_delivered.inc();
      h_pkt_delay.observe(delay);
      delays.push_back(delay);
      if (pkt.marked) ++stats.ecn_marked;
      last_delivery[pkt.flow_id] = std::max(last_delivery[pkt.flow_id], ev.time);
      stats.finish_time = std::max(stats.finish_time, ev.time);
      if (config_.ecn)
        events.push({ev.time + config_.ack_delay, seq++, EventKind::Credit, 0, ev.idx});
      continue;
    }

    graph::LinkId link = select(ev.at, pkt.dst_switch, pkt.salt);
    const graph::Link& l = topo_.graph().link(link);
    std::size_t arc = 2 * link + (l.a == ev.at ? 0 : 1);
    ArcState& astate = arc_state[arc];
    queues.sample(astate.queued);

    if (config_.queue_packets != 0 && astate.queued >= config_.queue_packets) {
      ++stats.dropped;
      c_pkt_dropped.inc();
      pkt.dropped = true;
      stats.finish_time = std::max(stats.finish_time, ev.time);
      if (config_.ecn)
        events.push({ev.time + config_.ack_delay, seq++, EventKind::Credit, 0, ev.idx});
      continue;
    }
    if (config_.ecn && astate.queued >= config_.ecn_threshold) pkt.marked = true;
    double service = config_.packet_size / l.capacity;
    double depart = std::max(ev.time, astate.busy_until) + service;
    astate.busy_until = depart;
    ++astate.queued;
    double arrive = depart + config_.propagation_delay;
    drains.push({arrive, arc});
    events.push({arrive, seq++, EventKind::Arrive, l.other(ev.at), ev.idx});
  }

  c_pkt_injected.add(stats.injected);
  c_ecn_marked.add(stats.ecn_marked);
  c_ecn_window_cuts.add(stats.window_cuts);
  stats.flowlet_switches = flowlets.switches();
  c_flowlet_switches.add(stats.flowlet_switches);
  queues.finalize(stats);
  finalize_distributions(stats, delays, flows, last_delivery);
  return stats;
}

}  // namespace flattree::sim

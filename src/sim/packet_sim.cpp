#include "sim/packet_sim.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

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

/// Route index of a packet forwarded by the table (PacketFlow::paths null
/// or empty); any other value indexes the flow's path set.
constexpr std::uint16_t kTableRoute = 0xFFFF;

struct Packet {
  std::uint64_t flow_id = 0;      ///< index into the flow table
  std::uint64_t salt = 0;         ///< flowlet-salted id fed to the FIB hash
  topo::NodeId dst_switch = 0;
  topo::NodeId at = 0;            ///< switch its next Arrive reaches
  double injected_at = 0.0;
  std::uint16_t route = kTableRoute;  ///< path in the flow's set, or the table
  std::uint16_t hop = 0;          ///< links of the route already taken
  bool marked = false;            ///< ECN CE bit (set at a hot queue)
  bool dropped = false;
};
static_assert(sizeof(Packet) == 40, "route and hop live in Packet's padding");

/// The route of packet `i` of `flow`: path i mod |set|, or the table.
std::uint16_t route_of(const PacketFlow& flow, std::uint32_t i) {
  if (flow.paths == nullptr || flow.paths->empty()) return kTableRoute;
  return static_cast<std::uint16_t>(i % flow.paths->size());
}

/// Refuses a routed flow whose paths the hop-by-hop walk cannot follow:
/// every path must run host(src)..host(dst) over links joining its
/// consecutive nodes and reach host(dst) only at its end (delivery is
/// detected by arrival there), within the u16 route and hop counters.
void check_routes(const topo::Topology& topo, const PacketFlow& flow) {
  if (flow.paths == nullptr) return;
  auto refuse = [](const char* what) {
    throw std::invalid_argument(std::string("PacketSimulator: routed flow ") + what);
  };
  if (flow.paths->size() > kTableRoute) refuse("has more than 65,535 paths");
  const topo::NodeId src = topo.host(flow.src);
  const topo::NodeId dst = topo.host(flow.dst);
  for (const graph::Path& path : *flow.paths) {
    if (path.links.size() > std::numeric_limits<std::uint16_t>::max())
      refuse("has a path of more than 65,535 hops");
    if (path.nodes.empty() || path.nodes.front() != src)
      refuse("has a path that does not start at host(src)");
    if (path.nodes.back() != dst) refuse("has a path that does not end at host(dst)");
    if (path.links.size() + 1 != path.nodes.size())
      refuse("has a link that does not join consecutive nodes");
    for (std::size_t i = 0; i < path.links.size(); ++i) {
      if (path.nodes[i] == dst) refuse("has a path that reaches host(dst) before its end");
      if (path.links[i] >= topo.link_count())
        refuse("has a link that does not join consecutive nodes");
      const graph::Link& l = topo.graph().link(path.links[i]);
      const topo::NodeId a = path.nodes[i], b = path.nodes[i + 1];
      if (!((l.a == a && l.b == b) || (l.a == b && l.b == a)))
        refuse("has a link that does not join consecutive nodes");
    }
  }
}

/// Event kinds. Inject is a flow's next send: under drop-tail the next
/// NIC-paced packet entering its source switch, under DCTCP a
/// window-clocked pump. Arrive moves a packet one hop; Credit (delivery or
/// drop feedback to the source) drives DCTCP only.
enum class EventKind : std::uint8_t { Arrive, Credit, Inject };

struct Event {
  double time = 0.0;
  std::uint64_t seq = 0;  ///< FIFO tie-break for determinism
  std::uint32_t idx = 0;  ///< packet index (Arrive/Credit) or flow index (Inject)
  EventKind kind = EventKind::Arrive;
  std::uint64_t key = 0;  ///< `time` as an order-preserving integer (EventHeap)
};

/// The event queue: a binary min-heap on (time, seq). Times compare as
/// integers whose order is the doubles' order (-0.0 ties +0.0, as `<` on
/// doubles has it), so (key, seq) is one 128-bit compare, and pop() walks
/// the hole to a leaf with a branch-free child pick before sifting the last
/// element back up. Every seq is distinct, so the pop order is the unique
/// (time, seq) order and does not depend on the heap's layout.
class EventHeap {
 public:
  bool empty() const { return heap_.empty(); }

  void push(Event item) {
    item.key = order_key(item.time);
    std::size_t i = heap_.size();
    heap_.emplace_back();
    while (i > 0) {
      std::size_t p = (i - 1) / 2;
      if (!before(item, heap_[p])) break;
      heap_[i] = heap_[p];
      i = p;
    }
    heap_[i] = item;
  }

  Event pop() {
    const Event top = heap_[0];
    const Event last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) return top;
    std::size_t i = 0, c;
    while ((c = 2 * i + 2) < n) {
      c -= before(heap_[c - 1], heap_[c]);
      heap_[i] = heap_[c];
      i = c;
    }
    if (c == n) {
      heap_[i] = heap_[c - 1];
      i = c - 1;
    }
    while (i > 0) {
      std::size_t p = (i - 1) / 2;
      if (!before(last, heap_[p])) break;
      heap_[i] = heap_[p];
      i = p;
    }
    heap_[i] = last;
    return top;
  }

 private:
  static std::uint64_t order_key(double t) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(t + 0.0);  // -0.0 -> +0.0
    return (bits >> 63) ? ~bits : bits | (std::uint64_t{1} << 63);
  }
  static bool before(const Event& a, const Event& b) {
    const unsigned __int128 ka = (static_cast<unsigned __int128>(a.key) << 64) | a.seq;
    const unsigned __int128 kb = (static_cast<unsigned __int128>(b.key) << 64) | b.seq;
    return ka < kb;
  }

  std::vector<Event> heap_;
};

/// Per-directed-arc transmit state: when the line frees up, and the
/// arrival times at the far end of the packets that are waiting or in
/// flight on the arc (store-and-forward: a packet occupies the queue until
/// received). Departures on an arc are FIFO, so these times only increase:
/// they sit in a ring, oldest first, and retire from the front once due.
struct ArcState {
  double busy_until = 0.0;
  std::vector<double> ring;  ///< capacity 0 or a power of two
  std::size_t head = 0;
  std::size_t count = 0;

  /// Occupancy at `now`: every arrival due at or before `now` has left.
  std::size_t queued(double now) {
    while (count != 0 && ring[head] <= now) {
      head = (head + 1) & (ring.size() - 1);
      --count;
    }
    return count;
  }

  void push(double arrive) {
    if (count == ring.size()) {
      std::vector<double> grown(std::max<std::size_t>(8, 2 * ring.size()));
      for (std::size_t i = 0; i < count; ++i)
        grown[i] = ring[(head + i) & (ring.size() - 1)];
      ring.swap(grown);
      head = 0;
    }
    ring[(head + count) & (ring.size() - 1)] = arrive;
    ++count;
  }
};

/// Source state, one per flow; drop-tail uses only `sent` and
/// `first_packet`. DCTCP's alpha starts at 1.0 (react strongly to the
/// first marked window, the conservative standard choice).
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
  std::size_t first_packet = 0;    ///< drop-tail: index and seq of packet 0
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
  auto require = [](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(std::string("PacketSimulator: ") + what);
  };
  require(std::isfinite(config_.nic_rate) && config_.nic_rate > 0,
          "nic_rate must be finite and positive");
  require(std::isfinite(config_.propagation_delay) && config_.propagation_delay >= 0,
          "propagation_delay must be finite and non-negative");
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
  std::uint64_t total_packets = 0;
  for (const PacketFlow& flow : flows) {
    if (flow.src == flow.dst)
      throw std::invalid_argument("PacketSimulator: src == dst");
    if (!std::isfinite(flow.start))
      throw std::invalid_argument("PacketSimulator: flow start must be finite");
    check_routes(topo_, flow);
    total_packets += flow.packets;
  }
  // Events carry 32-bit packet and flow indices.
  constexpr std::uint64_t kMaxIndex = std::numeric_limits<std::uint32_t>::max();
  if (flows.size() > kMaxIndex || total_packets > kMaxIndex)
    throw std::invalid_argument("PacketSimulator: more than 2^32 - 1 flows or packets");
  OBS_SPAN("sim.packet.run");

  std::vector<ArcState> arc_state(topo_.link_count() * 2);
  std::vector<Packet> packets;
  packets.reserve(total_packets);  // every packet is sent, under either discipline
  EventHeap events;
  std::uint64_t seq = 0;

  PacketStats stats;
  std::vector<double> delays;
  std::vector<double> last_delivery(flows.size(), -1.0);
  QueueSampler queues;
  te::FlowletTable flowlets(config_.flowlet_gap);
  std::vector<FlowState> state(flows.size());
  const double injection_gap = 1.0 / config_.nic_rate;

  if (!config_.ecn) {
    // Drop-tail: packets enter their source host switch at NIC pace, and
    // packet p of flow f carries seq first_packet(f) + p, the flow-major
    // numbering the drop-tail outputs (and BENCH_te.json) are pinned to.
    // Only each flow's next packet waits in the heap, as an Inject event
    // under that seq; a flow's later packets are later in (time, seq), so
    // the pop order is the one of scheduling every packet up front.
    // Flowlet salts of table flows are a per-flow function of the
    // injection times and are assigned in this pass, in the same
    // flow-major order.
    for (std::size_t f = 0; f < flows.size(); ++f) {
      const PacketFlow& flow = flows[f];
      const topo::NodeId src_switch = topo_.host(flow.src);
      const topo::NodeId dst_switch = topo_.host(flow.dst);
      state[f].first_packet = packets.size();
      for (std::uint32_t p = 0; p < flow.packets; ++p) {
        double t = flow.start + static_cast<double>(p) * injection_gap;
        Packet pkt;
        pkt.flow_id = static_cast<std::uint64_t>(f);
        pkt.route = route_of(flow, p);
        if (pkt.route == kTableRoute) pkt.salt = flowlets.salt(pkt.flow_id, t);
        pkt.dst_switch = dst_switch;
        pkt.at = src_switch;
        pkt.injected_at = t;
        packets.push_back(pkt);
      }
      if (flow.packets != 0) {
        const std::size_t first = state[f].first_packet;
        events.push({packets[first].injected_at, first, static_cast<std::uint32_t>(f),
                     EventKind::Inject});
      }
    }
    stats.injected = packets.size();
    seq = packets.size();
  } else {
    for (std::size_t f = 0; f < flows.size(); ++f) {
      FlowState& fs = state[f];
      fs.cwnd = kInitCwnd;
      fs.window_size = fs.cwnd;
      fs.nic_free = flows[f].start;
      fs.inject_pending = true;
      events.push({flows[f].start, seq++, static_cast<std::uint32_t>(f), EventKind::Inject});
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
      pkt.route = route_of(flow, fs.sent);
      if (pkt.route == kTableRoute) pkt.salt = flowlets.salt(pkt.flow_id, now);
      pkt.dst_switch = topo_.host(flow.dst);
      pkt.at = topo_.host(flow.src);
      pkt.injected_at = now;
      packets.push_back(pkt);
      events.push({now, seq++, static_cast<std::uint32_t>(packets.size() - 1),
                   EventKind::Arrive});
      ++fs.sent;
      ++fs.inflight;
      fs.nic_free = now + injection_gap;
      ++stats.injected;
    }
    if (!fs.inject_pending && fs.sent < flow.packets && fs.inflight < fs.cwnd) {
      fs.inject_pending = true;
      events.push({std::max(now, fs.nic_free), seq++, static_cast<std::uint32_t>(f),
                   EventKind::Inject});
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
        fs.alpha = (1.0 - kDctcpGain) * fs.alpha + kDctcpGain * fraction;
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
    Event ev = events.pop();
    c_pkt_events.inc();

    if (ev.kind == EventKind::Inject) {
      const std::size_t f = ev.idx;
      if (config_.ecn) {
        state[f].inject_pending = false;
        pump(f, ev.time);
        continue;
      }
      // Drop-tail: queue the flow's next packet, then this one arrives at
      // its source switch.
      FlowState& fs = state[f];
      ev.idx = static_cast<std::uint32_t>(fs.first_packet + fs.sent);
      if (++fs.sent < flows[f].packets) {
        const std::size_t next = ev.idx + 1;
        events.push({packets[next].injected_at, next, static_cast<std::uint32_t>(f),
                     EventKind::Inject});
      }
    } else if (ev.kind == EventKind::Credit) {
      credit(ev.idx, ev.time);
      continue;
    }

    Packet& pkt = packets[ev.idx];
    if (pkt.at == pkt.dst_switch) {
      ++stats.delivered;
      double delay = ev.time - pkt.injected_at;
      c_pkt_delivered.inc();
      h_pkt_delay.observe(delay);
      delays.push_back(delay);
      if (pkt.marked) ++stats.ecn_marked;
      last_delivery[pkt.flow_id] = std::max(last_delivery[pkt.flow_id], ev.time);
      stats.finish_time = std::max(stats.finish_time, ev.time);
      if (config_.ecn)
        events.push({ev.time, seq++, ev.idx, EventKind::Credit});
      continue;
    }

    const graph::LinkId link =
        pkt.route == kTableRoute ? select(pkt.at, pkt.dst_switch, pkt.salt)
                                 : (*flows[pkt.flow_id].paths)[pkt.route].links[pkt.hop++];
    const graph::Link& l = topo_.graph().link(link);
    std::size_t arc = 2 * link + (l.a == pkt.at ? 0 : 1);
    ArcState& astate = arc_state[arc];
    const std::size_t queued = astate.queued(ev.time);
    queues.sample(queued);

    if (config_.queue_packets != 0 && queued >= config_.queue_packets) {
      ++stats.dropped;
      c_pkt_dropped.inc();
      pkt.dropped = true;
      stats.finish_time = std::max(stats.finish_time, ev.time);
      if (config_.ecn)
        events.push({ev.time, seq++, ev.idx, EventKind::Credit});
      continue;
    }
    if (config_.ecn && queued >= config_.ecn_threshold) pkt.marked = true;
    double service = 1.0 / l.capacity;
    double depart = std::max(ev.time, astate.busy_until) + service;
    astate.busy_until = depart;
    double arrive = depart + config_.propagation_delay;
    astate.push(arrive);
    pkt.at = l.other(pkt.at);
    events.push({arrive, seq++, ev.idx, EventKind::Arrive});
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

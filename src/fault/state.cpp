#include "fault/state.hpp"

#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"

namespace flattree::fault {

namespace {

// Apply/unapply conservation mirror: after a fully-unwound trace each
// .down counter equals its .up partner (check_conserved proves the same
// from FaultState's own tallies when observability is off).
obs::Counter c_apply_link("fault.apply.link_down");
obs::Counter c_unapply_link("fault.unapply.link_up");
obs::Counter c_apply_switch("fault.apply.switch_down");
obs::Counter c_unapply_switch("fault.unapply.switch_up");
obs::Counter c_apply_stuck("fault.apply.converter_stuck");
obs::Counter c_unapply_stuck("fault.unapply.converter_freed");

}  // namespace

FaultState::FaultState(std::size_t switch_count, std::size_t converter_count)
    : switch_down_(switch_count, 0), stuck_(converter_count, 0) {}

bool FaultState::pair_down(NodeId a, NodeId b) const {
  auto it = pair_down_.find(pair_key(a, b));
  return it != pair_down_.end() && it->second > 0;
}

bool FaultState::apply(const FaultEvent& e) {
  auto bad = [&](const char* why) {
    throw std::invalid_argument(std::string("FaultState::apply: ") + why + " (" +
                                to_string(e.kind) + " " + std::to_string(e.a) + " " +
                                std::to_string(e.b) + ")");
  };
  tally_[static_cast<std::size_t>(e.kind)] += 1;
  switch (e.kind) {
    case FaultKind::LinkDown: {
      if (e.a >= switch_down_.size() || e.b >= switch_down_.size())
        bad("endpoint out of range");
      c_apply_link.inc();
      std::uint32_t& count = pair_down_[pair_key(e.a, e.b)];
      if (++count == 1) {
        ++down_pairs_;
        return true;
      }
      return false;
    }
    case FaultKind::LinkUp: {
      if (e.a >= switch_down_.size() || e.b >= switch_down_.size())
        bad("endpoint out of range");
      auto it = pair_down_.find(pair_key(e.a, e.b));
      if (it == pair_down_.end() || it->second == 0) bad("unmatched link repair");
      c_unapply_link.inc();
      if (--it->second == 0) {
        --down_pairs_;
        return true;
      }
      return false;
    }
    case FaultKind::SwitchDown: {
      if (e.a >= switch_down_.size()) bad("switch out of range");
      c_apply_switch.inc();
      if (++switch_down_[e.a] == 1) {
        ++down_switches_;
        return true;
      }
      return false;
    }
    case FaultKind::SwitchUp: {
      if (e.a >= switch_down_.size()) bad("switch out of range");
      if (switch_down_[e.a] == 0) bad("unmatched switch repair");
      c_unapply_switch.inc();
      if (--switch_down_[e.a] == 0) {
        --down_switches_;
        return true;
      }
      return false;
    }
    case FaultKind::ConverterStuck: {
      if (e.a >= stuck_.size()) bad("converter out of range");
      c_apply_stuck.inc();
      if (++stuck_[e.a] == 1) {
        ++stuck_converters_;
        return true;
      }
      return false;
    }
    case FaultKind::ConverterFreed: {
      if (e.a >= stuck_.size()) bad("converter out of range");
      if (stuck_[e.a] == 0) bad("unmatched converter repair");
      c_unapply_stuck.inc();
      if (--stuck_[e.a] == 0) {
        --stuck_converters_;
        return true;
      }
      return false;
    }
  }
  bad("unknown kind");
  return false;
}

}  // namespace flattree::fault

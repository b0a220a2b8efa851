#pragma once
// Umbrella header for src/fault: deterministic fault injection and the
// online resilient control plane.
//
//   event.hpp                timed fault/repair event vocabulary
//   scenario.hpp             seeded trace generation + text save/replay
//   state.hpp                live down-count bookkeeping (FaultState)
//   degrade.hpp              degraded topologies and their largest component
//   resilient_controller.hpp mid-reconfiguration fault handling
//   fault_check.hpp          degraded-validity + conservation validators

#include "fault/degrade.hpp"
#include "fault/event.hpp"
#include "fault/fault_check.hpp"
#include "fault/resilient_controller.hpp"
#include "fault/scenario.hpp"
#include "fault/state.hpp"

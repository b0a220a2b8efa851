#pragma once
// Umbrella header for the conversion-plan design search (src/design).
//
//   design::Candidate          zone layout + per-zone mode, canonical text encoding
//   design::WorkloadMix        declared traffic mix, affinity-placed demands
//   design::score_layout       the one scorer (validate, APL, GK, certify)
//   design::search             deterministic annealing over the move set
//
// See docs/design_search.md (mirrored as DESIGN.md section 12) for the
// objective definition, the move set, the annealing schedule, the
// determinism contract, and the certification story.

#include "design/candidate.hpp"
#include "design/objective.hpp"
#include "design/search.hpp"

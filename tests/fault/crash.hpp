#pragma once
// Deterministic crash-injection plans for the durability tests. A
// CrashPlan is a sorted list of *cut points* — byte lengths at which a
// durable write stream (the svc journal) is severed, simulating a crash
// that left only that prefix on disk. The crash-matrix tests drive one recovery per cut:
// truncate the journal to `cut` bytes, recover from snapshot + journal,
// resume the remaining request stream, and byte-compare every response
// against the uninterrupted run.
//
// The two generators mirror the failure modes that matter for a framed
// log: crash_after_each_frame() cuts exactly at frame boundaries (clean
// tears — the recovered journal needs no truncation), and
// crash_every_byte() cuts at every byte of a range (torn tails — every
// possible partial final frame). sample_cuts() deterministically
// subsamples a large plan via util::Rng::substream so sanitizer builds
// can run a representative matrix at fixed cost.

#include <cstdint>
#include <vector>

namespace flattree::fault {

/// A deterministic set of crash cut points, as byte lengths of the
/// surviving prefix. Always sorted ascending with no duplicates.
struct CrashPlan {
  std::vector<std::uint64_t> cuts;
};

/// Cuts after each frame boundary: `boundaries` are byte offsets one past
/// each written frame (duplicates and unsorted input are normalized).
CrashPlan crash_after_each_frame(const std::vector<std::uint64_t>& boundaries);

/// Cuts at every byte length in [begin, end] inclusive — the exhaustive
/// torn-tail sweep over one frame's bytes.
CrashPlan crash_every_byte(std::uint64_t begin, std::uint64_t end);

/// Sorted-unique union of two plans.
CrashPlan merge_plans(const CrashPlan& a, const CrashPlan& b);

/// Deterministically subsamples `plan` down to at most `max_cuts` cuts
/// using util::Rng::substream(seed, i) draws — the same cuts at any
/// thread count or call order. The first and last cut are always kept.
CrashPlan sample_cuts(const CrashPlan& plan, std::size_t max_cuts,
                      std::uint64_t seed);

}  // namespace flattree::fault

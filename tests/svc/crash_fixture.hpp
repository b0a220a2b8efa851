#pragma once
// The crash-matrix session shared by the durable tests: the script and
// its uninterrupted reference run, whose journal the crash matrix severs
// and whose journal and last snapshot seed the durable mutation test.

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "svc/service.hpp"

namespace flattree::svc {

/// The session under test: two shards, faults, a staged conversion,
/// deadlined queries, and two rejected lines (gap frames in the journal).
inline std::string crash_script() {
  return R"({"op":"hello","id":1}
{"op":"build","k":4}
{"op":"traffic","cluster":8,"pattern":"broadcast","placement":"none","seed":7}
{"op":"fault","events":[{"t":1,"kind":"switch_down","a":0}],"advance":2}
{"op":"query","id":"q1"}
this line is not json
{"op":"query","id":"q2","deadline_ms":0.01}
{"op":"build","k":4,"session":1}
{"op":"query","session":1,"lambda":false}
{"op":"convert","target":"global","advance":0}
{"op":"convert","advance":1000000}
{"op":"fault","events":[{"t":2,"kind":"switch_up","a":0}]}
{"op":"frobnicate"}
{"op":"query","id":"q3"}
{"op":"stats"}
)";
}

/// Small batches, so the journal has many commit points to cut at.
inline ServiceOptions crash_options() {
  ServiceOptions opt;
  opt.max_batch = 2;
  return opt;
}

/// One uninterrupted reference run with periodic snapshots. Each captured
/// snapshot is paired with the journal size at the moment it was written,
/// so a cut knows which snapshot file would have been on disk.
struct Reference {
  std::string responses;
  std::string journal;
  std::vector<std::pair<std::uint64_t, std::string>> snapshots;
};

inline Reference run_reference() {
  Reference ref;
  std::ostringstream journal;
  ServiceOptions opt = crash_options();
  opt.journal = &journal;
  opt.snapshot_every = 2;
  opt.snapshot_sink = [&](const std::string& bytes) {
    ref.snapshots.emplace_back(journal.str().size(), bytes);
  };
  Service service(opt);
  std::istringstream in(crash_script());
  std::ostringstream out;
  service.run(in, out);
  ref.responses = out.str();
  ref.journal = journal.str();
  return ref;
}

}  // namespace flattree::svc

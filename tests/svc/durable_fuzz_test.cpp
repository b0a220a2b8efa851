// Deterministic mutation test for the two durable readers, journal v2
// (read_journal) and snapshot v1 (decode_snapshot). The seeds are the
// crash matrix's reference journal and its last periodic snapshot. Each
// mutant applies one mutator of tests/fuzz/mutator.hpp: a bit flip, a
// truncation, a line spliced elsewhere or duplicated, a '0' inserted at
// the start of a digit run, or a digit appended to a digit run. Positions
// come from Rng::substream, so every run tests the same kMutants mutants
// per format. Half the snapshot mutants re-seal the `end` CRC, so the line
// parsers behind the trailer see them too. Every mutant must be either
// refused with a code from the durability error table (docs/durability.md)
// or accepted as a fixpoint: a journal's committed prefix re-writes
// through JournalWriter byte for byte, and a snapshot re-encodes byte for
// byte.

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "crash_fixture.hpp"
#include "fuzz/mutator.hpp"
#include "svc/durable/journal.hpp"
#include "svc/durable/snapshot.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace flattree::svc::durable {
namespace {

constexpr std::uint64_t kMutants = 2000;
constexpr std::uint64_t kJournalSeed = 0x6a6f75726e616cULL;
constexpr std::uint64_t kSnapshotSeed = 0x736e617073686fULL;

using fuzz::expect_every_mutator_refused_something;
using fuzz::kMutators;
using fuzz::kTruncate;
using fuzz::mutate;
using fuzz::Mutator;
using fuzz::Outcomes;

/// Recomputes a snapshot's `end` trailer CRC over whatever now lies between
/// the header line and the last `end `; leaves bytes without both alone.
std::string reseal(const std::string& bytes) {
  const std::size_t begin = bytes.find('\n');
  const std::size_t end_at = bytes.rfind("end ");
  if (begin == std::string::npos || end_at == std::string::npos || end_at <= begin)
    return bytes;
  const std::string payload = bytes.substr(begin + 1, end_at - begin - 1);
  return bytes.substr(0, end_at) + "end " + util::crc32_hex(util::crc32(payload)) + "\n";
}

TEST(DurableFuzz, JournalMutantsAreRefusedOrFixpoints) {
  const std::string seed = run_reference().journal;
  ASSERT_FALSE(seed.empty());
  const std::set<std::string> codes = {"svc.journal.bad_header",
                                       "svc.journal.corrupt_record",
                                       "svc.journal.corrupt_gap",
                                       "svc.journal.corrupt_commit"};
  Outcomes o;
  for (std::uint64_t i = 0; i < kMutants; ++i) {
    util::Rng rng = util::Rng::substream(kJournalSeed, i);
    const auto m = static_cast<Mutator>(i % kMutators);
    const std::string mutant = mutate(seed, m, rng);
    JournalContents c;
    JournalError err;
    if (!read_journal(mutant, c, err)) {
      ++o.refused[m];
      EXPECT_EQ(codes.count(err.code), 1u) << "mutant " << i << ": " << err.code;
      continue;
    }
    ++o.accepted[m];
    ASSERT_EQ(c.committed_bytes + c.truncated_bytes, mutant.size()) << "mutant " << i;
    // A durable prefix holds at least the header, which the writer emits.
    std::ostringstream rewritten;
    if (c.committed_bytes > 0) {
      JournalWriter w(rewritten);
      for (const JournalGroup& g : c.groups) {
        for (const JournalEntry& e : g.entries) {
          if (e.is_record)
            w.append_record(e.seq, e.canonical);
          else
            w.append_gap(e.seq, e.gap_class);
        }
        w.add_tally(g.tally);
        w.commit();
      }
    }
    EXPECT_TRUE(rewritten.str() == mutant.substr(0, c.committed_bytes))
        << "mutant " << i << " (mutator " << m << ") is accepted but not a fixpoint";
  }
  // A truncated journal is a torn tail, never corruption.
  EXPECT_EQ(o.refused[kTruncate], 0u);
  expect_every_mutator_refused_something(o, /*truncation_refuses=*/false);
}

TEST(DurableFuzz, SnapshotMutantsAreRefusedOrFixpoints) {
  const Reference ref = run_reference();
  ASSERT_FALSE(ref.snapshots.empty());
  const std::string seed = ref.snapshots.back().second;
  const std::set<std::string> codes = {"svc.snapshot.bad_header", "svc.snapshot.truncated",
                                       "svc.snapshot.corrupt", "svc.snapshot.bad_record"};
  Outcomes o;
  for (std::uint64_t i = 0; i < kMutants; ++i) {
    util::Rng rng = util::Rng::substream(kSnapshotSeed, i);
    const auto m = static_cast<Mutator>(i % kMutators);
    std::string mutant = mutate(seed, m, rng);
    if ((i / kMutators) % 2 == 0) mutant = reseal(mutant);
    ServiceSnapshot d;
    SnapshotError err;
    if (!decode_snapshot(mutant, d, err)) {
      ++o.refused[m];
      EXPECT_EQ(codes.count(err.code), 1u) << "mutant " << i << ": " << err.code;
      continue;
    }
    ++o.accepted[m];
    EXPECT_TRUE(encode_snapshot(d) == mutant)
        << "mutant " << i << " (mutator " << m << ") is accepted but not a fixpoint";
  }
  expect_every_mutator_refused_something(o, /*truncation_refuses=*/true);
}

}  // namespace
}  // namespace flattree::svc::durable

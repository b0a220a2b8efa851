// Deterministic mutation test for the two durable readers, journal v2
// (read_journal) and snapshot v1 (decode_snapshot). The seeds are the
// crash matrix's reference journal and its last periodic snapshot. Each
// mutant applies one mutator: a bit flip, a truncation, a line spliced
// elsewhere or duplicated, a '0' inserted at the start of a digit run, or
// a digit appended to a digit run. Positions come from Rng::substream, so
// every run tests the same kMutants mutants per format. Half the snapshot
// mutants re-seal the `end` CRC, so the line parsers behind the trailer see
// them too. Every mutant must be either refused with a code from the
// durability error table (docs/durability.md) or accepted as a fixpoint:
// a journal's committed prefix re-writes through JournalWriter byte for
// byte, and a snapshot re-encodes byte for byte.

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "crash_fixture.hpp"
#include "svc/durable/journal.hpp"
#include "svc/durable/snapshot.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace flattree::svc::durable {
namespace {

constexpr std::uint64_t kMutants = 2000;
constexpr std::uint64_t kJournalSeed = 0x6a6f75726e616cULL;
constexpr std::uint64_t kSnapshotSeed = 0x736e617073686fULL;

enum Mutator { kBitFlip, kTruncate, kSplice, kDuplicate, kZeroPrefix, kDigitExtend, kMutators };

/// Splits into lines, each keeping its '\n' (a final unterminated segment
/// is kept as is), so joining them gives the input back.
std::vector<std::string> split_lines(const std::string& s) {
  std::vector<std::string> lines;
  for (std::size_t pos = 0; pos < s.size();) {
    std::size_t nl = s.find('\n', pos);
    std::size_t end = nl == std::string::npos ? s.size() : nl + 1;
    lines.push_back(s.substr(pos, end - pos));
    pos = end;
  }
  return lines;
}

/// One mutant of `seed`; `rng` picks every position.
std::string mutate(const std::string& seed, Mutator m, util::Rng& rng) {
  std::string s = seed;
  switch (m) {
    case kBitFlip: {
      std::size_t at = rng.index(s.size());
      s[at] = static_cast<char>(s[at] ^ (1 << rng.below(8)));
      break;
    }
    case kTruncate:
      s.resize(rng.index(s.size()));
      break;
    case kSplice:
    case kDuplicate: {
      std::vector<std::string> lines = split_lines(s);
      std::size_t from = rng.index(lines.size());
      std::string line = lines[from];
      if (m == kSplice) lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(from));
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(rng.index(lines.size() + 1)),
                   line);
      s.clear();
      for (const std::string& l : lines) s += l;
      break;
    }
    case kZeroPrefix:
    case kDigitExtend: {
      std::vector<std::pair<std::size_t, std::size_t>> runs;  // [begin, end)
      for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] < '0' || s[i] > '9') continue;
        std::size_t j = i;
        while (j < s.size() && s[j] >= '0' && s[j] <= '9') ++j;
        runs.emplace_back(i, j);
        i = j;
      }
      const auto [begin, end] = runs[rng.index(runs.size())];
      if (m == kZeroPrefix)
        s.insert(begin, 1, '0');
      else
        s.insert(end, 1, static_cast<char>('0' + rng.below(10)));
      break;
    }
    case kMutators:
      break;
  }
  return s;
}

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

/// Per-mutator tallies, so the test also proves every mutator bites.
struct Outcomes {
  std::array<std::uint64_t, kMutators> refused{};
  std::array<std::uint64_t, kMutators> accepted{};
};

void expect_every_mutator_refused_something(const Outcomes& o, bool truncation_refuses) {
  for (int m = 0; m < kMutators; ++m) {
    if (m == kTruncate && !truncation_refuses) continue;
    EXPECT_GT(o.refused[m], 0u) << "mutator " << m << " never refused";
  }
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

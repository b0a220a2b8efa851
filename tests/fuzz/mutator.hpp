#pragma once
// Byte-level mutators shared by the deterministic fuzz tests of the repo's
// text formats (durable journal/snapshot, fault scenarios, design
// candidates): a bit flip, a truncation, a line spliced elsewhere or
// duplicated, a '0' inserted at the start of a digit run, or a digit
// appended to a digit run. Every position comes from the caller's Rng, so
// a test that draws it from Rng::substream(seed, i) replays the same
// mutants on every run.

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace flattree::fuzz {

enum Mutator { kBitFlip, kTruncate, kSplice, kDuplicate, kZeroPrefix, kDigitExtend, kMutators };

/// Splits into lines, each keeping its '\n' (a final unterminated segment
/// is kept as is), so joining them gives the input back.
inline std::vector<std::string> split_lines(const std::string& s) {
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
inline std::string mutate(const std::string& seed, Mutator m, util::Rng& rng) {
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

/// Per-mutator tallies, so the test also proves every mutator bites.
struct Outcomes {
  std::array<std::uint64_t, kMutators> refused{};
  std::array<std::uint64_t, kMutators> accepted{};
};

/// Every mutator must have been refused at least once (truncation only when
/// the format cannot read a prefix as valid).
inline void expect_every_mutator_refused_something(const Outcomes& o,
                                                   bool truncation_refuses) {
  for (int m = 0; m < kMutators; ++m) {
    if (m == kTruncate && !truncation_refuses) continue;
    EXPECT_GT(o.refused[m], 0u) << "mutator " << m << " never refused";
  }
}

}  // namespace flattree::fuzz

#ifndef SST_TESTS_TEST_UTIL_H_
#define SST_TESTS_TEST_UTIL_H_

#include <functional>
#include <vector>

#include "automata/dfa.h"
#include "automata/minimize.h"
#include "automata/random_dfa.h"
#include "base/rng.h"
#include "classes/syntactic_classes.h"
#include "dra/stream_error.h"
#include "dra/streaming.h"
#include "trees/generators.h"
#include "trees/tree.h"

namespace sst::testing {

// Collects up to `want` minimal DFAs satisfying `predicate`, drawing from a
// mix of generators (uniform, permutation, R-trivial, finite) so the sample
// covers all syntactic classes reasonably often.
inline std::vector<Dfa> SampleLanguages(
    int want, int num_symbols, const std::function<bool(const Dfa&)>& predicate,
    Rng* rng, int max_attempts = 4000) {
  std::vector<Dfa> result;
  for (int attempt = 0; attempt < max_attempts &&
                        static_cast<int>(result.size()) < want;
       ++attempt) {
    Dfa candidate;
    switch (attempt % 4) {
      case 0:
        candidate = RandomDfa(2 + attempt % 7, num_symbols, 0.4, rng);
        break;
      case 1:
        candidate = RandomPermutationDfa(2 + attempt % 5, num_symbols, 0.5,
                                         rng);
        break;
      case 2:
        candidate = RandomRTrivialDfa(3 + attempt % 6, num_symbols, 0.4, rng);
        break;
      default:
        candidate = RandomFiniteLanguageDfa(2 + attempt % 4, num_symbols, 0.5,
                                            rng);
        break;
    }
    Dfa minimal = Minimize(candidate);
    if (minimal.num_states >= 2 && predicate(minimal)) {
      result.push_back(std::move(minimal));
    }
  }
  return result;
}

// A batch of random trees with mixed shapes for cross-validation runs.
inline std::vector<Tree> SampleTrees(int count, int num_symbols, Rng* rng) {
  std::vector<Tree> trees;
  trees.reserve(count);
  for (int i = 0; i < count; ++i) {
    int nodes = 1 + static_cast<int>(rng->NextBelow(40));
    trees.push_back(RandomTree(nodes, num_symbols, rng->NextDouble(), rng));
  }
  return trees;
}

// Every StreamStats field, in declaration order, for whole-record
// comparison of two runs.
inline std::vector<int64_t> StatsFields(const StreamStats& s) {
  return {s.bytes_fed,          s.chunks_fed,           s.events,
          s.max_depth,          s.matches,              s.errors_recovered,
          s.subtrees_skipped,   s.error_offset,         s.matches_emitted,
          s.pending_matches_peak, s.max_stack_depth,    s.underflow_closes};
}

// StreamLimits sweep of the reference-validator differentials: no limits,
// one tight guard at a time, then all three at once. Each guard is small
// enough to fire on some SampleTrees documents (1-40 nodes) and large
// enough to pass others.
inline std::vector<StreamLimits> LimitSweep() {
  StreamLimits depth;
  depth.max_depth = 3;
  StreamLimits events;
  events.max_events = 24;
  StreamLimits bytes;
  bytes.max_document_bytes = 32;
  StreamLimits all = depth;
  all.max_events = events.max_events;
  all.max_document_bytes = bytes.max_document_bytes;
  return {StreamLimits{}, depth, events, bytes, all};
}

}  // namespace sst::testing

#endif  // SST_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include "automata/alphabet.h"
#include "automata/minimize.h"
#include "base/match_sink.h"
#include "base/rng.h"
#include "dra/machine.h"
#include "dra/tag_dfa.h"
#include "dra/byte_runner.h"
#include "dra/streaming.h"
#include "eval/registerless_query.h"
#include "eval/stack_evaluator.h"
#include "test_util.h"
#include "trees/encoding.h"
#include "trees/ground_truth.h"

namespace sst {
namespace {

TEST(ByteRunner, MatchesEventLevelMachine) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Dfa dfa = CompileRegex("a.*b", alphabet);
  TagDfa evaluator = BuildRegisterlessQueryAutomaton(dfa, /*blind=*/false);
  ByteTagDfaRunner byte_runner(evaluator);
  TagDfaMachine event_machine(&evaluator);
  Rng rng(61);
  for (const Tree& tree : testing::SampleTrees(100, 3, &rng)) {
    EventStream events = Encode(tree);
    std::string bytes = ToCompactMarkup(alphabet, events);
    std::vector<bool> expected = RunQuery(&event_machine, events);
    int64_t expected_count = 0;
    for (bool b : expected) expected_count += b ? 1 : 0;
    EXPECT_EQ(byte_runner.CountSelections(bytes), expected_count);
  }
}

TEST(ByteRunner, SelectionCountMatchesGroundTruth) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Dfa dfa = CompileRegex("a.*b", alphabet);
  ByteTagDfaRunner byte_runner(
      BuildRegisterlessQueryAutomaton(dfa, /*blind=*/false));
  Rng rng(67);
  for (const Tree& tree : testing::SampleTrees(100, 3, &rng)) {
    std::string bytes = ToCompactMarkup(alphabet, Encode(tree));
    std::vector<bool> selected = SelectNodes(dfa, tree);
    int64_t expected = 0;
    for (bool b : selected) expected += b ? 1 : 0;
    EXPECT_EQ(byte_runner.CountSelections(bytes), expected);
  }
}

TEST(ByteStackRunner, MatchesStackEvaluatorForAnyLanguage) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Rng rng(71);
  for (const char* pattern : {".*ab", "ab", "a.*b"}) {
    Dfa dfa = CompileRegex(pattern, alphabet);
    ByteStackRunner byte_runner(dfa);
    StackQueryEvaluator machine(&dfa);
    for (const Tree& tree : testing::SampleTrees(60, 3, &rng)) {
      EventStream events = Encode(tree);
      std::string bytes = ToCompactMarkup(alphabet, events);
      std::vector<bool> selected = RunQuery(&machine, events);
      int64_t expected = 0;
      for (bool b : selected) expected += b ? 1 : 0;
      EXPECT_EQ(byte_runner.CountSelections(bytes), expected) << pattern;
    }
  }
}

TEST(ByteStackRunner, ReportsPeakDepth) {
  Alphabet alphabet = Alphabet::FromLetters("ab");
  Dfa dfa = CompileRegex("a*", alphabet);
  ByteStackRunner runner(dfa);
  std::string bytes(100, 'a');
  bytes += std::string(100, 'A');
  runner.CountSelections(bytes);
  EXPECT_EQ(runner.max_stack_depth(), 100u);
}

// Regression: the selection predicate used to be `byte >= 'a'`, which also
// counted '{', '|', '}', '~', and every byte >= 0x7B whenever the
// (self-looped) state happened to be accepting.
TEST(ByteRunner, JunkBytesDoNotCountSelections) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Dfa dfa = CompileRegex(".*", alphabet);  // every node pre-selected
  ByteTagDfaRunner runner(
      BuildRegisterlessQueryAutomaton(dfa, /*blind=*/false));
  const std::string clean = "abBAcC";
  EXPECT_EQ(runner.CountSelections(clean), 3);
  std::string junk = "a{b|B}A~c\x7f\xff\x80" "C";  // same tags + garbage
  EXPECT_EQ(runner.CountSelections(junk), runner.CountSelections(clean));
  // Junk alone selects nothing, whatever state it loops in.
  EXPECT_EQ(runner.CountSelections("{|}~\x7f\x80\xff"), 0);
}

// The label-driven constructor follows the alphabet instead of assuming
// labels 'a', 'b', ... in symbol order.
TEST(ByteRunner, AlphabetAwareTableFollowsTheLabels) {
  Alphabet alphabet = Alphabet::FromLetters("xyz");
  Dfa dfa = CompileRegex("x.*y", alphabet);
  ByteTagDfaRunner runner(BuildRegisterlessQueryAutomaton(dfa, false),
                          alphabet);
  Rng rng(73);
  for (const Tree& tree : testing::SampleTrees(60, 3, &rng)) {
    std::string bytes = ToCompactMarkup(alphabet, Encode(tree));
    std::vector<bool> selected = SelectNodes(dfa, tree);
    int64_t expected = 0;
    for (bool b : selected) expected += b ? 1 : 0;
    EXPECT_EQ(runner.CountSelections(bytes), expected);
  }
}

// One streaming run's observable output: the verdict, the match log and
// every StreamStats field.
struct FusedRun {
  bool finished = false;
  std::vector<MatchEvent> matches;
  std::vector<int64_t> stats;

  friend bool operator==(const FusedRun&, const FusedRun&) = default;
};

FusedRun StreamFused(StreamingSelector& selector, std::string_view bytes,
                     size_t chunk) {
  CollectingSink sink;
  selector.set_match_sink(&sink);
  selector.Reset();
  bool ok = true;
  for (size_t at = 0; ok && at < bytes.size(); at += chunk) {
    ok = selector.Feed(bytes.substr(at, chunk));
  }
  FusedRun run;
  run.finished = ok && selector.Finish();
  run.matches = sink.matches();
  run.stats = testing::StatsFields(selector.stats());
  selector.set_match_sink(nullptr);
  return run;
}

// Small machines compact the fused table to uint16_t (half the cache
// footprint); machines with >= 65536 states keep int32_t entries. Both
// storages must agree byte for byte, in the ladder walk and in the
// streaming fused tier, whose stepper reads the table itself.
TEST(ByteRunner, CompactAndWideTablesAgree) {
  Alphabet alphabet = Alphabet::FromLetters("ab");
  Dfa dfa = CompileRegex("a.*b", alphabet);
  TagDfa evaluator = BuildRegisterlessQueryAutomaton(dfa, false);
  ByteTagDfaRunner small(evaluator);
  EXPECT_TRUE(small.uses_compact_table());
  EXPECT_NE(small.table16(), nullptr);
  EXPECT_EQ(small.table32(), nullptr);

  // A wide machine that embeds the small one in its low states: states
  // [0, n) of `wide` replicate `small`'s automaton, so runs agree while
  // exercising the int32 storage.
  const int wide_states = 65536 + evaluator.num_states;
  TagDfa padded = TagDfa::Create(wide_states, evaluator.num_symbols);
  padded.initial = evaluator.initial;
  for (int q = 0; q < wide_states; ++q) {
    bool embedded = q < evaluator.num_states;
    padded.accepting[q] = embedded && evaluator.accepting[q];
    for (Symbol a = 0; a < evaluator.num_symbols; ++a) {
      padded.SetNextOpen(q, a, embedded ? evaluator.NextOpen(q, a) : q);
      padded.SetNextClose(q, a, embedded ? evaluator.NextClose(q, a) : q);
    }
  }
  ByteTagDfaRunner wide(padded);
  EXPECT_FALSE(wide.uses_compact_table());
  EXPECT_EQ(wide.table16(), nullptr);
  EXPECT_NE(wide.table32(), nullptr);

  // One streaming run per table, sharing the runner (the 6-argument
  // constructor builds no table of its own).
  const ScannerTables tables =
      ScannerTables::Build(StreamFormat::kCompactMarkup, alphabet);
  TagDfaMachine small_machine(&evaluator);
  TagDfaMachine wide_machine(&padded);
  StreamingSelector small_selector(&small_machine,
                                   StreamFormat::kCompactMarkup, &alphabet,
                                   &tables, &small);
  StreamingSelector wide_selector(&wide_machine, StreamFormat::kCompactMarkup,
                                  &alphabet, &tables, &wide);
  ASSERT_TRUE(small_selector.using_fused_fast_path());
  ASSERT_TRUE(wide_selector.using_fused_fast_path());
  Rng rng(79);
  for (const Tree& tree : testing::SampleTrees(40, 2, &rng)) {
    std::string bytes = ToCompactMarkup(alphabet, Encode(tree));
    const int64_t expected = small.CountSelectionsPerByte(bytes);
    EXPECT_EQ(wide.CountSelections(bytes), expected);
    EXPECT_EQ(small.CountSelections(bytes), expected);
    for (size_t chunk : {size_t{1}, size_t{7}, bytes.size()}) {
      FusedRun small_run = StreamFused(small_selector, bytes, chunk);
      FusedRun wide_run = StreamFused(wide_selector, bytes, chunk);
      ASSERT_TRUE(small_run.finished) << bytes;
      EXPECT_EQ(static_cast<int64_t>(small_run.matches.size()), expected);
      EXPECT_EQ(wide_run, small_run) << bytes << " chunk=" << chunk;
    }
  }
}

// Regression: a closing tag on an empty stack used to be silently skipped,
// miscounting unbalanced inputs instead of reporting them.
TEST(ByteStackRunner, UnbalancedCloseIsReported) {
  Alphabet alphabet = Alphabet::FromLetters("ab");
  Dfa dfa = CompileRegex("a*", alphabet);
  ByteStackRunner runner(dfa);
  EXPECT_EQ(runner.CountSelections("A"), -1);
  EXPECT_EQ(runner.CountSelections("aAA"), -1);
  EXPECT_EQ(runner.CountSelections("aA"), 1);   // balanced: fine
  EXPECT_EQ(runner.CountSelections("aab"), 2);  // open prefix: fine
  // Failed runs never inflate the peak-depth counter past real pushes.
  ByteStackRunner fresh(dfa);
  EXPECT_EQ(fresh.CountSelections("AAAA"), -1);
  EXPECT_EQ(fresh.max_stack_depth(), 0u);
}

}  // namespace
}  // namespace sst

// Recovery, resource-guard, and degradation-ladder tests for the
// hardened streaming front-end: RecoveryPolicy semantics per format,
// StreamLimits determinism under any chunk split, fused tiers through
// recovery, and the sanitized-document equivalence property that pins
// down what kSkipMalformedSubtree means.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "automata/alphabet.h"
#include "automata/minimize.h"
#include "base/rng.h"
#include "dra/streaming.h"
#include "dra/tag_dfa.h"
#include "eval/registerless_query.h"
#include "eval/stack_evaluator.h"
#include "test_util.h"
#include "testing/fault_injection.h"
#include "trees/encoding.h"

namespace sst {
namespace {

using Format = StreamingSelector::Format;
using Tier = StreamingSelector::Tier;

// One recovered error flattened into comparable fields.
struct RecoveredView {
  StreamError error;
  int64_t excise_from = -1;
  int64_t resume_offset = -1;
  Symbol closed_label = -1;

  friend bool operator==(const RecoveredView&, const RecoveredView&) = default;
};

// Everything observable about one run, for differential comparison.
struct Observed {
  bool fed = false;
  bool finished = false;
  bool failed = false;
  int64_t nodes = 0;
  int64_t matches = 0;
  int64_t events = 0;
  int64_t max_depth = 0;
  int64_t bytes_fed = 0;
  int64_t errors_recovered = 0;
  int64_t subtrees_skipped = 0;
  int64_t error_offset = -1;
  StreamError stream_error;
  std::vector<RecoveredView> recovered;
  // (start, certainty) offsets of every match, in order.
  std::vector<std::pair<int64_t, int64_t>> match_log;

  friend bool operator==(const Observed&, const Observed&) = default;
};

Observed RunPieces(StreamMachine* machine, Format format, Alphabet* alphabet,
                   const std::vector<std::string_view>& pieces,
                   RecoveryPolicy policy, const StreamLimits& limits = {}) {
  machine->Reset();
  StreamingSelector selector(machine, format, alphabet);
  selector.set_recovery_policy(policy);
  selector.set_limits(limits);
  CollectingSink sink;
  selector.set_match_sink(&sink);
  Observed o;
  o.fed = true;
  for (std::string_view piece : pieces) {
    if (!selector.Feed(piece)) {
      o.fed = false;
      break;
    }
  }
  o.finished = o.fed && selector.Finish();
  o.failed = selector.failed();
  o.nodes = selector.nodes();
  o.matches = selector.matches();
  StreamStats stats = selector.stats();
  o.events = stats.events;
  o.max_depth = stats.max_depth;
  o.bytes_fed = stats.bytes_fed;
  o.errors_recovered = stats.errors_recovered;
  o.subtrees_skipped = stats.subtrees_skipped;
  o.error_offset = stats.error_offset;
  o.stream_error = selector.stream_error();
  for (const StreamingSelector::RecoveredError& r :
       selector.recovered_errors()) {
    o.recovered.push_back(
        RecoveredView{r.error, r.excise_from, r.resume_offset, r.closed_label});
  }
  for (const MatchEvent& event : sink.matches()) {
    o.match_log.emplace_back(event.start_offset, event.certainty_offset);
  }
  return o;
}

Observed RunWhole(StreamMachine* machine, Format format, Alphabet* alphabet,
                  const std::string& text, RecoveryPolicy policy,
                  const StreamLimits& limits = {}) {
  return RunPieces(machine, format, alphabet, {std::string_view(text)}, policy,
                   limits);
}

// The byte sequence of one closing tag in the given format.
std::string CloseToken(Format format, Symbol label, const Alphabet& alphabet) {
  switch (format) {
    case Format::kCompactMarkup:
      return std::string(
          1, static_cast<char>(std::toupper(
                 static_cast<unsigned char>(alphabet.LabelOf(label)[0]))));
    case Format::kXmlLite:
      return "</" + alphabet.LabelOf(label) + ">";
    case Format::kCompactTerm:
      return "}";
  }
  return {};
}

// Rebuilds the sanitized document a recovered run is equivalent to:
// each recovered error excises [excise_from, resume_offset) and closes
// the truncated element explicitly.
std::string Sanitize(const std::string& doc,
                     const std::vector<RecoveredView>& recovered,
                     Format format, const Alphabet& alphabet) {
  std::string out;
  size_t pos = 0;
  for (const RecoveredView& r : recovered) {
    EXPECT_GE(r.excise_from, static_cast<int64_t>(pos));
    EXPECT_GE(r.resume_offset, r.excise_from);
    EXPECT_GE(r.closed_label, 0);
    out.append(doc, pos, static_cast<size_t>(r.excise_from) - pos);
    out += CloseToken(format, r.closed_label, alphabet);
    pos = static_cast<size_t>(r.resume_offset);
  }
  out.append(doc, pos, std::string::npos);
  return out;
}

// Where a byte outside every excised region lands in the sanitized
// document.
int64_t SanitizedOffset(int64_t offset,
                        const std::vector<RecoveredView>& recovered,
                        Format format, const Alphabet& alphabet) {
  int64_t removed = 0;
  for (const RecoveredView& r : recovered) {
    if (r.resume_offset > offset) break;
    removed += r.resume_offset - r.excise_from -
               static_cast<int64_t>(
                   CloseToken(format, r.closed_label, alphabet).size());
  }
  return offset - removed;
}

std::vector<size_t> UniformCuts(size_t n, size_t chunk) {
  std::vector<size_t> cuts;
  for (size_t i = chunk; i < n; i += chunk) cuts.push_back(i);
  return cuts;
}

// ---------------------------------------------------------------------------
// kSkipMalformedSubtree semantics, format by format.

class SkipRecoveryTest : public ::testing::Test {
 protected:
  SkipRecoveryTest()
      : alphabet_(Alphabet::FromLetters("abc")),
        dfa_(CompileRegex(".*", alphabet_)),
        machine_(&dfa_) {}

  Alphabet alphabet_;
  Dfa dfa_;
  StackQueryEvaluator machine_;
};

TEST_F(SkipRecoveryTest, JunkByteTruncatesTheInnermostElement) {
  // "ab!BA": the '!' damages <b>; recovery truncates <b> at the 'B'.
  Observed o = RunWhole(&machine_, Format::kCompactMarkup, &alphabet_, "ab!BA",
                        RecoveryPolicy::kSkipMalformedSubtree);
  EXPECT_TRUE(o.finished) << o.stream_error.Render(&alphabet_);
  EXPECT_FALSE(o.failed);
  EXPECT_EQ(o.nodes, 2);
  EXPECT_EQ(o.events, 4);
  EXPECT_EQ(o.errors_recovered, 1);
  EXPECT_EQ(o.subtrees_skipped, 1);
  EXPECT_EQ(o.stream_error.code, StreamErrorCode::kBadByte);
  EXPECT_EQ(o.stream_error.offset, 2);
  EXPECT_EQ(o.error_offset, 2);
  ASSERT_EQ(o.recovered.size(), 1u);
  EXPECT_EQ(o.recovered[0].excise_from, 2);
  EXPECT_EQ(o.recovered[0].resume_offset, 4);  // just past the resync 'B'
  EXPECT_EQ(o.recovered[0].closed_label, alphabet_.Find("b"));
}

TEST_F(SkipRecoveryTest, SkipDiscardsEverythingUpToTheEnclosingClose) {
  // "a!bB!A": after the error at offset 1, the rest of <a>'s content —
  // including the well-formed <b></b> — is framing-scanned and dropped.
  Observed o = RunWhole(&machine_, Format::kCompactMarkup, &alphabet_,
                        "a!bB!A", RecoveryPolicy::kSkipMalformedSubtree);
  EXPECT_TRUE(o.finished);
  EXPECT_EQ(o.nodes, 1);
  EXPECT_EQ(o.events, 2);
  EXPECT_EQ(o.errors_recovered, 1);  // the second '!' lies inside the skip
  ASSERT_EQ(o.recovered.size(), 1u);
  EXPECT_EQ(o.recovered[0].excise_from, 1);
  EXPECT_EQ(o.recovered[0].resume_offset, 6);
  EXPECT_EQ(o.recovered[0].closed_label, alphabet_.Find("a"));
}

TEST_F(SkipRecoveryTest, MismatchedCloseResynchronizesImmediately) {
  // "abAA": the first 'A' arrives while <b> is open. The mismatching
  // close is itself the resync token: <b> is closed synthetically and
  // the stream continues, so the second 'A' closes <a>.
  Observed o = RunWhole(&machine_, Format::kCompactMarkup, &alphabet_, "abAA",
                        RecoveryPolicy::kSkipMalformedSubtree);
  EXPECT_TRUE(o.finished);
  EXPECT_EQ(o.nodes, 2);
  EXPECT_EQ(o.events, 4);
  EXPECT_EQ(o.stream_error.code, StreamErrorCode::kLabelMismatch);
  EXPECT_EQ(o.stream_error.offset, 2);
  EXPECT_EQ(o.stream_error.expected, alphabet_.Find("b"));
  EXPECT_EQ(o.stream_error.got, alphabet_.Find("a"));
  ASSERT_EQ(o.recovered.size(), 1u);
  EXPECT_EQ(o.recovered[0].excise_from, 2);
  EXPECT_EQ(o.recovered[0].resume_offset, 3);
  EXPECT_EQ(o.recovered[0].closed_label, alphabet_.Find("b"));
}

TEST_F(SkipRecoveryTest, CascadingMismatchesRecoverRecursively) {
  // Two independent damaged regions in one document: each recovers on
  // its own and the clean content between them is fully processed.
  Observed o = RunWhole(&machine_, Format::kCompactMarkup, &alphabet_,
                        "ab!Bc!CA", RecoveryPolicy::kSkipMalformedSubtree);
  EXPECT_TRUE(o.finished);
  EXPECT_EQ(o.nodes, 3);
  EXPECT_EQ(o.errors_recovered, 2);
  EXPECT_EQ(o.subtrees_skipped, 2);
  EXPECT_EQ(o.stream_error.offset, 2);  // the first error wins
  ASSERT_EQ(o.recovered.size(), 2u);
  EXPECT_EQ(o.recovered[0].error.offset, 2);
  EXPECT_EQ(o.recovered[1].error.offset, 5);
}

TEST_F(SkipRecoveryTest, ErrorsAtDepthZeroStayFatal) {
  // Nothing encloses the damage, so there is no element to truncate.
  Observed trailing =
      RunWhole(&machine_, Format::kCompactMarkup, &alphabet_, "aAb",
               RecoveryPolicy::kSkipMalformedSubtree);
  EXPECT_FALSE(trailing.fed);
  EXPECT_TRUE(trailing.failed);
  EXPECT_EQ(trailing.stream_error.code, StreamErrorCode::kTrailingContent);
  EXPECT_EQ(trailing.stream_error.offset, 2);

  Observed unbalanced =
      RunWhole(&machine_, Format::kCompactMarkup, &alphabet_, "aAB",
               RecoveryPolicy::kSkipMalformedSubtree);
  EXPECT_TRUE(unbalanced.failed);
  EXPECT_EQ(unbalanced.stream_error.code, StreamErrorCode::kUnbalancedClose);
  EXPECT_EQ(unbalanced.stream_error.offset, 2);

  Observed junk = RunWhole(&machine_, Format::kCompactMarkup, &alphabet_,
                           "?aA", RecoveryPolicy::kSkipMalformedSubtree);
  EXPECT_TRUE(junk.failed);
  EXPECT_EQ(junk.stream_error.code, StreamErrorCode::kBadByte);
  EXPECT_EQ(junk.stream_error.offset, 0);
}

TEST_F(SkipRecoveryTest, EofInsideSkipIsATruncatedDocument) {
  Observed o = RunWhole(&machine_, Format::kCompactMarkup, &alphabet_, "ab!",
                        RecoveryPolicy::kSkipMalformedSubtree);
  EXPECT_TRUE(o.fed);
  EXPECT_FALSE(o.finished);
  EXPECT_EQ(o.stream_error.code, StreamErrorCode::kBadByte);  // first error
  ASSERT_EQ(o.recovered.size(), 1u);
  EXPECT_EQ(o.recovered[0].resume_offset, -1);  // skip still open at EOF
}

TEST_F(SkipRecoveryTest, XmlUnknownElementIsSkippedWithItsContent) {
  Alphabet alphabet;
  alphabet.Intern("doc");
  alphabet.Intern("item");
  Dfa dfa = CompileRegex(".*", alphabet);
  StackQueryEvaluator machine(&dfa);
  const std::string text =
      "<doc><junk>text<i></i></junk><item></item></doc>";
  Observed o = RunWhole(&machine, Format::kXmlLite, &alphabet, text,
                        RecoveryPolicy::kSkipMalformedSubtree);
  EXPECT_TRUE(o.finished) << o.stream_error.Render(&alphabet);
  // Everything from <junk> to </doc> is <doc> content after the damage,
  // so recovery truncates <doc> itself: the <item> is not revisited.
  EXPECT_EQ(o.nodes, 1);
  EXPECT_EQ(o.stream_error.code, StreamErrorCode::kUnknownLabel);
  ASSERT_EQ(o.recovered.size(), 1u);
  EXPECT_EQ(o.recovered[0].excise_from, 5);  // the '<' of <junk>
  EXPECT_EQ(o.recovered[0].resume_offset, static_cast<int64_t>(text.size()));
  EXPECT_EQ(o.recovered[0].closed_label, alphabet.Find("doc"));
  EXPECT_EQ(Sanitize(text, o.recovered, Format::kXmlLite, alphabet),
            "<doc></doc>");
}

TEST_F(SkipRecoveryTest, TermUnknownLabelExcisesFromThePendingByte) {
  // "a{x{}b{}}": the unknown label's byte 'x' at offset 2 starts the
  // damage even though the error fires at its '{'.
  Observed o = RunWhole(&machine_, Format::kCompactTerm, &alphabet_,
                        "a{x{}b{}}", RecoveryPolicy::kSkipMalformedSubtree);
  EXPECT_TRUE(o.finished) << o.stream_error.Render(&alphabet_);
  EXPECT_EQ(o.nodes, 1);
  EXPECT_EQ(o.stream_error.code, StreamErrorCode::kUnknownLabel);
  ASSERT_EQ(o.recovered.size(), 1u);
  EXPECT_EQ(o.recovered[0].excise_from, 2);
  EXPECT_EQ(o.recovered[0].resume_offset, 9);
  EXPECT_EQ(Sanitize("a{x{}b{}}", o.recovered, Format::kCompactTerm,
                     alphabet_),
            "a{}");
}

// ---------------------------------------------------------------------------
// Resource guards.

TEST_F(SkipRecoveryTest, DepthLimitFailsFastAtTheOverflowingOpen) {
  StreamLimits limits;
  limits.max_depth = 3;
  Observed o = RunWhole(&machine_, Format::kCompactMarkup, &alphabet_,
                        "ababBABA", RecoveryPolicy::kFailFast, limits);
  EXPECT_TRUE(o.failed);
  EXPECT_EQ(o.stream_error.code, StreamErrorCode::kDepthLimitExceeded);
  EXPECT_EQ(o.stream_error.offset, 3);
  EXPECT_EQ(o.max_depth, 3);

  // At exactly the limit the document passes.
  Observed ok = RunWhole(&machine_, Format::kCompactMarkup, &alphabet_,
                         "abaABA", RecoveryPolicy::kFailFast, limits);
  EXPECT_TRUE(ok.finished);
}

TEST_F(SkipRecoveryTest, DepthLimitIsRecoverableUnderSkip) {
  // The over-limit subtree is skipped like any other malformed region.
  StreamLimits limits;
  limits.max_depth = 3;
  Observed o =
      RunWhole(&machine_, Format::kCompactMarkup, &alphabet_, "ababBABA",
               RecoveryPolicy::kSkipMalformedSubtree, limits);
  EXPECT_TRUE(o.finished) << o.stream_error.Render(&alphabet_);
  EXPECT_EQ(o.nodes, 3);
  EXPECT_EQ(o.max_depth, 3);
  EXPECT_EQ(o.errors_recovered, 1);
  EXPECT_EQ(o.stream_error.code, StreamErrorCode::kDepthLimitExceeded);
}

TEST_F(SkipRecoveryTest, ByteLimitFiresAtTheLimitOffsetUnderAnySplit) {
  StreamLimits limits;
  limits.max_document_bytes = 3;
  const std::string text = "abBA";
  for (size_t chunk = 1; chunk <= text.size(); ++chunk) {
    Observed o = RunPieces(&machine_, Format::kCompactMarkup, &alphabet_,
                           SplitAt(text, UniformCuts(text.size(), chunk)),
                           RecoveryPolicy::kSkipMalformedSubtree, limits);
    EXPECT_TRUE(o.failed) << chunk;
    EXPECT_EQ(o.stream_error.code, StreamErrorCode::kByteLimitExceeded);
    EXPECT_EQ(o.stream_error.offset, 3);
    EXPECT_EQ(o.bytes_fed, 3);   // the guard consumed exactly the prefix
    EXPECT_EQ(o.events, 3);      // a, b, B were processed before the stop
  }
  // A document of exactly the limit passes.
  limits.max_document_bytes = 4;
  Observed ok = RunWhole(&machine_, Format::kCompactMarkup, &alphabet_, text,
                         RecoveryPolicy::kFailFast, limits);
  EXPECT_TRUE(ok.finished);
}

TEST_F(SkipRecoveryTest, EventLimitIsAHardStopEvenUnderSkip) {
  StreamLimits limits;
  limits.max_events = 3;
  Observed o = RunWhole(&machine_, Format::kCompactMarkup, &alphabet_, "abBA",
                        RecoveryPolicy::kSkipMalformedSubtree, limits);
  EXPECT_TRUE(o.failed);
  EXPECT_EQ(o.stream_error.code, StreamErrorCode::kEventLimitExceeded);
  EXPECT_EQ(o.stream_error.offset, 3);
  EXPECT_EQ(o.events, 3);

  limits.max_events = 4;
  Observed ok = RunWhole(&machine_, Format::kCompactMarkup, &alphabet_, "abBA",
                         RecoveryPolicy::kFailFast, limits);
  EXPECT_TRUE(ok.finished);
}

TEST_F(SkipRecoveryTest, RecoveryBudgetTurnsTheNextErrorFatal) {
  StreamLimits limits;
  limits.max_recovered_errors = 1;
  Observed o =
      RunWhole(&machine_, Format::kCompactMarkup, &alphabet_, "ab!Bc!CA",
               RecoveryPolicy::kSkipMalformedSubtree, limits);
  EXPECT_TRUE(o.failed);
  EXPECT_EQ(o.errors_recovered, 1);
  // stream_error() reports the FIRST error of the stream — here the one
  // that was recovered — while failed() records that a later error
  // exhausted the budget.
  EXPECT_EQ(o.stream_error.offset, 2);
  EXPECT_EQ(o.error_offset, 2);
}

// ---------------------------------------------------------------------------
// kAutoClose.

TEST_F(SkipRecoveryTest, AutoCloseSynthesizesTheMissingCloses) {
  Observed o = RunWhole(&machine_, Format::kCompactMarkup, &alphabet_, "ab",
                        RecoveryPolicy::kAutoClose);
  EXPECT_TRUE(o.finished);
  EXPECT_FALSE(o.failed);
  EXPECT_EQ(o.nodes, 2);
  EXPECT_EQ(o.events, 4);
  EXPECT_EQ(o.errors_recovered, 1);
  EXPECT_EQ(o.subtrees_skipped, 0);
  EXPECT_EQ(o.stream_error.code, StreamErrorCode::kTruncatedDocument);
  EXPECT_EQ(o.stream_error.offset, 2);
  ASSERT_EQ(o.recovered.size(), 1u);
  EXPECT_EQ(o.recovered[0].closed_label, -1);  // EOF record closes them all
}

TEST_F(SkipRecoveryTest, AutoCloseDiscardsAPartialTrailingTag) {
  Alphabet alphabet;
  alphabet.Intern("doc");
  alphabet.Intern("item");
  Dfa dfa = CompileRegex(".*", alphabet);
  StackQueryEvaluator machine(&dfa);
  Observed o = RunWhole(&machine, Format::kXmlLite, &alphabet, "<doc><ite",
                        RecoveryPolicy::kAutoClose);
  EXPECT_TRUE(o.finished);
  EXPECT_EQ(o.nodes, 1);  // the partial "<ite" never became an event
  EXPECT_EQ(o.events, 2);
}

TEST_F(SkipRecoveryTest, AutoCloseTermDrivesBlindCloses) {
  Observed o = RunWhole(&machine_, Format::kCompactTerm, &alphabet_, "a{b{",
                        RecoveryPolicy::kAutoClose);
  EXPECT_TRUE(o.finished);
  EXPECT_EQ(o.nodes, 2);
  EXPECT_EQ(o.events, 4);
}

TEST_F(SkipRecoveryTest, AutoCloseNeedsARoot) {
  Observed empty = RunWhole(&machine_, Format::kCompactMarkup, &alphabet_, "",
                            RecoveryPolicy::kAutoClose);
  EXPECT_FALSE(empty.finished);
  EXPECT_EQ(empty.stream_error.code, StreamErrorCode::kTruncatedDocument);

  Observed ws = RunWhole(&machine_, Format::kCompactMarkup, &alphabet_,
                         "  \n\t ", RecoveryPolicy::kAutoClose);
  EXPECT_FALSE(ws.finished);
  EXPECT_TRUE(ws.failed);
}

// ---------------------------------------------------------------------------
// Degradation ladder: the fused tier survives recovery, synced with the
// machine around every event recovery hands to the virtual interface.

// Forwards events but hides the TagDfa export, pinning the selector to
// the generic tier for differential comparison.
class OpaqueForwarder : public StreamMachine {
 public:
  explicit OpaqueForwarder(StreamMachine* inner) : inner_(inner) {}
  void Reset() override { inner_->Reset(); }
  void OnOpen(Symbol s) override { inner_->OnOpen(s); }
  void OnClose(Symbol s) override { inner_->OnClose(s); }
  bool InAcceptingState() const override {
    return inner_->InAcceptingState();
  }

 private:
  StreamMachine* inner_;
};

TEST(StreamRecoveryLadder, RecoveryKeepsTheFusedTier) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Dfa dfa = CompileRegex("a.*b", alphabet);
  TagDfa evaluator = BuildRegisterlessQueryAutomaton(dfa, /*blind=*/false);
  TagDfaMachine machine(&evaluator);
  StreamingSelector selector(&machine, Format::kCompactMarkup, &alphabet);
  selector.set_recovery_policy(RecoveryPolicy::kSkipMalformedSubtree);
  ASSERT_TRUE(selector.using_fused_fast_path());
  ASSERT_EQ(selector.active_tier(), Tier::kFusedByteTable);

  // "a" then "b" is selected, the junk byte excises the rest of b's
  // subtree, and the resynchronized close of b runs on the machine.
  ASSERT_TRUE(selector.Feed("ab!BA"));
  ASSERT_TRUE(selector.Finish());
  EXPECT_EQ(selector.stats().errors_recovered, 1);
  EXPECT_EQ(selector.matches(), 1);
  EXPECT_TRUE(selector.using_fused_fast_path());
  EXPECT_EQ(selector.active_tier(), Tier::kFusedByteTable);

  // The table resumes from the machine's state after the synthesized
  // close: the second b under a is selected on the fused tier, in the
  // same chunk as the recovery.
  selector.Reset();
  ASSERT_TRUE(selector.Feed("ab!BbBA"));
  ASSERT_TRUE(selector.Finish());
  EXPECT_EQ(selector.stats().errors_recovered, 1);
  EXPECT_EQ(selector.matches(), 2);
  EXPECT_EQ(selector.active_tier(), Tier::kFusedByteTable);
}

TEST(StreamRecoveryLadder, RecoveredFusedRunsMatchTheGenericTierExactly) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Dfa dfa = CompileRegex("a.*b", alphabet);
  TagDfa evaluator = BuildRegisterlessQueryAutomaton(dfa, /*blind=*/false);
  const std::string docs[] = {"ab!BA", "abAA", "ab!Bc!CA", "a!bB!A",
                              "abcCB!A", "aab!BAA"};
  for (const std::string& doc : docs) {
    TagDfaMachine fused_machine(&evaluator);
    Observed fused =
        RunWhole(&fused_machine, Format::kCompactMarkup, &alphabet, doc,
                 RecoveryPolicy::kSkipMalformedSubtree);
    TagDfaMachine inner(&evaluator);
    OpaqueForwarder generic_machine(&inner);
    Observed generic =
        RunWhole(&generic_machine, Format::kCompactMarkup, &alphabet, doc,
                 RecoveryPolicy::kSkipMalformedSubtree);
    EXPECT_EQ(fused, generic) << doc;
  }
}

// The third rung: a StackQueryEvaluator as the machine tolerates the
// synthesized events of recovery and reports stack diagnostics.
TEST(StreamRecoveryLadder, StackTierReportsDiagnostics) {
  Alphabet alphabet = Alphabet::FromLetters("ab");
  Dfa dfa = CompileRegex(".*", alphabet);
  StackQueryEvaluator machine(&dfa);
  StreamingSelector selector(&machine, Format::kCompactMarkup, &alphabet);
  selector.set_recovery_policy(RecoveryPolicy::kSkipMalformedSubtree);
  ASSERT_TRUE(selector.Feed("ab!BA"));
  ASSERT_TRUE(selector.Finish());
  EXPECT_EQ(machine.depth(), 0u);
  EXPECT_EQ(machine.underflow_closes(), 0u);
}

// ---------------------------------------------------------------------------
// Chunk invariance of recovered runs.

TEST(StreamRecoveryInvariance, RecoveredRunsAreChunkInvariant) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Dfa dfa = CompileRegex("a.*b", alphabet);
  struct Case {
    Format format;
    std::string text;
  };
  const Case cases[] = {
      {Format::kCompactMarkup, "ab!Bc!CA"},
      {Format::kCompactMarkup, "abAA"},
      {Format::kCompactMarkup, "aab?cC#BAA"},
      {Format::kXmlLite, "<a><junk>zz<i></i></junk><b></b></a>"},
      {Format::kXmlLite, "<a><b></c></b></a>"},
      {Format::kCompactTerm, "a{x{}b{}}"},
      {Format::kCompactTerm, "a{b{}#}"},
  };
  const RecoveryPolicy policies[] = {RecoveryPolicy::kFailFast,
                                     RecoveryPolicy::kSkipMalformedSubtree,
                                     RecoveryPolicy::kAutoClose};
  StreamLimits limits;
  limits.max_depth = 8;
  limits.max_recovered_errors = 4;
  Rng rng(2026);
  for (const Case& c : cases) {
    for (RecoveryPolicy policy : policies) {
      StackQueryEvaluator machine(&dfa);
      Observed whole =
          RunWhole(&machine, c.format, &alphabet, c.text, policy, limits);
      for (size_t chunk = 1; chunk <= c.text.size(); ++chunk) {
        Observed split = RunPieces(
            &machine, c.format, &alphabet,
            SplitAt(c.text, UniformCuts(c.text.size(), chunk)), policy,
            limits);
        EXPECT_EQ(split, whole)
            << c.text << " policy=" << RecoveryPolicyName(policy)
            << " chunk=" << chunk;
      }
      for (int trial = 0; trial < 8; ++trial) {
        std::vector<size_t> cuts = RandomCuts(rng, c.text.size(), 6);
        Observed split = RunPieces(&machine, c.format, &alphabet,
                                   SplitAt(c.text, cuts), policy, limits);
        EXPECT_EQ(split, whole)
            << c.text << " policy=" << RecoveryPolicyName(policy);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The sanitized-document equivalence property: a run recovered with
// kSkipMalformedSubtree is semantically identical to a fail-fast parse
// of the document with each damaged region excised and the truncated
// element closed explicitly.

TEST(StreamRecoveryProperty, RecoveredRunEqualsSanitizedReparse) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Dfa dfa = CompileRegex("a.*b", alphabet);
  Rng rng(7);
  std::vector<Tree> trees = testing::SampleTrees(40, 3, &rng);
  StreamLimits limits;
  limits.max_depth = 64;
  int recovered_runs = 0;
  for (size_t t = 0; t < trees.size(); ++t) {
    EventStream events = Encode(trees[t]);
    struct Doc {
      Format format;
      std::string text;
    };
    const Doc docs[] = {
        {Format::kCompactMarkup, ToCompactMarkup(alphabet, events)},
        {Format::kXmlLite, ToXmlLite(alphabet, events)},
        {Format::kCompactTerm, ToCompactTerm(alphabet, events)},
    };
    for (const Doc& doc : docs) {
      for (int kind = 0; kind < kNumFaultKinds; ++kind) {
        std::string mutated = doc.text;
        FaultInjector injector(t * 131 + kind * 17 + 5);
        FaultReport report =
            injector.Apply(static_cast<FaultKind>(kind), &mutated);
        StackQueryEvaluator machine(&dfa);
        Observed run =
            RunWhole(&machine, doc.format, &alphabet, mutated,
                     RecoveryPolicy::kSkipMalformedSubtree, limits);
        if (!run.finished) continue;  // fatal damage: covered elsewhere
        std::string sanitized =
            Sanitize(mutated, run.recovered, doc.format, alphabet);
        Observed clean = RunWhole(&machine, doc.format, &alphabet, sanitized,
                                  RecoveryPolicy::kFailFast, limits);
        ASSERT_TRUE(clean.finished)
            << FaultKindName(report.kind) << " tree=" << t
            << "\nmutated:   " << mutated << "\nsanitized: " << sanitized
            << "\nerror: " << clean.stream_error.Render(&alphabet);
        EXPECT_EQ(clean.nodes, run.nodes);
        EXPECT_EQ(clean.events, run.events);
        EXPECT_EQ(clean.max_depth, run.max_depth);
        EXPECT_EQ(clean.matches, run.matches);
        for (auto& [start, certainty] : run.match_log) {
          start = SanitizedOffset(start, run.recovered, doc.format, alphabet);
          certainty =
              SanitizedOffset(certainty, run.recovered, doc.format, alphabet);
        }
        EXPECT_EQ(clean.match_log, run.match_log)
            << FaultKindName(report.kind) << " tree=" << t
            << "\nmutated:   " << mutated << "\nsanitized: " << sanitized;
        if (run.errors_recovered > 0) ++recovered_runs;
      }
    }
  }
  // The corpus must actually exercise recovery, not just clean parses.
  EXPECT_GT(recovered_runs, 50);
}

}  // namespace
}  // namespace sst

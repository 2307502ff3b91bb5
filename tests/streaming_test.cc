#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
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
#include "testing/reference_validator.h"
#include "trees/encoding.h"
#include "trees/ground_truth.h"

// Global allocation counter so tests can assert that Feed performs no
// steady-state heap allocation. Counts every operator new in the binary;
// tests only look at deltas around the code under test.
namespace {
std::atomic<int64_t> g_heap_allocations{0};
}  // namespace

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace sst {
namespace {

// Splits `text` into chunks of the given size and feeds them one by one,
// exercising every possible tag split across chunk boundaries.
bool FeedChunked(StreamingSelector* selector, const std::string& text,
                 size_t chunk_size) {
  for (size_t i = 0; i < text.size(); i += chunk_size) {
    if (!selector->Feed(std::string_view(text).substr(i, chunk_size))) {
      return false;
    }
  }
  return selector->Finish();
}

TEST(StreamingSelector, CompactMarkupMatchesBatchEvaluation) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Dfa dfa = CompileRegex("a.*b", alphabet);
  TagDfa evaluator = BuildRegisterlessQueryAutomaton(dfa, /*blind=*/false);
  Rng rng(3);
  for (const Tree& tree : testing::SampleTrees(60, 3, &rng)) {
    std::string text = ToCompactMarkup(alphabet, Encode(tree));
    std::vector<bool> expected = SelectNodes(dfa, tree);
    int64_t expected_matches = 0;
    for (bool b : expected) expected_matches += b ? 1 : 0;
    for (size_t chunk_size : {size_t{1}, size_t{3}, text.size()}) {
      TagDfaMachine machine(&evaluator);
      StreamingSelector selector(
          &machine, StreamingSelector::Format::kCompactMarkup, &alphabet);
      ASSERT_TRUE(FeedChunked(&selector, text, chunk_size))
          << selector.error();
      EXPECT_EQ(selector.matches(), expected_matches);
      EXPECT_EQ(selector.nodes(), tree.size());
      EXPECT_TRUE(selector.document_complete());
    }
  }
}

TEST(StreamingSelector, XmlLiteHandlesTagsSplitAcrossChunks) {
  Alphabet alphabet;
  alphabet.Intern("doc");
  alphabet.Intern("item");
  Dfa dfa = CompileRegex(".*", alphabet);  // select every node
  Dfa every = dfa;
  StackQueryEvaluator machine(&every);
  StreamingSelector selector(&machine, StreamingSelector::Format::kXmlLite,
                             &alphabet);
  std::string text = "<doc><item></item><item></item></doc>";
  for (size_t chunk_size = 1; chunk_size <= text.size(); ++chunk_size) {
    selector.Reset();
    ASSERT_TRUE(FeedChunked(&selector, text, chunk_size))
        << chunk_size << ": " << selector.error();
    EXPECT_EQ(selector.nodes(), 3);
    EXPECT_EQ(selector.matches(), 3);
  }
}

TEST(StreamingSelector, TermEncodingDrivesBlindMachines) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Dfa dfa = CompileRegex("a.*b", alphabet);
  TagDfa evaluator = BuildRegisterlessQueryAutomaton(dfa, /*blind=*/true);
  Rng rng(5);
  for (const Tree& tree : testing::SampleTrees(40, 3, &rng)) {
    std::string text = ToCompactTerm(alphabet, Encode(tree));
    std::vector<bool> expected = SelectNodes(dfa, tree);
    int64_t expected_matches = 0;
    for (bool b : expected) expected_matches += b ? 1 : 0;
    TagDfaMachine machine(&evaluator);
    StreamingSelector selector(
        &machine, StreamingSelector::Format::kCompactTerm, &alphabet);
    ASSERT_TRUE(FeedChunked(&selector, text, 2)) << selector.error();
    EXPECT_EQ(selector.matches(), expected_matches);
  }
}

TEST(StreamingSelector, MatchSinkReportsDocumentOrderOffsets) {
  Alphabet alphabet = Alphabet::FromLetters("ab");
  Dfa dfa = CompileRegex("a*", alphabet);  // select nodes on all-a paths
  StackQueryEvaluator machine(&dfa);
  StreamingSelector selector(&machine,
                             StreamingSelector::Format::kCompactMarkup,
                             &alphabet);
  CollectingSink sink;
  selector.set_match_sink(&sink);
  ASSERT_TRUE(selector.Feed("aabBAbBA"));  // a( a(b), b )
  ASSERT_TRUE(selector.Finish());
  std::vector<std::pair<int64_t, int64_t>> reported;
  for (const MatchEvent& event : sink.matches()) {
    reported.emplace_back(event.start_offset, event.certainty_offset);
  }
  EXPECT_EQ(reported,
            (std::vector<std::pair<int64_t, int64_t>>{{0, 1}, {1, 2}}));
}

TEST(StreamingSelector, MalformedInputsAreRejected) {
  Alphabet alphabet = Alphabet::FromLetters("ab");
  Dfa dfa = CompileRegex("a*", alphabet);

  auto reject = [&](StreamingSelector::Format format, const char* text) {
    StackQueryEvaluator machine(&dfa);
    StreamingSelector selector(&machine, format, &alphabet);
    bool fed = selector.Feed(text);
    bool finished = fed && selector.Finish();
    EXPECT_FALSE(finished) << text;
    EXPECT_FALSE(selector.error().empty()) << text;
  };

  using Format = StreamingSelector::Format;
  reject(Format::kCompactMarkup, "aB");     // mismatched close
  reject(Format::kCompactMarkup, "a");      // unclosed
  reject(Format::kCompactMarkup, "A");      // close without open
  reject(Format::kCompactMarkup, "aAbB");   // two roots
  reject(Format::kCompactMarkup, "x");      // unknown label
  reject(Format::kCompactMarkup, "a?A");    // garbage byte
  reject(Format::kXmlLite, "<a><b></a></b>");  // improper nesting
  reject(Format::kXmlLite, "<a>");             // truncated document
  reject(Format::kXmlLite, "<a></a><!");       // trailing garbage
  reject(Format::kXmlLite, "<zzz></zzz>");     // outside alphabet
  reject(Format::kCompactTerm, "a{");          // unclosed
  reject(Format::kCompactTerm, "}");           // close without open
  reject(Format::kCompactTerm, "a}");          // label without '{'
}

// The hand-written compact-markup error cases, one per StreamErrorCode the
// format can produce, with the first error spelled out. They pin the
// reference validator the differential suites compare every rung against:
// both the selector and the reference must report exactly this error and
// the same partial counters.
TEST(StreamingSelector, HandWrittenErrorCasesPinTheReferenceValidator) {
  Alphabet alphabet = Alphabet::FromLetters("ab");
  Dfa dfa = CompileRegex("a*", alphabet);
  StreamLimits depth;
  depth.max_depth = 3;
  StreamLimits bytes;
  bytes.max_document_bytes = 3;
  StreamLimits events;
  events.max_events = 3;
  // Guards that fire at the same byte as another check: the spec's check
  // order decides which error wins.
  StreamLimits depth_and_events = depth;
  depth_and_events.max_events = 3;
  StreamLimits two_events;
  two_events.max_events = 2;
  struct Case {
    const char* text;
    StreamLimits limits;
    StreamErrorCode code;
    int64_t offset;
  };
  const Case cases[] = {
      {"aB", {}, StreamErrorCode::kLabelMismatch, 1},
      {"a", {}, StreamErrorCode::kTruncatedDocument, 1},
      {"", {}, StreamErrorCode::kTruncatedDocument, 0},
      {"A", {}, StreamErrorCode::kUnbalancedClose, 0},
      {"aAbB", {}, StreamErrorCode::kTrailingContent, 2},
      {"x", {}, StreamErrorCode::kUnknownLabel, 0},
      {"aX", {}, StreamErrorCode::kUnknownLabel, 1},
      {"a?A", {}, StreamErrorCode::kBadByte, 1},
      {"ababBABA", depth, StreamErrorCode::kDepthLimitExceeded, 3},
      {"abBA", bytes, StreamErrorCode::kByteLimitExceeded, 3},
      {"aAbB", bytes, StreamErrorCode::kTrailingContent, 2},
      {"abBA", events, StreamErrorCode::kEventLimitExceeded, 3},
      {"aaaaAAAA", depth_and_events, StreamErrorCode::kDepthLimitExceeded, 3},
      {"aAA", two_events, StreamErrorCode::kUnbalancedClose, 2},
      {"abA", two_events, StreamErrorCode::kLabelMismatch, 2},
      {"abbB", bytes, StreamErrorCode::kByteLimitExceeded, 3},
      {"a \n b\tB  A", {}, StreamErrorCode::kNone, -1},
      {"abaABA", depth, StreamErrorCode::kNone, -1},
  };
  for (const Case& c : cases) {
    StackQueryEvaluator reference_machine(&dfa);
    testing::ValidatedRun reference = testing::ReferenceValidate(
        &reference_machine, alphabet, c.text, c.limits);
    EXPECT_EQ(reference.error.code, c.code) << c.text;
    EXPECT_EQ(reference.error.offset, c.offset) << c.text;

    StackQueryEvaluator machine(&dfa);
    StreamingSelector selector(&machine,
                               StreamingSelector::Format::kCompactMarkup,
                               &alphabet);
    selector.set_limits(c.limits);
    bool finished = selector.Feed(c.text) && selector.Finish();
    EXPECT_EQ(finished, reference.ok()) << c.text;
    EXPECT_EQ(selector.stream_error(), reference.error) << c.text;
    EXPECT_EQ(selector.matches(), reference.matches) << c.text;
    EXPECT_EQ(selector.nodes(), reference.nodes) << c.text;
    EXPECT_EQ(selector.stats().events, reference.events) << c.text;
    EXPECT_EQ(selector.stats().max_depth, reference.max_depth) << c.text;
  }
}

// Hides a machine's TagDfa export so the selector takes the generic
// (virtual-dispatch) path; used to cross-check the fused fast path.
class OpaqueMachine final : public StreamMachine {
 public:
  explicit OpaqueMachine(StreamMachine* inner) : inner_(inner) {}
  void Reset() override { inner_->Reset(); }
  void OnOpen(Symbol symbol) override { inner_->OnOpen(symbol); }
  void OnClose(Symbol symbol) override { inner_->OnClose(symbol); }
  bool InAcceptingState() const override {
    return inner_->InAcceptingState();
  }

 private:
  StreamMachine* inner_;
};

// Everything observable about one streaming run. chunks_fed is the one
// counter deliberately absent: it measures the split schedule itself.
struct RunResult {
  bool fed = false;
  bool finished = false;
  int64_t nodes = 0;
  int64_t matches = 0;
  int64_t events = 0;
  int64_t max_depth = 0;
  int64_t bytes_fed = 0;
  int64_t errors_recovered = 0;
  int64_t subtrees_skipped = 0;
  int64_t error_offset = -1;
  StreamError stream_error;
  std::string error;

  friend bool operator==(const RunResult&, const RunResult&) = default;
};

RunResult RunWithSplits(StreamingSelector* selector, const std::string& text,
                        const std::vector<size_t>& splits) {
  selector->Reset();
  RunResult result;
  result.fed = true;
  size_t offset = 0;
  for (size_t len : splits) {
    if (!selector->Feed(std::string_view(text).substr(offset, len))) {
      result.fed = false;
      break;
    }
    offset += len;
  }
  result.finished = result.fed && selector->Finish();
  result.nodes = selector->nodes();
  result.matches = selector->matches();
  StreamStats stats = selector->stats();
  result.events = stats.events;
  result.max_depth = stats.max_depth;
  result.bytes_fed = stats.bytes_fed;
  result.errors_recovered = stats.errors_recovered;
  result.subtrees_skipped = stats.subtrees_skipped;
  result.error_offset = stats.error_offset;
  result.stream_error = selector->stream_error();
  result.error = selector->error();
  return result;
}

std::vector<size_t> UniformSplits(size_t text_size, size_t chunk_size) {
  std::vector<size_t> splits;
  for (size_t i = 0; i < text_size; i += chunk_size) {
    splits.push_back(std::min(chunk_size, text_size - i));
  }
  return splits;
}

std::vector<size_t> RandomSplits(size_t text_size, Rng* rng) {
  std::vector<size_t> splits;
  size_t offset = 0;
  while (offset < text_size) {
    size_t len = 1 + static_cast<size_t>(rng->NextBelow(9));
    len = std::min(len, text_size - offset);
    splits.push_back(len);
    offset += len;
  }
  return splits;
}

// Term documents at the edges of the clean term run: a label as the last
// byte of a 64-byte block (and of a 64-byte chunk), whitespace between a
// label and its brace, an unknown label before '{', a label followed by
// '}' or by another label, and a stray '{'.
std::vector<std::string> TermRunEdgeDocs() {
  return {"a{" + std::string(61, ' ') + "b{}c" + std::string(60, '\n') +
              "{}}",
          "a{" + std::string(61, ' ') + "b}}",
          "a \n{b\t{}  c {} }",
          "a{z{}b{}}",
          "a{b}c{}}",
          "a{bc{}}",
          "a{{}b{}}"};
}

// Valid and malformed documents per format, for the re-split property.
std::vector<std::string> PropertyCorpus(StreamingSelector::Format format,
                                        const Alphabet& alphabet) {
  Rng rng(13);
  std::vector<std::string> corpus;
  for (const Tree& tree : testing::SampleTrees(12, 3, &rng)) {
    EventStream events = Encode(tree);
    switch (format) {
      case StreamingSelector::Format::kCompactMarkup:
        corpus.push_back(ToCompactMarkup(alphabet, events));
        break;
      case StreamingSelector::Format::kXmlLite:
        corpus.push_back(ToXmlLite(alphabet, events));
        break;
      case StreamingSelector::Format::kCompactTerm:
        corpus.push_back(ToCompactTerm(alphabet, events));
        break;
    }
  }
  switch (format) {
    case StreamingSelector::Format::kCompactMarkup:
      for (const char* text : {"aB", "a", "A", "aAbB", "x", "a?A", "",
                               "a \n b\tB  A", "abcCBAaA", "aa"}) {
        corpus.push_back(text);
      }
      break;
    case StreamingSelector::Format::kXmlLite:
      for (const char* text :
           {"<a><b></a></b>", "<a>", "<a></a><!", "<zzz></zzz>", "<>",
            "</>", "< a></ a>", " <a> <b> </b> </a> ", "<a></a",
            "<a></a><b></b>"}) {
        corpus.push_back(text);
      }
      break;
    case StreamingSelector::Format::kCompactTerm:
      for (const char* text : {"a{", "}", "a}", "a{b{}}", "a{} b{}", "a?",
                               "a {b {} c {}}", "a{}}", "x{}", "a"}) {
        corpus.push_back(text);
      }
      for (const std::string& text : TermRunEdgeDocs()) {
        corpus.push_back(text);
      }
      break;
  }
  return corpus;
}

// Satellite: every document, re-split at all chunk sizes 1..16 plus
// randomized schedules, must behave byte-for-byte like single-chunk
// feeding — matches, nodes, events, errors, and error offsets included.
TEST(StreamingSelector, ChunkSplitsNeverChangeTheOutcome) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Dfa dfa = CompileRegex("a.*b", alphabet);
  for (bool blind : {false, true}) {
    TagDfa evaluator = BuildRegisterlessQueryAutomaton(dfa, blind);
    TagDfaMachine machine(&evaluator);
    auto formats = blind
        ? std::vector<StreamingSelector::Format>{
              StreamingSelector::Format::kCompactTerm}
        : std::vector<StreamingSelector::Format>{
              StreamingSelector::Format::kCompactMarkup,
              StreamingSelector::Format::kXmlLite};
    for (auto format : formats) {
      StreamingSelector selector(&machine, format, &alphabet);
      for (const std::string& text : PropertyCorpus(format, alphabet)) {
        RunResult whole =
            RunWithSplits(&selector, text, UniformSplits(text.size(),
                          text.empty() ? 1 : text.size()));
        for (size_t chunk_size = 1; chunk_size <= 16; ++chunk_size) {
          RunResult split = RunWithSplits(
              &selector, text, UniformSplits(text.size(), chunk_size));
          EXPECT_EQ(split, whole)
              << "format " << static_cast<int>(format) << " chunk "
              << chunk_size << " text \"" << text << '"';
        }
        Rng rng(17);
        for (int trial = 0; trial < 8; ++trial) {
          RunResult split =
              RunWithSplits(&selector, text, RandomSplits(text.size(), &rng));
          EXPECT_EQ(split, whole)
              << "format " << static_cast<int>(format) << " random trial "
              << trial << " text \"" << text << '"';
        }
      }
    }
  }
}

// The fused byte-table fast path (registerless machine) and the generic
// virtual-dispatch path must be observationally identical.
TEST(StreamingSelector, FusedFastPathAgreesWithGenericPath) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Dfa dfa = CompileRegex("a.*b", alphabet);
  TagDfa evaluator = BuildRegisterlessQueryAutomaton(dfa, /*blind=*/false);
  TagDfaMachine fused_machine(&evaluator);
  TagDfaMachine inner(&evaluator);
  OpaqueMachine generic_machine(&inner);

  StreamingSelector fused(&fused_machine,
                          StreamingSelector::Format::kCompactMarkup,
                          &alphabet);
  StreamingSelector generic(&generic_machine,
                            StreamingSelector::Format::kCompactMarkup,
                            &alphabet);
  ASSERT_TRUE(fused.using_fused_fast_path());
  ASSERT_FALSE(generic.using_fused_fast_path());

  for (const std::string& text : PropertyCorpus(
           StreamingSelector::Format::kCompactMarkup, alphabet)) {
    for (size_t chunk_size = 1; chunk_size <= 8; ++chunk_size) {
      std::vector<size_t> splits = UniformSplits(text.size(), chunk_size);
      EXPECT_EQ(RunWithSplits(&fused, text, splits),
                RunWithSplits(&generic, text, splits))
          << "chunk " << chunk_size << " text \"" << text << '"';
    }
  }
  // The synced machine state must agree too.
  EXPECT_EQ(fused_machine.state(), inner.state());
}

// Opens past the label stack's reserve take the refusal path, which
// grows the stack; the run must read exactly as the per-byte reference
// does — clean, with the root's close mismatched, and with a depth limit
// beyond the reserve — on the fused and the generic markup tiers, and the
// same tree must read alike under every split in every format.
TEST(StreamingSelector, LabelStackGrowsPastItsReserve) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Dfa dfa = CompileRegex("a.*b", alphabet);
  TagDfa plain = BuildRegisterlessQueryAutomaton(dfa, /*blind=*/false);
  TagDfa blind = BuildRegisterlessQueryAutomaton(dfa, /*blind=*/true);
  TagDfaMachine fused_machine(&plain);
  TagDfaMachine inner(&plain);
  OpaqueMachine generic_machine(&inner);
  TagDfaMachine blind_machine(&blind);
  TagDfaMachine reference_machine(&plain);

  const int depth = 3 * static_cast<int>(StreamingSelector::kDepthReserve) + 5;
  EventStream events;
  for (int d = 0; d < depth; ++d) events.push_back({true, d % 3});
  for (int d = depth - 1; d >= 0; --d) events.push_back({false, d % 3});
  const std::string markup = ToCompactMarkup(alphabet, events);
  // The root 'a' closed as 'b'.
  const std::string mismatched = markup.substr(0, markup.size() - 1) + "B";
  StreamLimits deep_limit;
  deep_limit.max_depth = 2 * static_cast<int64_t>(
                                 StreamingSelector::kDepthReserve);

  for (StreamMachine* machine :
       {static_cast<StreamMachine*>(&fused_machine),
        static_cast<StreamMachine*>(&generic_machine)}) {
    StreamingSelector selector(machine,
                               StreamingSelector::Format::kCompactMarkup,
                               &alphabet);
    for (const std::string* doc : {&markup, &mismatched}) {
      for (const StreamLimits& limits : {StreamLimits{}, deep_limit}) {
        selector.set_limits(limits);
        testing::ValidatedRun want = testing::ReferenceValidate(
            &reference_machine, alphabet, *doc, limits);
        for (size_t chunk : {size_t{1}, size_t{7}, doc->size()}) {
          RunResult got =
              RunWithSplits(&selector, *doc, UniformSplits(doc->size(), chunk));
          EXPECT_EQ(got.stream_error, want.error) << chunk;
          EXPECT_EQ(got.nodes, want.nodes) << chunk;
          EXPECT_EQ(got.events, want.events) << chunk;
          EXPECT_EQ(got.max_depth, want.max_depth) << chunk;
          EXPECT_EQ(got.matches, want.matches) << chunk;
        }
      }
    }
  }
  EXPECT_EQ(testing::ReferenceValidate(&reference_machine, alphabet, markup)
                .max_depth,
            depth);

  struct Case {
    StreamMachine* machine;
    StreamingSelector::Format format;
    std::string text;
  };
  const Case cases[] = {
      {&fused_machine, StreamingSelector::Format::kCompactMarkup, markup},
      {&generic_machine, StreamingSelector::Format::kXmlLite,
       ToXmlLite(alphabet, events)},
      {&blind_machine, StreamingSelector::Format::kCompactTerm,
       ToCompactTerm(alphabet, events)},
  };
  for (const Case& c : cases) {
    StreamingSelector selector(c.machine, c.format, &alphabet);
    RunResult whole = RunWithSplits(&selector, c.text, {c.text.size()});
    EXPECT_TRUE(whole.finished) << whole.error;
    EXPECT_EQ(whole.max_depth, depth);
    EXPECT_EQ(whole.nodes, depth);
    for (size_t chunk : {size_t{1}, size_t{7}}) {
      EXPECT_EQ(RunWithSplits(&selector, c.text,
                              UniformSplits(c.text.size(), chunk)),
                whole)
          << static_cast<int>(c.format) << " chunk " << chunk;
    }
  }
}

// Everything a SelectorCheckpoint records except chunks_fed, which
// measures the split schedule itself.
void ExpectSameCheckpoint(const SelectorCheckpoint& got,
                          const SelectorCheckpoint& want,
                          const std::string& where) {
  StreamingSelector::RunState run = got.run;
  run.counters.chunks_fed = want.run.counters.chunks_fed;
  EXPECT_EQ(got.machine_config, want.machine_config) << where;
  EXPECT_EQ(got.open_labels, want.open_labels) << where;
  EXPECT_TRUE(run == want.run) << where;
  EXPECT_EQ(got.token_bytes, want.token_bytes) << where;
  EXPECT_EQ(got.stream_error, want.stream_error) << where;
  EXPECT_TRUE(got.open_skip == want.open_skip) << where;
}

// Reset() and RestoreCheckpoint() of a fresh origin both return a selector
// to exactly a newly built one's state, from wherever a run stopped: inside
// a tag straddling the Feed boundary, on a term label waiting for its '{',
// inside a skipped region, and past a recovered error. (The stats compare
// chunks_fed, which ExpectSameCheckpoint leaves out.)
TEST(StreamingSelector, ResetAndRestoreMatchAFreshSelector) {
  using Format = StreamingSelector::Format;
  Alphabet letters = Alphabet::FromLetters("abc");
  Alphabet mixed;
  for (const char* label : {"a", "b", "c", "item", "list"}) {
    mixed.Intern(label);
  }
  struct Case {
    const char* name;
    const Alphabet* alphabet;
    Format format;
    std::string prefix;
    // What the stopped run must hold, so each case tests what it names.
    bool token_open;
    bool in_skip;
    bool recovered;
  };
  const Case cases[] = {
      {"markup mid-skip", &letters, Format::kCompactMarkup, "ab#c", false,
       true, true},
      {"markup past recovery", &letters, Format::kCompactMarkup, "ab#cCB",
       false, false, true},
      {"xml mid-tag", &mixed, Format::kXmlLite, "<list><it", true, false,
       false},
      {"xml mid-closing-tag", &mixed, Format::kXmlLite, "<a></", true, false,
       false},
      {"xml mid-skip-tag", &mixed, Format::kXmlLite, "<a><zz><b", true, true,
       true},
      {"xml past recovery", &mixed, Format::kXmlLite, "<a><b></c><item>",
       false, false, true},
      {"term waiting label", &mixed, Format::kCompactTerm, "a{b", true, false,
       false},
      {"term waiting label past whitespace", &mixed, Format::kCompactTerm,
       "a{b{}c \n", true, false, false},
      {"term mid-skip", &mixed, Format::kCompactTerm, "a{b#{", false, true,
       true},
      {"term past recovery", &mixed, Format::kCompactTerm, "a{#}", false,
       false, true},
  };
  for (const Case& c : cases) {
    const bool term = c.format == Format::kCompactTerm;
    Dfa dfa = CompileRegex("a.*b", *c.alphabet);
    TagDfa evaluator = BuildRegisterlessQueryAutomaton(dfa, term);
    TagDfaMachine fresh_machine(&evaluator);
    StreamingSelector fresh(&fresh_machine, c.format, c.alphabet);
    SelectorCheckpoint want;
    ASSERT_TRUE(fresh.SaveCheckpoint(&want));

    TagDfaMachine machine(&evaluator);
    StreamingSelector selector(&machine, c.format, c.alphabet);
    selector.set_recovery_policy(RecoveryPolicy::kSkipMalformedSubtree);
    SelectorCheckpoint origin;
    ASSERT_TRUE(selector.SaveCheckpoint(&origin));
    auto run_prefix = [&] {
      ASSERT_TRUE(selector.Feed(c.prefix)) << c.name;
      SelectorCheckpoint stopped;
      ASSERT_TRUE(selector.SaveCheckpoint(&stopped));
      EXPECT_EQ(stopped.run.token.open, c.token_open) << c.name;
      EXPECT_EQ(stopped.run.in_skip, c.in_skip) << c.name;
      const auto& history = selector.recovered_errors();
      EXPECT_EQ(history.empty(), !c.recovered) << c.name;
      // A checkpoint keeps only the open skip's entry, and a restore
      // brings back just that much of the history.
      EXPECT_TRUE(stopped.open_skip ==
                  (c.in_skip ? history.back()
                             : StreamingSelector::RecoveredError{}))
          << c.name;
      ASSERT_TRUE(selector.RestoreCheckpoint(stopped));
      EXPECT_EQ(history.size(), c.in_skip ? 1u : 0u) << c.name;
    };

    run_prefix();
    selector.Reset();
    SelectorCheckpoint after_reset;
    ASSERT_TRUE(selector.SaveCheckpoint(&after_reset));
    ExpectSameCheckpoint(after_reset, want, std::string(c.name) + ": Reset");
    EXPECT_TRUE(selector.stats() == fresh.stats()) << c.name;

    run_prefix();
    ASSERT_TRUE(selector.RestoreCheckpoint(origin));
    SelectorCheckpoint after_restore;
    ASSERT_TRUE(selector.SaveCheckpoint(&after_restore));
    ExpectSameCheckpoint(after_restore, want,
                         std::string(c.name) + ": RestoreCheckpoint");
    EXPECT_TRUE(selector.stats() == fresh.stats()) << c.name;
  }
}

// The scanner's complete state at a Feed boundary depends only on the
// bytes consumed, never on how they were split: whether a tag was lexed in
// place or through the partial-tag buffer, and whether a token ran on the
// framing core or the refusal path, must leave identical checkpoints.
// Every split schedule is compared, at each of its Feed boundaries, with a
// byte-at-a-time feed at the same offset. XML-lite documents mix single-
// and multi-letter labels; the compact formats write single letters only,
// over both a letters-only alphabet (markup's fused tier) and the mixed
// one. Faulted copies run under kSkipMalformedSubtree, so the recovery
// fields are exercised too.
TEST(StreamingSelector, CheckpointsAtFeedBoundariesAreChunkingInvariant) {
  using Format = StreamingSelector::Format;
  Alphabet letters = Alphabet::FromLetters("abc");
  Alphabet mixed;
  for (const char* label : {"a", "b", "c", "item", "list"}) {
    mixed.Intern(label);
  }
  struct Case {
    const char* name;
    const Alphabet* alphabet;
    Format format;
  };
  const Case cases[] = {
      {"markup-fused", &letters, Format::kCompactMarkup},
      {"markup-mixed", &mixed, Format::kCompactMarkup},
      {"xml-mixed", &mixed, Format::kXmlLite},
      {"term-mixed", &mixed, Format::kCompactTerm},
  };
  for (const Case& c : cases) {
    const bool term = c.format == Format::kCompactTerm;
    Dfa dfa = CompileRegex("a.*b", *c.alphabet);
    TagDfa evaluator = BuildRegisterlessQueryAutomaton(dfa, term);
    TagDfaMachine machine(&evaluator);
    StreamingSelector selector(&machine, c.format, c.alphabet);
    selector.set_recovery_policy(RecoveryPolicy::kSkipMalformedSubtree);
    if (c.alphabet == &letters) {
      ASSERT_TRUE(selector.using_fused_fast_path());
    }

    // Documents: random trees (over the single letters a, b, c where the
    // format cannot write more), each clean and with one byte corrupted.
    const int num_symbols = c.format == Format::kXmlLite ? 5 : 3;
    Rng rng(41);
    std::vector<std::string> docs;
    for (int d = 0; d < 12; ++d) {
      Tree tree = RandomTree(1 + static_cast<int>(rng.NextBelow(30)),
                             num_symbols, rng.NextDouble(), &rng);
      EventStream events = Encode(tree);
      std::string text = c.format == Format::kCompactMarkup
                             ? ToCompactMarkup(*c.alphabet, events)
                         : c.format == Format::kXmlLite
                             ? ToXmlLite(*c.alphabet, events)
                             : ToCompactTerm(*c.alphabet, events);
      docs.push_back(text);
      std::string faulted = text;
      faulted[rng.NextBelow(faulted.size())] = '#';
      docs.push_back(faulted);
    }
    if (term) {
      for (const std::string& text : TermRunEdgeDocs()) docs.push_back(text);
    }

    for (const std::string& text : docs) {
      // Reference: one checkpoint after every byte, fed one at a time.
      std::vector<SelectorCheckpoint> reference(text.size() + 1);
      selector.Reset();
      ASSERT_TRUE(selector.SaveCheckpoint(&reference[0]));
      size_t reference_end = 0;  // last offset before a fatal error
      for (size_t k = 0; k < text.size(); ++k) {
        if (!selector.Feed(std::string_view(text).substr(k, 1))) break;
        ASSERT_TRUE(selector.SaveCheckpoint(&reference[k + 1]));
        reference_end = k + 1;
      }
      for (size_t chunk : {size_t{1}, size_t{2}, size_t{3}, size_t{4},
                           size_t{5}, size_t{7}, size_t{64}, text.size()}) {
        selector.Reset();
        for (size_t offset = 0; offset < text.size(); offset += chunk) {
          if (!selector.Feed(std::string_view(text).substr(offset, chunk))) {
            break;
          }
          const size_t end = std::min(offset + chunk, text.size());
          ASSERT_LE(end, reference_end) << c.name << ": " << text;
          SelectorCheckpoint cp;
          ASSERT_TRUE(selector.SaveCheckpoint(&cp));
          ExpectSameCheckpoint(cp, reference[end],
                               std::string(c.name) + " chunk " +
                                   std::to_string(chunk) + " offset " +
                                   std::to_string(end) + ": " + text);
        }
      }
    }
  }
}

// Acceptance criterion: the steady-state Feed loop performs zero heap
// allocations, on every format and on both markup paths.
TEST(StreamingSelector, FeedDoesNotAllocateInSteadyState) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Dfa dfa = CompileRegex("a.*b", alphabet);
  TagDfa plain = BuildRegisterlessQueryAutomaton(dfa, /*blind=*/false);
  TagDfa blind = BuildRegisterlessQueryAutomaton(dfa, /*blind=*/true);
  Rng rng(29);
  Tree tree = RandomTree(500, 3, 0.5, &rng);
  EventStream events = Encode(tree);

  TagDfaMachine plain_machine(&plain);
  TagDfaMachine blind_machine(&blind);
  OpaqueMachine opaque(&plain_machine);

  struct Case {
    const char* name;
    StreamMachine* machine;
    StreamingSelector::Format format;
    std::string text;
  };
  std::vector<Case> cases = {
      {"markup-fused", &plain_machine,
       StreamingSelector::Format::kCompactMarkup,
       ToCompactMarkup(alphabet, events)},
      {"markup-generic", &opaque, StreamingSelector::Format::kCompactMarkup,
       ToCompactMarkup(alphabet, events)},
      {"xml", &plain_machine, StreamingSelector::Format::kXmlLite,
       ToXmlLite(alphabet, events)},
      {"term", &blind_machine, StreamingSelector::Format::kCompactTerm,
       ToCompactTerm(alphabet, events)},
  };
  for (const Case& c : cases) {
    StreamingSelector selector(c.machine, c.format, &alphabet);
    auto feed_all = [&] {
      selector.Reset();
      for (size_t i = 0; i < c.text.size(); i += 7) {
        ASSERT_TRUE(selector.Feed(std::string_view(c.text).substr(i, 7)))
            << c.name << ": " << selector.error();
      }
      ASSERT_TRUE(selector.Finish()) << c.name << ": " << selector.error();
    };
    feed_all();  // warm-up: label stack reaches its steady-state capacity
    int64_t before = g_heap_allocations.load(std::memory_order_relaxed);
    feed_all();
    int64_t after = g_heap_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0)
        << c.name << " allocated during steady-state Feed";
    EXPECT_GT(selector.nodes(), 0) << c.name;
  }
}

// Satellite regression: an XML-lite name may use the full tag-length
// budget; the '/' of the closing form must not eat into it.
TEST(StreamingSelector, XmlLiteClosingSlashDoesNotCountTowardTagLength) {
  Alphabet alphabet;
  std::string name(StreamingSelector::kMaxTagBytes, 'k');
  alphabet.Intern(name);
  Dfa dfa = CompileRegex(".*", alphabet);
  StackQueryEvaluator machine(&dfa);
  StreamingSelector selector(&machine, StreamingSelector::Format::kXmlLite,
                             &alphabet);
  std::string text = "<" + name + "></" + name + ">";
  EXPECT_TRUE(selector.Feed(text) && selector.Finish()) << selector.error();
  EXPECT_EQ(selector.nodes(), 1);

  // One byte over the budget is rejected, opening and closing alike.
  std::string too_long(StreamingSelector::kMaxTagBytes + 1, 'k');
  selector.Reset();
  EXPECT_FALSE(selector.Feed("<" + too_long + ">"));
  EXPECT_EQ(selector.stream_error().code, StreamErrorCode::kTagTooLong);
  EXPECT_NE(selector.error().find("kTagTooLong"), std::string::npos);
}

TEST(StreamingSelector, StreamStatsCountTheRun) {
  Alphabet alphabet = Alphabet::FromLetters("ab");
  Dfa dfa = CompileRegex("a*", alphabet);
  StackQueryEvaluator machine(&dfa);
  StreamingSelector selector(&machine,
                             StreamingSelector::Format::kCompactMarkup,
                             &alphabet);
  ASSERT_TRUE(selector.Feed("a bB"));  // split mid-document on purpose
  ASSERT_TRUE(selector.Feed("bBA \n"));
  ASSERT_TRUE(selector.Finish());
  StreamStats stats = selector.stats();
  EXPECT_EQ(stats.bytes_fed, 9);  // whitespace included
  EXPECT_EQ(stats.chunks_fed, 2);  // two Feed calls
  EXPECT_EQ(stats.events, 6);      // 3 opens + 3 closes
  EXPECT_EQ(stats.max_depth, 2);
  EXPECT_EQ(stats.matches, selector.matches());
  EXPECT_EQ(stats.error_offset, -1);
}

TEST(StreamingSelector, StatsResetBetweenDocuments) {
  Alphabet alphabet = Alphabet::FromLetters("ab");
  Dfa dfa = CompileRegex("a*", alphabet);
  StackQueryEvaluator machine(&dfa);
  StreamingSelector selector(&machine,
                             StreamingSelector::Format::kCompactMarkup,
                             &alphabet);
  ASSERT_TRUE(selector.Feed("a bB"));
  ASSERT_TRUE(selector.Feed("A"));
  ASSERT_TRUE(selector.Finish());
  ASSERT_GT(selector.stats().bytes_fed, 0);
  ASSERT_GT(selector.stats().chunks_fed, 0);

  // Reset must zero every counter so per-document stats never bleed into
  // the next stream on a reused selector.
  selector.Reset();
  StreamStats cleared = selector.stats();
  EXPECT_EQ(cleared.bytes_fed, 0);
  EXPECT_EQ(cleared.chunks_fed, 0);
  EXPECT_EQ(cleared.events, 0);
  EXPECT_EQ(cleared.max_depth, 0);
  EXPECT_EQ(cleared.matches, 0);
  EXPECT_EQ(cleared.errors_recovered, 0);
  EXPECT_EQ(cleared.subtrees_skipped, 0);
  EXPECT_EQ(cleared.error_offset, -1);
  EXPECT_TRUE(selector.stream_error().ok());
  EXPECT_TRUE(selector.recovered_errors().empty());
  EXPECT_FALSE(selector.failed());

  // A second document starts counting from scratch.
  ASSERT_TRUE(selector.Feed("aA"));
  ASSERT_TRUE(selector.Finish());
  StreamStats second = selector.stats();
  EXPECT_EQ(second.bytes_fed, 2);
  EXPECT_EQ(second.chunks_fed, 1);
  EXPECT_EQ(second.events, 2);
  EXPECT_EQ(second.max_depth, 1);

  // Reset also clears a failed run (error offset included).
  EXPECT_FALSE(selector.Feed("?"));
  ASSERT_GE(selector.stats().error_offset, 0);
  selector.Reset();
  EXPECT_EQ(selector.stats().error_offset, -1);
  EXPECT_EQ(selector.stats().chunks_fed, 0);
  EXPECT_TRUE(selector.error().empty());
}

TEST(StreamingSelector, ChunksFedNotCountedAfterFailure) {
  Alphabet alphabet = Alphabet::FromLetters("ab");
  Dfa dfa = CompileRegex("a*", alphabet);
  StackQueryEvaluator machine(&dfa);
  StreamingSelector selector(&machine,
                             StreamingSelector::Format::kCompactMarkup,
                             &alphabet);
  EXPECT_FALSE(selector.Feed("?"));
  EXPECT_EQ(selector.stats().chunks_fed, 1);  // the failing chunk counts
  EXPECT_FALSE(selector.Feed("a"));           // rejected outright: not fed
  EXPECT_EQ(selector.stats().chunks_fed, 1);
}

// Long whitespace runs exercise the bulk SIMD/SWAR skip in every format,
// including runs split across chunk boundaries at every offset.
TEST(StreamingSelector, BulkWhitespaceSkipMatchesByteAtATime) {
  Alphabet alphabet = Alphabet::FromLetters("ab");
  Dfa dfa = CompileRegex(".*", alphabet);
  std::string pad(200, ' ');
  pad[67] = '\n';
  pad[133] = '\t';
  const std::string markup = "a" + pad + "b" + pad + "B" + pad + "A";
  const std::string xml =
      "<a>" + pad + "<b>" + pad + "</b>" + pad + "</a>";
  const std::string term = "a{" + pad + "b{" + pad + "}" + pad + "}";
  struct Case {
    StreamingSelector::Format format;
    const std::string* text;
  } cases[] = {
      {StreamingSelector::Format::kCompactMarkup, &markup},
      {StreamingSelector::Format::kXmlLite, &xml},
      {StreamingSelector::Format::kCompactTerm, &term},
  };
  for (const Case& c : cases) {
    StackQueryEvaluator machine(&dfa);
    StreamingSelector selector(&machine, c.format, &alphabet);
    for (size_t chunk : {1u, 7u, 64u, 4096u}) {
      selector.Reset();
      for (size_t i = 0; i < c.text->size(); i += chunk) {
        ASSERT_TRUE(
            selector.Feed(std::string_view(*c.text).substr(i, chunk)))
            << selector.error();
      }
      ASSERT_TRUE(selector.Finish()) << selector.error();
      EXPECT_EQ(selector.nodes(), 2);
      EXPECT_EQ(selector.stats().events, 4);
    }
  }
}

TEST(StreamingSelector, ErrorsCarryTheByteOffset) {
  Alphabet alphabet = Alphabet::FromLetters("ab");
  Dfa dfa = CompileRegex("a*", alphabet);
  StackQueryEvaluator machine(&dfa);
  StreamingSelector selector(&machine,
                             StreamingSelector::Format::kCompactMarkup,
                             &alphabet);
  ASSERT_TRUE(selector.Feed("ab"));
  EXPECT_FALSE(selector.Feed("B?A"));  // offset 3 in the overall stream
  EXPECT_EQ(selector.stats().error_offset, 3);
  EXPECT_NE(selector.error().find("at byte 3"), std::string::npos)
      << selector.error();
  // The first error wins; later feeds cannot overwrite it.
  EXPECT_FALSE(selector.Feed("?"));
  EXPECT_EQ(selector.stats().error_offset, 3);
}

// Satellite (a): once a run has failed, Feed and Finish are no-ops that
// return false and preserve the original StreamError verbatim.
TEST(StreamingSelector, FeedAndFinishAfterErrorAreNoOps) {
  Alphabet alphabet = Alphabet::FromLetters("ab");
  Dfa dfa = CompileRegex("a*", alphabet);
  StackQueryEvaluator machine(&dfa);
  StreamingSelector selector(&machine,
                             StreamingSelector::Format::kCompactMarkup,
                             &alphabet);
  ASSERT_TRUE(selector.Feed("ab"));
  ASSERT_FALSE(selector.Feed("c"));  // unknown label at offset 2
  const StreamError first = selector.stream_error();
  ASSERT_EQ(first.code, StreamErrorCode::kUnknownLabel);
  ASSERT_EQ(first.offset, 2);
  const StreamStats frozen = selector.stats();
  const std::string rendered = selector.error();

  // Feeding valid or invalid bytes afterwards changes nothing observable.
  EXPECT_FALSE(selector.Feed("BA"));
  EXPECT_FALSE(selector.Feed("?"));
  EXPECT_FALSE(selector.Feed(""));
  EXPECT_FALSE(selector.Finish());
  EXPECT_FALSE(selector.Finish());  // idempotent
  EXPECT_EQ(selector.stream_error(), first);
  EXPECT_EQ(selector.error(), rendered);
  StreamStats after = selector.stats();
  EXPECT_EQ(after.bytes_fed, frozen.bytes_fed);
  EXPECT_EQ(after.chunks_fed, frozen.chunks_fed);
  EXPECT_EQ(after.events, frozen.events);
  EXPECT_EQ(after.matches, frozen.matches);
  EXPECT_EQ(after.error_offset, frozen.error_offset);

  // Reset rearms the selector for a fresh, successful run.
  selector.Reset();
  EXPECT_TRUE(selector.Feed("aA"));
  EXPECT_TRUE(selector.Finish());
  EXPECT_TRUE(selector.stream_error().ok());
}

// A Finish-time failure (truncated document) is just as final as a
// Feed-time failure.
TEST(StreamingSelector, FeedAfterFailedFinishIsRejected) {
  Alphabet alphabet = Alphabet::FromLetters("ab");
  Dfa dfa = CompileRegex("a*", alphabet);
  StackQueryEvaluator machine(&dfa);
  StreamingSelector selector(&machine,
                             StreamingSelector::Format::kCompactMarkup,
                             &alphabet);
  ASSERT_TRUE(selector.Feed("ab"));
  ASSERT_FALSE(selector.Finish());  // two opens still pending
  const StreamError first = selector.stream_error();
  EXPECT_EQ(first.code, StreamErrorCode::kTruncatedDocument);
  EXPECT_EQ(first.offset, 2);
  EXPECT_FALSE(selector.Feed("BA"));  // too late: the run is over
  EXPECT_FALSE(selector.Finish());
  EXPECT_EQ(selector.stream_error(), first);
}

TEST(StreamingSelector, WhitespaceIsIgnoredBetweenTags) {
  Alphabet alphabet = Alphabet::FromLetters("ab");
  Dfa dfa = CompileRegex(".*", alphabet);
  StackQueryEvaluator machine(&dfa);
  StreamingSelector selector(&machine,
                             StreamingSelector::Format::kCompactMarkup,
                             &alphabet);
  ASSERT_TRUE(selector.Feed("a \n b"));
  ASSERT_TRUE(selector.Feed("B\tA"));
  EXPECT_TRUE(selector.Finish());
  EXPECT_EQ(selector.nodes(), 2);
}

}  // namespace
}  // namespace sst

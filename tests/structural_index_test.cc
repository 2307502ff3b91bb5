// Parity suite for the structural-index execution paths: every fused
// tier that now scans the SIMD stage-1 index instead of touching each
// byte must stay byte-identical — selection counts, final states, and
// the first StreamError (code + offset) — to its per-byte reference.
// The matrix is 30 random trees x {markup, xml-lite, term} x chunk
// splits {1, 3, 16, 64k}, with heavy whitespace padding (runs crossing
// the 64-byte block size), all seven fault-injection mutators, and
// mid-run recovery on the fused tier.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "automata/alphabet.h"
#include "automata/minimize.h"
#include "base/match_sink.h"
#include "base/rng.h"
#include "dra/byte_dra_runner.h"
#include "dra/byte_runner.h"
#include "dra/machine.h"
#include "dra/streaming.h"
#include "dra/tag_dfa.h"
#include "engine/multi_query.h"
#include "engine/query_plan.h"
#include "engine/session.h"
#include "eval/registerless_query.h"
#include "query/rpq.h"
#include "test_util.h"
#include "testing/fault_injection.h"
#include "testing/reference_validator.h"
#include "trees/encoding.h"

namespace sst {
namespace {

using Format = StreamingSelector::Format;

constexpr size_t kChunkings[] = {1, 3, 16, 64 * 1024};

// Whitespace-pads a document: random runs of the six ASCII whitespace
// bytes between tokens, frequently longer than the 64-byte SIMD block so
// the gap arithmetic and block-boundary handling of the index both fire.
std::string PadWs(Rng* rng, const std::string& doc) {
  static constexpr char kWs[] = {' ', '\t', '\n', '\v', '\f', '\r'};
  std::string out;
  out.reserve(doc.size() * 8);
  auto emit_run = [&] {
    if (!rng->NextBool(0.6)) return;
    size_t run = rng->NextBool(0.3) ? 65 + rng->NextBelow(100)
                                    : 1 + rng->NextBelow(12);
    for (size_t i = 0; i < run; ++i) out.push_back(kWs[rng->NextBelow(6)]);
  };
  emit_run();
  for (char c : doc) {
    out.push_back(c);
    emit_run();
  }
  return out;
}

// All document variants one base document expands to: the original, a
// padded copy, each of the seven fault kinds applied to the original,
// and each applied to the padded copy (faults inside whitespace runs are
// the interesting regime for the index).
std::vector<std::string> Variants(const std::string& doc, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> out = {doc, PadWs(&rng, doc)};
  for (int kind = 0; kind < kNumFaultKinds; ++kind) {
    for (size_t base : {size_t{0}, size_t{1}}) {
      std::string mutated = out[base];
      FaultInjector injector(seed * 31 + static_cast<uint64_t>(kind));
      injector.Apply(static_cast<FaultKind>(kind), &mutated);
      out.push_back(std::move(mutated));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Registerless byte-table runner: indexed vs per-byte oracles. These are
// pure table walks, so parity must hold on ANY byte soup — clean, padded,
// or mutated — not just well-formed documents.

TEST(StructuralIndex, RegisterlessCountsMatchPerByte) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Rng rng(2207);
  std::vector<Tree> trees = testing::SampleTrees(30, 3, &rng);
  for (const char* pattern : {".*", "a.*b", ".*ab", "ab"}) {
    Dfa dfa = CompileRegex(pattern, alphabet);
    TagDfa evaluator = BuildRegisterlessQueryAutomaton(dfa, /*blind=*/false);
    ByteTagDfaRunner runner(evaluator, alphabet);
    for (size_t t = 0; t < trees.size(); ++t) {
      std::string doc = ToCompactMarkup(alphabet, Encode(trees[t]));
      for (const std::string& bytes : Variants(doc, t * 7919 + 11)) {
        EXPECT_EQ(runner.CountSelections(bytes),
                  runner.CountSelectionsPerByte(bytes))
            << pattern << " tree=" << t;
      }
    }
  }
}

// The generic-tier selector (fused fast path hidden) drives the
// structural index; its parity oracle is the per-byte reference
// validator, which never touches the index.
class OpaqueForwarder : public StreamMachine {
 public:
  explicit OpaqueForwarder(StreamMachine* inner) : inner_(inner) {}
  void Reset() override { inner_->Reset(); }
  void OnOpen(Symbol s) override { inner_->OnOpen(s); }
  void OnClose(Symbol s) override { inner_->OnClose(s); }
  bool InAcceptingState() const override { return inner_->InAcceptingState(); }

 private:
  StreamMachine* inner_;
};

TEST(StructuralIndex, GenericSelectorReportsTheSameFirstErrorAsReference) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Dfa dfa = CompileRegex("a.*b", alphabet);
  TagDfa evaluator = BuildRegisterlessQueryAutomaton(dfa, /*blind=*/false);
  Rng rng(2209);
  std::vector<Tree> trees = testing::SampleTrees(30, 3, &rng);
  int failed_runs = 0;
  for (size_t t = 0; t < trees.size(); ++t) {
    std::string doc = ToCompactMarkup(alphabet, Encode(trees[t]));
    for (const std::string& bytes : Variants(doc, t * 104729 + 3)) {
      TagDfaMachine reference(&evaluator);
      testing::ValidatedRun run =
          testing::ReferenceValidate(&reference, alphabet, bytes);

      TagDfaMachine inner(&evaluator);
      OpaqueForwarder generic(&inner);
      StreamingSelector selector(&generic, Format::kCompactMarkup, &alphabet);
      bool fed = selector.Feed(bytes);
      if (fed) selector.Finish();

      EXPECT_EQ(run.error.code, selector.stream_error().code) << bytes;
      EXPECT_EQ(run.error.offset, selector.stream_error().offset) << bytes;
      EXPECT_EQ(run.matches, selector.matches()) << bytes;
      EXPECT_EQ(run.nodes, selector.nodes()) << bytes;
      if (!run.ok()) ++failed_runs;
    }
  }
  // The mutated corpus must actually produce errors, not just clean runs.
  EXPECT_GT(failed_runs, 100);
}

// ---------------------------------------------------------------------------
// Stackless fused rung (ByteDraRunner): indexed vs per-byte.

TEST(StructuralIndex, StacklessDraCountsMatchPerByte) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  std::vector<std::shared_ptr<const QueryPlan>> plans;
  for (const char* xpath : {"/a/b", "/b/*//c", "/a/b//c", "/c/a"}) {
    auto plan = QueryPlan::Compile(Rpq::FromXPath(xpath, alphabet), {});
    if (plan->kind() == EvaluatorKind::kStackless &&
        plan->fused_dra() != nullptr) {
      plans.push_back(std::move(plan));
    }
  }
  ASSERT_GE(plans.size(), 2u);
  Rng rng(2211);
  std::vector<Tree> trees = testing::SampleTrees(30, 3, &rng);
  for (const auto& plan : plans) {
    const ByteDraRunner* runner = plan->fused_dra();
    for (size_t t = 0; t < trees.size(); ++t) {
      std::string doc = ToCompactMarkup(alphabet, Encode(trees[t]));
      for (const std::string& bytes : Variants(doc, t * 6151 + 29)) {
        EXPECT_EQ(runner->CountSelections(bytes),
                  runner->CountSelectionsPerByte(bytes))
            << "tree=" << t;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Multi-query tiers: every rung's one-scan counts vs N independent
// per-byte runners over the same bytes.

// The XPaths among `xpaths` whose own plan has `kind` and a fused runner
// (ByteTagDfaRunner for registerless, ByteDraRunner for stackless).
std::vector<BatchQuery> FusedQueries(std::initializer_list<const char*> xpaths,
                                     EvaluatorKind kind,
                                     const Alphabet& alphabet) {
  std::vector<BatchQuery> queries;
  for (const char* xpath : xpaths) {
    auto plan = QueryPlan::Compile(Rpq::FromXPath(xpath, alphabet), {});
    if (plan->kind() == kind &&
        (plan->fused() != nullptr || plan->fused_dra() != nullptr)) {
      queries.push_back(BatchQuery{QuerySyntax::kXPath, xpath});
    }
  }
  return queries;
}

// Each member's per-byte count over `bytes`, in submission order.
std::vector<int64_t> PerByteCounts(const MultiQueryPlan& batch,
                                   const std::string& bytes) {
  std::vector<int64_t> counts;
  for (int q = 0; q < batch.num_queries(); ++q) {
    const QueryPlan& plan =
        *batch.slot_plans()[static_cast<size_t>(batch.slot_of(q))];
    counts.push_back(plan.fused() != nullptr
                         ? plan.fused()->CountSelectionsPerByte(bytes)
                         : plan.fused_dra()->CountSelectionsPerByte(bytes));
  }
  return counts;
}

TEST(StructuralIndex, MultiQueryCountsMatchIndependentPerByteRunners) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  std::vector<BatchQuery> queries =
      FusedQueries({"/a//b", "/b//c", "/c//a", "/a", "/b"},
                   EvaluatorKind::kRegisterless, alphabet);
  ASSERT_GE(queries.size(), 3u);
  MultiQueryOptions split_options;
  split_options.eager_state_cap = 1;  // one lane per member
  auto fused = MultiQueryPlan::Compile(queries, alphabet, {});
  auto split = MultiQueryPlan::Compile(queries, alphabet, split_options);
  ASSERT_TRUE(fused->stats().fused_byte_table);
  ASSERT_TRUE(fused->one_scan_eligible());
  ASSERT_EQ(split->stats().lanes, static_cast<int>(queries.size()));

  Rng rng(2213);
  std::vector<Tree> trees = testing::SampleTrees(30, 3, &rng);
  for (size_t t = 0; t < trees.size(); ++t) {
    std::string doc = ToCompactMarkup(alphabet, Encode(trees[t]));
    for (const std::string& bytes : Variants(doc, t * 1543 + 41)) {
      std::vector<int64_t> expected = PerByteCounts(*fused, bytes);
      EXPECT_EQ(fused->CountSelections(bytes), expected) << "tree=" << t;
      EXPECT_EQ(split->CountSelections(bytes), expected) << "tree=" << t;
    }
  }
}

TEST(StructuralIndex, MixedBatchCountsMatchPerByteReferences) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  std::vector<BatchQuery> reg = FusedQueries(
      {"/a//b", "/b//c"}, EvaluatorKind::kRegisterless, alphabet);
  std::vector<BatchQuery> dra = FusedQueries(
      {"/a/b", "/a/b//c", "/c/a"}, EvaluatorKind::kStackless, alphabet);
  if (reg.size() < 2 || dra.empty()) {
    GTEST_SKIP() << "query shapes reclassified; mixed batch unavailable";
  }
  reg.insert(reg.end(), dra.begin(), dra.end());
  auto mixed = MultiQueryPlan::Compile(reg, alphabet, {});
  ASSERT_EQ(mixed->tier(), MultiTier::kMixed);
  ASSERT_TRUE(mixed->one_scan_eligible());

  Rng rng(2217);
  std::vector<Tree> trees = testing::SampleTrees(30, 3, &rng);
  for (size_t t = 0; t < trees.size(); ++t) {
    std::string doc = ToCompactMarkup(alphabet, Encode(trees[t]));
    for (const std::string& bytes : Variants(doc, t * 2689 + 13)) {
      EXPECT_EQ(mixed->CountSelections(bytes), PerByteCounts(*mixed, bytes))
          << "tree=" << t;
    }
  }
}

// ---------------------------------------------------------------------------
// Selector-level matrix: fused tier (structural-index scanners, byte
// tables) vs the generic tier pinned by OpaqueForwarder, 30 trees x 3
// formats x 4 chunkings x all variants, under the recovery policy that
// resynchronizes mid-run on the fused tier.

struct Observed {
  bool fed = false;
  bool finished = false;
  bool failed = false;
  int64_t nodes = 0;
  int64_t matches = 0;
  int64_t events = 0;
  int64_t max_depth = 0;
  int64_t errors_recovered = 0;
  int64_t error_offset = -1;
  StreamErrorCode error_code = StreamErrorCode::kNone;
  int64_t first_error_offset = -1;

  friend bool operator==(const Observed&, const Observed&) = default;
};

Observed RunChunked(StreamMachine* machine, Format format, Alphabet* alphabet,
                    const std::string& text, size_t chunk) {
  machine->Reset();
  StreamingSelector selector(machine, format, alphabet);
  selector.set_recovery_policy(RecoveryPolicy::kSkipMalformedSubtree);
  Observed o;
  o.fed = true;
  for (size_t i = 0; i < text.size() && o.fed; i += chunk) {
    o.fed = selector.Feed(std::string_view(text).substr(i, chunk));
  }
  o.finished = o.fed && selector.Finish();
  o.failed = selector.failed();
  o.nodes = selector.nodes();
  o.matches = selector.matches();
  StreamStats stats = selector.stats();
  o.events = stats.events;
  o.max_depth = stats.max_depth;
  o.errors_recovered = stats.errors_recovered;
  o.error_offset = stats.error_offset;
  o.error_code = selector.stream_error().code;
  o.first_error_offset = selector.stream_error().offset;
  return o;
}

TEST(StructuralIndex, SelectorParityAcrossFormatsChunkingsAndFaults) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Dfa dfa = CompileRegex("a.*b", alphabet);
  TagDfa evaluator = BuildRegisterlessQueryAutomaton(dfa, /*blind=*/false);

  struct FormatCase {
    Format format;
    std::string (*encode)(const Alphabet&, const EventStream&);
  };
  const FormatCase kFormats[] = {
      {Format::kCompactMarkup, &ToCompactMarkup},
      {Format::kXmlLite, &ToXmlLite},
      {Format::kCompactTerm, &ToCompactTerm},
  };

  Rng rng(2221);
  std::vector<Tree> trees = testing::SampleTrees(30, 3, &rng);
  int recovered_runs = 0;
  for (size_t t = 0; t < trees.size(); ++t) {
    EventStream events = Encode(trees[t]);
    for (const FormatCase& fc : kFormats) {
      std::string doc = fc.encode(alphabet, events);
      for (const std::string& text : Variants(doc, t * 433 + 17)) {
        for (size_t chunk : kChunkings) {
          TagDfaMachine fused_machine(&evaluator);
          Observed fused = RunChunked(&fused_machine, fc.format, &alphabet,
                                      text, chunk);
          TagDfaMachine inner(&evaluator);
          OpaqueForwarder generic_machine(&inner);
          Observed generic = RunChunked(&generic_machine, fc.format,
                                        &alphabet, text, chunk);
          EXPECT_EQ(fused, generic)
              << "tree=" << t << " chunk=" << chunk << "\ntext: " << text;
          if (fused.errors_recovered > 0 &&
              fc.format == Format::kCompactMarkup) {
            ++recovered_runs;
          }
        }
      }
    }
  }
  // The corpus must exercise mid-run recovery on the fused tier, not just
  // clean scans.
  EXPECT_GT(recovered_runs, 100);
}


// ---------------------------------------------------------------------------
// Block budget: the scan runs compare the event limit and the depth cap
// once per 64-byte block (192 bytes of XML-lite), with headroom for the
// most tokens a block can hold. Limits that fall inside a block must fire
// exactly where the per-event path fires them: the same first error (code
// and offset), stats and counts, under every chunking and both recovery
// policies, on all three formats.

struct FormatCase {
  Format format;
  std::string (*encode)(const Alphabet&, const EventStream&);
};
constexpr FormatCase kAllFormats[] = {
    {Format::kCompactMarkup, &ToCompactMarkup},
    {Format::kXmlLite, &ToXmlLite},
    {Format::kCompactTerm, &ToCompactTerm},
};

// A spine: `depth` nested opens, each level but the deepest followed by a
// leaf sibling on its way back up, so whole blocks hold nothing but opens
// (then closes) and the depth crosses the cap inside one.
EventStream Spine(int depth) {
  EventStream events;
  for (int d = 0; d < depth; ++d) events.push_back({true, d % 3});
  for (int d = depth - 1; d >= 0; --d) {
    events.push_back({false, d % 3});
    if (d > 0) {
      events.push_back({true, (d + 1) % 3});
      events.push_back({false, (d + 1) % 3});
    }
  }
  return events;
}

struct BudgetedRun {
  StreamErrorCode code = StreamErrorCode::kNone;
  int64_t error_offset = -1;
  int64_t error_depth = 0;
  Symbol error_expected = -1;
  Symbol error_got = -1;
  int64_t matches = 0;
  std::vector<int64_t> stats;  // every StreamStats field but chunks_fed
  std::vector<MatchEvent> match_log;  // with a sink only
  std::vector<MatchEvent> span_log;

  friend bool operator==(const BudgetedRun&, const BudgetedRun&) = default;
};

BudgetedRun RunBudgeted(StreamMachine* machine, Format format,
                        Alphabet* alphabet, const std::string& text,
                        size_t chunk, const StreamLimits& limits,
                        RecoveryPolicy policy,
                        CollectingSink* sink = nullptr) {
  machine->Reset();
  StreamingSelector selector(machine, format, alphabet);
  selector.set_limits(limits);
  selector.set_recovery_policy(policy);
  selector.set_match_sink(sink);
  bool ok = true;
  for (size_t i = 0; i < text.size() && ok; i += chunk) {
    ok = selector.Feed(std::string_view(text).substr(i, chunk));
  }
  if (ok) selector.Finish();
  BudgetedRun run;
  const StreamError& error = selector.stream_error();
  run.code = error.code;
  run.error_offset = error.offset;
  run.error_depth = error.depth;
  run.error_expected = error.expected;
  run.error_got = error.got;
  run.matches = selector.matches();
  StreamStats stats = selector.stats();
  stats.chunks_fed = 0;
  run.stats = testing::StatsFields(stats);
  if (sink != nullptr) {
    run.match_log = sink->matches();
    run.span_log = sink->spans();
  }
  return run;
}

TEST(StructuralIndex, LimitsInsideABlockMatchThePerEventPath) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  TagDfa evaluator = BuildRegisterlessQueryAutomaton(
      CompileRegex("a.*b", alphabet), /*blind=*/false);
  Rng rng(6401);
  std::vector<EventStream> documents;
  for (int i = 0; i < 12; ++i) {
    documents.push_back(Encode(
        RandomTree(200 + static_cast<int>(rng.NextBelow(200)), 3,
                   rng.NextDouble(), &rng)));
  }
  for (int depth = 62; depth <= 140; depth += 3) {
    documents.push_back(Spine(depth));
  }
  const size_t kSplits[] = {1, 3, 63, 64, 65, 1 << 20};
  const RecoveryPolicy kPolicies[] = {RecoveryPolicy::kFailFast,
                                      RecoveryPolicy::kSkipMalformedSubtree};
  int limit_errors = 0;
  for (const EventStream& events : documents) {
    int64_t peak = 0;
    int64_t depth = 0;
    for (const TagEvent& event : events) {
      depth += event.open ? 1 : -1;
      peak = std::max(peak, depth);
    }
    const int64_t num_events = static_cast<int64_t>(events.size());
    std::vector<StreamLimits> limits;
    for (int64_t k = 1; k <= std::min<int64_t>(num_events / 64, 6); ++k) {
      for (int64_t r : {0, 1, 63}) {
        StreamLimits l;
        l.max_events = 64 * k + r;
        limits.push_back(l);
      }
    }
    for (int64_t d : {peak - 1, peak, peak + 1}) {
      StreamLimits l;
      l.max_depth = std::max<int64_t>(d, 1);
      limits.push_back(l);
    }
    for (const FormatCase& fc : kAllFormats) {
      const std::string text = fc.encode(alphabet, events);
      for (const StreamLimits& l : limits) {
        for (RecoveryPolicy policy : kPolicies) {
          TagDfaMachine machine(&evaluator);
          const BudgetedRun reference =
              RunBudgeted(&machine, fc.format, &alphabet, text, 1, l, policy);
          if (reference.code == StreamErrorCode::kEventLimitExceeded ||
              reference.code == StreamErrorCode::kDepthLimitExceeded) {
            ++limit_errors;
          }
          if (fc.format == Format::kCompactMarkup &&
              policy == RecoveryPolicy::kFailFast) {
            // The byte-at-a-time oracle, independent of the scan runs.
            TagDfaMachine oracle_machine(&evaluator);
            const testing::ValidatedRun oracle = testing::ReferenceValidate(
                &oracle_machine, alphabet, text, l);
            EXPECT_EQ(reference.code, oracle.error.code);
            EXPECT_EQ(reference.error_offset, oracle.error.offset);
            EXPECT_EQ(reference.matches, oracle.matches);
          }
          for (size_t split : kSplits) {
            EXPECT_EQ(RunBudgeted(&machine, fc.format, &alphabet, text,
                                  split, l, policy),
                      reference)
                << "split=" << split << " max_events=" << l.max_events
                << " max_depth=" << l.max_depth << "\ntext: " << text;
          }
        }
      }
    }
  }
  // The limits must actually fire inside the documents, not past them.
  EXPECT_GT(limit_errors, 500);
}

// Term's brace walk: a block whose every '{' directly follows a label
// byte, and every label byte directly precedes a '{', walks only its
// braces. Every edit below breaks that shape at one position of a dense
// document — whitespace between a label and its '{', two labels in a row,
// junk, a stray '{', a label directly before a '}', a missing byte — and
// the sweep over positions and chunkings puts a label at byte 63 with its
// '{' in the next block, a label ending a chunk and a '{' first in a
// chunk. Each run must match the byte-at-a-time one.
TEST(StructuralIndex, TermBraceWalkMatchesTheByteAtATimeRun) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  TagDfa evaluator = BuildRegisterlessQueryAutomaton(
      CompileRegex("a.*b", alphabet), /*blind=*/true);
  Rng rng(7207);
  const std::string dense =
      ToCompactTerm(alphabet, Encode(RandomTree(160, 3, 0.5, &rng)));
  ASSERT_GT(dense.size(), 300u);
  std::vector<std::string> docs = {dense};
  for (size_t k = 0; k < 140; ++k) {
    // "a}" puts a label directly before a close inside a block that is
    // otherwise clean.
    for (const char* insert : {" ", "a", "#", "{", "}", "a}"}) {
      docs.push_back(dense.substr(0, k) + insert + dense.substr(k));
    }
    docs.push_back(dense.substr(0, k) + dense.substr(k + 1));
  }
  const size_t kSplits[] = {3, 63, 64, 65, 1 << 20};
  const RecoveryPolicy kPolicies[] = {RecoveryPolicy::kFailFast,
                                      RecoveryPolicy::kSkipMalformedSubtree};
  for (const std::string& text : docs) {
    for (RecoveryPolicy policy : kPolicies) {
      TagDfaMachine machine(&evaluator);
      const BudgetedRun reference = RunBudgeted(
          &machine, Format::kCompactTerm, &alphabet, text, 1, {}, policy);
      for (size_t split : kSplits) {
        EXPECT_EQ(RunBudgeted(&machine, Format::kCompactTerm, &alphabet, text,
                              split, {}, policy),
                  reference)
            << "split=" << split << "\ntext: " << text;
      }
    }
  }
}

// XML-lite's one-letter fast path: a tag whose '>' is two or three bytes
// past its '<' is lexed without a loop, its slash read as an index. Every
// edge shape is inserted at each offset of a dense document, so with the
// chunkings below the tag's third and fourth bytes fall on either side of
// a chunk end: empty names, two-letter and space-led names, '>' or '<' or
// '/' in name position, an unknown letter, and an unterminated '<a' or
// '</a' (also as every prefix of the document). Each run must match the
// 1-byte-chunk run, which never lexes in place: counts, stats, the first
// error and the match and span logs.
TEST(StructuralIndex, XmlOneLetterFastPathMatchesTheExactLexer) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  TagDfa evaluator = BuildRegisterlessQueryAutomaton(
      CompileRegex("a.*b", alphabet), /*blind=*/false);
  Rng rng(8803);
  const std::string dense =
      ToXmlLite(alphabet, Encode(RandomTree(60, 3, 0.5, &rng)));
  ASSERT_GT(dense.size(), 140u);
  std::vector<std::string> docs = {dense};
  for (size_t k = 0; k < 70; ++k) {
    for (const char* insert :
         {"<>", "</>", "<ab>", "</ab>", "< a>", "<>>", "</>>", "<<>",
          "<//>", "<z>", "</z>", "<a", "</a"}) {
      docs.push_back(dense.substr(0, k) + insert + dense.substr(k));
    }
    docs.push_back(dense.substr(0, dense.size() - k));
  }
  const size_t kSplits[] = {2, 3, 4, 63, 64, 65, 1 << 20};
  const RecoveryPolicy kPolicies[] = {RecoveryPolicy::kFailFast,
                                      RecoveryPolicy::kSkipMalformedSubtree};
  int errors = 0;
  for (const std::string& text : docs) {
    for (RecoveryPolicy policy : kPolicies) {
      TagDfaMachine machine(&evaluator);
      CollectingSink sink;
      const BudgetedRun reference = RunBudgeted(
          &machine, Format::kXmlLite, &alphabet, text, 1, {}, policy, &sink);
      errors += reference.code != StreamErrorCode::kNone;
      for (size_t split : kSplits) {
        CollectingSink split_sink;
        EXPECT_EQ(RunBudgeted(&machine, Format::kXmlLite, &alphabet, text,
                              split, {}, policy, &split_sink),
                  reference)
            << "split=" << split << "\ntext: " << text;
      }
    }
  }
  // Most edits are errors; the clean document and its clean prefixes are
  // not.
  EXPECT_GT(errors, 1000);
}

// ---------------------------------------------------------------------------
// Emission modes: a run's sink mode (none, verdict-only, spans) is fixed
// per Feed and compiled into the scan run. On every tier and format, a run
// with no sink, a CountingSink and a CollectingSink must agree on counts,
// stats, the first error and matches_emitted, and the collected logs must
// not depend on the chunking.

struct SinkRun {
  std::vector<int64_t> counts;
  StreamCounters counters;
  StreamErrorCode code = StreamErrorCode::kNone;
  int64_t error_offset = -1;
  int64_t matches_emitted = 0;
};

template <typename S>
SinkRun RunWithSink(S& session, MatchSink* sink, const std::string& text,
                    size_t chunk) {
  session.Reset();
  session.set_match_sink(sink);
  bool ok = true;
  for (size_t i = 0; i < text.size() && ok; i += chunk) {
    ok = session.Feed(std::string_view(text).substr(i, chunk));
  }
  if (ok) session.Finish();
  SinkRun run;
  if constexpr (std::is_same_v<S, Session>) {
    run.counts = {session.matches()};
  } else {
    run.counts = session.query_matches();
  }
  const StreamStats stats = session.stats();
  run.counters = stats;
  run.code = session.stream_error().code;
  run.error_offset = session.stream_error().offset;
  run.matches_emitted = stats.matches_emitted;
  return run;
}

template <typename S>
void CheckEmissionModes(S& session, int num_queries,
                        const std::vector<std::string>& texts,
                        const std::string& what) {
  for (const std::string& text : texts) {
    CollectingSink reference;
    RunWithSink(session, &reference, text, 1);
    for (size_t chunk : kChunkings) {
      const SinkRun off = RunWithSink(session, nullptr, text, chunk);
      CountingSink counting(num_queries);
      const SinkRun counted = RunWithSink(session, &counting, text, chunk);
      CollectingSink collecting;
      const SinkRun collected = RunWithSink(session, &collecting, text, chunk);
      const std::string where =
          what + " chunk=" + std::to_string(chunk) + "\ntext: " + text;
      EXPECT_EQ(off.counts, counted.counts) << where;
      EXPECT_EQ(off.counts, collected.counts) << where;
      EXPECT_EQ(off.counters, counted.counters) << where;
      EXPECT_EQ(off.counters, collected.counters) << where;
      EXPECT_EQ(off.code, counted.code) << where;
      EXPECT_EQ(off.code, collected.code) << where;
      EXPECT_EQ(off.error_offset, counted.error_offset) << where;
      EXPECT_EQ(off.error_offset, collected.error_offset) << where;
      EXPECT_EQ(off.matches_emitted, 0) << where;
      EXPECT_EQ(counted.matches_emitted, collected.matches_emitted) << where;
      EXPECT_EQ(counting.total(), counted.matches_emitted) << where;
      EXPECT_EQ(static_cast<int64_t>(collecting.matches().size()),
                collected.matches_emitted)
          << where;
      if (off.code == StreamErrorCode::kNone) {
        EXPECT_EQ(counting.counts(), off.counts) << where;
      }
      EXPECT_EQ(collecting.matches(), reference.matches()) << where;
      EXPECT_EQ(collecting.spans(), reference.spans()) << where;
    }
  }
}

const char* FormatName(Format format) {
  switch (format) {
    case Format::kCompactMarkup:
      return "markup";
    case Format::kXmlLite:
      return "xml";
    case Format::kCompactTerm:
      return "term";
  }
  return "?";
}

PlanOptions OptionsFor(Format format) {
  PlanOptions options;
  options.format = format;
  options.encoding = format == Format::kCompactTerm ? StreamEncoding::kTerm
                                                    : StreamEncoding::kMarkup;
  return options;
}

TEST(StructuralIndex, EmissionModesAgreeOnEveryTier) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Rng rng(5209);
  std::vector<Tree> trees = testing::SampleTrees(8, 3, &rng);
  const RecoveryPolicy kPolicies[] = {RecoveryPolicy::kFailFast,
                                      RecoveryPolicy::kSkipMalformedSubtree};
  for (const FormatCase& fc : kAllFormats) {
    std::vector<std::string> texts;
    for (size_t t = 0; t < trees.size(); ++t) {
      std::vector<std::string> variants =
          Variants(fc.encode(alphabet, Encode(trees[t])), t * 61 + 3);
      texts.insert(texts.end(), variants.begin(), variants.end());
    }
    const PlanOptions options = OptionsFor(fc.format);
    // The single-query rungs: a registerless query (the fused byte table
    // on markup, the generic machine elsewhere), the stackless R3 /a/b
    // (fused DRA) and the stack-tier R4 //a/b.
    for (const char* xpath : {"/a//b", "/a/b", "//a/b"}) {
      auto plan =
          QueryPlan::Compile(Rpq::FromXPath(xpath, alphabet), options);
      ASSERT_TRUE(plan->exact());
      if (std::string(xpath) == "/a/b") {
        ASSERT_NE(plan->fused_dra(), nullptr);
      }
      Session session(plan);
      for (RecoveryPolicy policy : kPolicies) {
        session.selector().set_recovery_policy(policy);
        CheckEmissionModes(session, 1, texts,
                           std::string(FormatName(fc.format)) + " " + xpath);
      }
    }
    // The batch rungs: registerless members alone (R1's fused product) and
    // with a stackless side-car (R2's mixed batch).
    const std::vector<std::vector<BatchQuery>> batches = {
        {{QuerySyntax::kXPath, "/a//b"},
         {QuerySyntax::kXPath, "/b//c"},
         {QuerySyntax::kXPath, "/c//a"}},
        {{QuerySyntax::kXPath, "/a//b"},
         {QuerySyntax::kXPath, "/b//c"},
         {QuerySyntax::kXPath, "/a/b"}},
    };
    for (const std::vector<BatchQuery>& queries : batches) {
      MultiQueryOptions batch_options;
      batch_options.plan = options;
      auto plan = MultiQueryPlan::Compile(queries, alphabet, batch_options);
      BatchSession session(plan);
      for (RecoveryPolicy policy : kPolicies) {
        session.set_recovery_policy(policy);
        CheckEmissionModes(session, plan->num_queries(), texts,
                           std::string(FormatName(fc.format)) + " batch " +
                               MultiTierName(plan->tier()));
      }
    }
  }
}

}  // namespace
}  // namespace sst

// Parity suite for the structural-index execution paths: every fused
// tier that now scans the SIMD stage-1 index instead of touching each
// byte must stay byte-identical — selection counts, final states, and
// the first StreamError (code + offset) — to its per-byte reference.
// The matrix is 30 random trees x {markup, xml-lite, term} x chunk
// splits {1, 3, 16, 64k}, with heavy whitespace padding (runs crossing
// the 64-byte block size), all seven fault-injection mutators, and
// mid-run recovery on the fused tier.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "automata/alphabet.h"
#include "automata/minimize.h"
#include "base/rng.h"
#include "dra/byte_dra_runner.h"
#include "dra/byte_runner.h"
#include "dra/machine.h"
#include "dra/streaming.h"
#include "dra/tag_dfa.h"
#include "engine/multi_query.h"
#include "engine/query_plan.h"
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
  MultiQueryOptions lazy_options;
  lazy_options.eager_state_cap = 1;
  auto fused = MultiQueryPlan::Compile(queries, alphabet, {});
  auto lazy = MultiQueryPlan::Compile(queries, alphabet, lazy_options);
  ASSERT_TRUE(fused->stats().fused_byte_table);
  ASSERT_TRUE(fused->one_scan_eligible());
  ASSERT_EQ(lazy->tier(), MultiTier::kLazyProduct);

  Rng rng(2213);
  std::vector<Tree> trees = testing::SampleTrees(30, 3, &rng);
  for (size_t t = 0; t < trees.size(); ++t) {
    std::string doc = ToCompactMarkup(alphabet, Encode(trees[t]));
    for (const std::string& bytes : Variants(doc, t * 1543 + 41)) {
      std::vector<int64_t> expected = PerByteCounts(*fused, bytes);
      EXPECT_EQ(fused->CountSelections(bytes), expected) << "tree=" << t;
      EXPECT_EQ(lazy->CountSelections(bytes), expected) << "tree=" << t;
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

}  // namespace
}  // namespace sst

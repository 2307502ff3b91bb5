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
#include "dra/multi_runner.h"
#include "dra/streaming.h"
#include "dra/tag_dfa.h"
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

TEST(StructuralIndex, MultiQueryCountsMatchIndependentPerByteRunners) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  std::vector<std::shared_ptr<const QueryPlan>> plans;
  for (const char* xpath : {"/a//b", "/b//c", "/c//a", "/a", "/b"}) {
    auto plan = QueryPlan::Compile(Rpq::FromXPath(xpath, alphabet), {});
    if (plan->kind() == EvaluatorKind::kRegisterless &&
        plan->tag_dfa() != nullptr && plan->fused() != nullptr) {
      plans.push_back(std::move(plan));
    }
  }
  ASSERT_GE(plans.size(), 3u);
  std::vector<const TagDfa*> components;
  for (const auto& plan : plans) components.push_back(plan->tag_dfa());

  auto eager = BuildTagDfaProduct(components, /*state_cap=*/4096);
  ASSERT_TRUE(eager.has_value());
  ByteTagDfaRunner eager_fused(eager->dfa, alphabet);
  MultiTagDfaRunner fused_runner(StreamFormat::kCompactMarkup, &alphabet,
                                 nullptr, &*eager, &eager_fused, nullptr);
  ASSERT_TRUE(fused_runner.one_scan_eligible());

  LazyTagDfaProduct lazy(components, /*state_cap=*/4096);
  MultiTagDfaRunner lazy_runner(StreamFormat::kCompactMarkup, &alphabet,
                                nullptr, nullptr, nullptr, &lazy);

  Rng rng(2213);
  std::vector<Tree> trees = testing::SampleTrees(30, 3, &rng);
  for (size_t t = 0; t < trees.size(); ++t) {
    std::string doc = ToCompactMarkup(alphabet, Encode(trees[t]));
    for (const std::string& bytes : Variants(doc, t * 1543 + 41)) {
      std::vector<int64_t> expected;
      for (const auto& plan : plans) {
        expected.push_back(plan->fused()->CountSelectionsPerByte(bytes));
      }
      EXPECT_EQ(fused_runner.CountSelections(bytes), expected)
          << "tree=" << t;
      EXPECT_EQ(lazy_runner.CountSelections(bytes), expected) << "tree=" << t;
    }
  }
}

TEST(StructuralIndex, MixedBatchCountsMatchPerByteReferences) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  std::vector<std::shared_ptr<const QueryPlan>> reg_plans;
  for (const char* xpath : {"/a//b", "/b//c"}) {
    auto plan = QueryPlan::Compile(Rpq::FromXPath(xpath, alphabet), {});
    if (plan->kind() == EvaluatorKind::kRegisterless &&
        plan->fused() != nullptr) {
      reg_plans.push_back(std::move(plan));
    }
  }
  std::vector<std::shared_ptr<const QueryPlan>> dra_plans;
  for (const char* xpath : {"/a/b", "/a/b//c", "/c/a"}) {
    auto plan = QueryPlan::Compile(Rpq::FromXPath(xpath, alphabet), {});
    if (plan->kind() == EvaluatorKind::kStackless &&
        plan->fused_dra() != nullptr) {
      dra_plans.push_back(std::move(plan));
    }
  }
  if (reg_plans.size() < 2 || dra_plans.empty()) {
    GTEST_SKIP() << "query shapes reclassified; mixed batch unavailable";
  }
  std::vector<const TagDfa*> components;
  for (const auto& plan : reg_plans) components.push_back(plan->tag_dfa());
  auto eager = BuildTagDfaProduct(components, /*state_cap=*/4096);
  ASSERT_TRUE(eager.has_value());
  ByteTagDfaRunner eager_fused(eager->dfa, alphabet);
  std::vector<const ByteDraRunner*> dras;
  for (const auto& plan : dra_plans) dras.push_back(plan->fused_dra());
  MultiTagDfaRunner mixed(StreamFormat::kCompactMarkup, &alphabet, nullptr,
                          &*eager, &eager_fused, nullptr, dras);
  ASSERT_EQ(mixed.tier(), MultiTier::kMixed);

  Rng rng(2217);
  std::vector<Tree> trees = testing::SampleTrees(30, 3, &rng);
  for (size_t t = 0; t < trees.size(); ++t) {
    std::string doc = ToCompactMarkup(alphabet, Encode(trees[t]));
    for (const std::string& bytes : Variants(doc, t * 2689 + 13)) {
      std::vector<int64_t> expected;
      for (const auto& plan : reg_plans) {
        expected.push_back(plan->fused()->CountSelectionsPerByte(bytes));
      }
      for (const ByteDraRunner* dra : dras) {
        expected.push_back(dra->CountSelectionsPerByte(bytes));
      }
      EXPECT_EQ(mixed.CountSelections(bytes), expected) << "tree=" << t;
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

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "automata/alphabet.h"
#include "base/rng.h"
#include "dra/byte_dra_runner.h"
#include "dra/stream_error.h"
#include "dra/streaming.h"
#include "engine/query_plan.h"
#include "engine/session.h"
#include "query/rpq.h"
#include "test_util.h"
#include "testing/fault_injection.h"
#include "testing/reference_validator.h"
#include "trees/encoding.h"
#include "trees/generators.h"
#include "trees/ground_truth.h"

namespace sst {
namespace {

// The stackless fused tier end to end: QueryPlan materializes the
// Lemma 3.8 machine into a restricted DRA, flattens it to a byte table
// (ByteDraRunner), and Sessions scan on the kFusedDraTable rung. Every
// test here pins the fused path against a slower independent oracle.

std::shared_ptr<const QueryPlan> CompileXPath(const std::string& xpath,
                                              const Alphabet& alphabet,
                                              PlanOptions options = {}) {
  return QueryPlan::Compile(Rpq::FromXPath(xpath, alphabet), options);
}

// Stackless queries over {a, b, c} whose plans carry the fused DRA rung,
// filtered by verdict so the suite never depends on the classification of
// any one query shape.
std::vector<std::string> StacklessFusedXPaths(const Alphabet& alphabet) {
  std::vector<std::string> xpaths;
  for (const char* xpath : {"/a/b", "/b/*//c", "/a/b//c", "/c/a"}) {
    auto plan = CompileXPath(xpath, alphabet);
    if (plan->kind() == EvaluatorKind::kStackless &&
        plan->fused_dra() != nullptr) {
      xpaths.push_back(xpath);
    }
  }
  return xpaths;
}

int64_t GroundTruthCount(const Dfa& dfa, const Tree& tree) {
  int64_t selected = 0;
  for (bool b : SelectNodes(dfa, tree)) selected += static_cast<int64_t>(b);
  return selected;
}

bool DriveChunked(StreamingSelector* selector, const std::string& text,
                  size_t chunk) {
  selector->Reset();
  bool ok = true;
  for (size_t i = 0; i < text.size() && ok; i += chunk) {
    ok = selector->Feed(std::string_view(text).substr(i, chunk));
  }
  if (ok) ok = selector->Finish();
  return ok;
}

// Satellite matrix: 30 random trees x {markup, xml-lite, term} x chunk
// splits {1, 3, 16}. On compact markup the session runs the fused DRA
// rung; the other formats exercise the same plan on the generic machine.
// All of them must report exactly the ground-truth selection count.
TEST(StacklessFused, ParityAcrossFormatsAndChunkings) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  std::vector<std::string> xpaths = StacklessFusedXPaths(alphabet);
  ASSERT_GE(xpaths.size(), 2u);

  struct FormatCase {
    const char* name;
    StreamEncoding encoding;
    StreamFormat format;
  };
  const FormatCase kFormats[] = {
      {"markup", StreamEncoding::kMarkup, StreamFormat::kCompactMarkup},
      {"xml-lite", StreamEncoding::kMarkup, StreamFormat::kXmlLite},
      {"term", StreamEncoding::kTerm, StreamFormat::kCompactTerm},
  };

  Rng rng(131);
  std::vector<Tree> trees = testing::SampleTrees(30, 3, &rng);
  for (const std::string& xpath : xpaths) {
    for (const FormatCase& format_case : kFormats) {
      PlanOptions options;
      options.encoding = format_case.encoding;
      options.format = format_case.format;
      auto plan = CompileXPath(xpath, alphabet, options);
      ASSERT_TRUE(plan->exact()) << xpath;
      // Every format has the fused tier: the steppers are symbol-keyed,
      // and term runs the blind (Thm B.2) DRA.
      EXPECT_NE(plan->fused_dra(), nullptr)
          << xpath << " " << format_case.name;
      Session session(plan);
      EXPECT_EQ(session.selector().active_tier(),
                StreamingSelector::Tier::kFusedDraTable)
          << xpath << " " << format_case.name;
      for (const Tree& tree : trees) {
        EventStream events = Encode(tree);
        std::string text;
        switch (format_case.format) {
          case StreamFormat::kCompactMarkup:
            text = ToCompactMarkup(alphabet, events);
            break;
          case StreamFormat::kXmlLite:
            text = ToXmlLite(alphabet, events);
            break;
          case StreamFormat::kCompactTerm:
            text = ToCompactTerm(alphabet, events);
            break;
        }
        int64_t want = GroundTruthCount(plan->minimal_dfa(), tree);
        for (size_t chunk : {size_t{1}, size_t{3}, size_t{16}}) {
          ASSERT_TRUE(DriveChunked(&session.selector(), text, chunk))
              << format_case.name << ": " << text;
          EXPECT_EQ(session.matches(), want)
              << xpath << " " << format_case.name << " chunk " << chunk
              << ": " << text;
        }
      }
    }
  }
}

// Register stress: deep chains (trees of depth in the hundreds) force the
// depth registers through long load/compare sequences and repeated SCC
// re-entries; the fused table must track the interpreter's answer exactly.
TEST(StacklessFused, DeepChainRegisterStress) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  std::vector<std::string> xpaths = StacklessFusedXPaths(alphabet);
  ASSERT_GE(xpaths.size(), 2u);
  Rng rng(137);
  for (const std::string& xpath : xpaths) {
    auto plan = CompileXPath(xpath, alphabet);
    ASSERT_NE(plan->fused_dra(), nullptr) << xpath;
    Session session(plan);
    for (int trial = 0; trial < 25; ++trial) {
      Tree tree = RandomTree(300, 3, 0.92, &rng);  // deep, chain-like
      std::string doc = ToCompactMarkup(alphabet, Encode(tree));
      int64_t want = GroundTruthCount(plan->minimal_dfa(), tree);
      ASSERT_TRUE(DriveChunked(&session.selector(), doc, 16)) << xpath;
      EXPECT_EQ(session.matches(), want) << xpath;
      // Byte-level entry points of the fused runner agree too.
      EXPECT_EQ(plan->fused_dra()->CountSelections(doc), want) << xpath;
    }
  }
}

// Recovery matrix: StreamLimits.max_depth x kSkipMalformedSubtree. Depth
// overflows are recoverable errors; the fused session must stay on its
// tier through the resynchronization, keep scanning, and end with
// byte-identical stats to a session that ran the SAME materialized DRA on
// the generic tier from the start.
TEST(StacklessFused, MaxDepthSkipRecoveryMatchesGenericTier) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  std::vector<std::string> xpaths = StacklessFusedXPaths(alphabet);
  ASSERT_GE(xpaths.size(), 2u);
  Rng rng(139);
  std::vector<Tree> trees = testing::SampleTrees(30, 3, &rng);

  for (const std::string& xpath : xpaths) {
    auto plan = CompileXPath(xpath, alphabet);
    ASSERT_NE(plan->fused_dra(), nullptr) << xpath;

    Session fused_session(plan);
    // Generic reference: the same plan's machine (a DraRunner over the
    // same materialized DRA) behind a selector with no fused tables.
    std::unique_ptr<StreamMachine> reference_machine = plan->NewMachine();
    StreamingSelector generic(reference_machine.get(),
                              plan->options().format, &plan->alphabet(),
                              &plan->scanner_tables(), /*fused=*/nullptr,
                              /*fused_dra=*/nullptr);
    ASSERT_EQ(generic.active_tier(),
              StreamingSelector::Tier::kGenericMachine);

    StreamLimits limits;
    limits.max_depth = 4;
    for (StreamingSelector* selector :
         {&fused_session.selector(), &generic}) {
      selector->set_recovery_policy(RecoveryPolicy::kSkipMalformedSubtree);
      selector->set_limits(limits);
    }

    bool saw_recovery = false;
    for (const Tree& tree : trees) {
      std::string doc = ToCompactMarkup(alphabet, Encode(tree));
      for (size_t chunk : {size_t{1}, size_t{7}}) {
        bool fused_ok = DriveChunked(&fused_session.selector(), doc, chunk);
        bool generic_ok = DriveChunked(&generic, doc, chunk);
        EXPECT_EQ(fused_ok, generic_ok) << xpath << ": " << doc;
        StreamStats fused_stats = fused_session.stats();
        StreamStats generic_stats = generic.stats();
        EXPECT_EQ(fused_stats.matches, generic_stats.matches)
            << xpath << " chunk " << chunk << ": " << doc;
        EXPECT_EQ(fused_stats.errors_recovered,
                  generic_stats.errors_recovered)
            << xpath << ": " << doc;
        EXPECT_EQ(fused_stats.subtrees_skipped,
                  generic_stats.subtrees_skipped)
            << xpath << ": " << doc;
        EXPECT_EQ(fused_stats.error_offset, generic_stats.error_offset)
            << xpath << ": " << doc;
        if (fused_stats.errors_recovered > 0) {
          saw_recovery = true;
          // The recovered events ran on the machine, synced with the
          // stepper around them: the fused tier never left.
          EXPECT_EQ(fused_session.selector().active_tier(),
                    StreamingSelector::Tier::kFusedDraTable);
        }
      }
    }
    EXPECT_TRUE(saw_recovery) << xpath;
  }
}

// Fail-fast error parity on faulted documents: the chunked fused session
// and the naive reference validator (driving the plan's own machine) must
// report the same first StreamError (code + offset) and the same partial
// counts.
TEST(StacklessFused, FirstErrorMatchesReference) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  std::vector<std::string> xpaths = StacklessFusedXPaths(alphabet);
  ASSERT_GE(xpaths.size(), 2u);
  Rng rng(149);
  FaultInjector injector(149);

  for (const std::string& xpath : xpaths) {
    auto plan = CompileXPath(xpath, alphabet);
    ASSERT_NE(plan->fused_dra(), nullptr) << xpath;
    Session session(plan);
    std::unique_ptr<StreamMachine> reference = plan->NewMachine();
    for (const Tree& tree : testing::SampleTrees(30, 3, &rng)) {
      std::string doc = ToCompactMarkup(alphabet, Encode(tree));
      std::vector<std::string> inputs = {doc};
      for (int kind = 0; kind < kNumFaultKinds; ++kind) {
        std::string mutated = doc;
        injector.Apply(static_cast<FaultKind>(kind), &mutated);
        inputs.push_back(std::move(mutated));
      }
      for (const std::string& input : inputs) {
        testing::ValidatedRun run =
            testing::ReferenceValidate(reference.get(), alphabet, input);
        for (size_t chunk : {size_t{1}, size_t{16}}) {
          bool ok = DriveChunked(&session.selector(), input, chunk);
          EXPECT_EQ(ok, run.ok()) << xpath << ": " << input;
          EXPECT_EQ(session.stream_error().code, run.error.code)
              << xpath << " chunk " << chunk << ": " << input;
          EXPECT_EQ(session.stream_error().offset, run.error.offset)
              << xpath << " chunk " << chunk << ": " << input;
          EXPECT_EQ(session.matches(), run.matches)
              << xpath << " chunk " << chunk << ": " << input;
        }
      }
    }
  }
}

// The fused DRA must agree with the unfused Lemma 3.8 interpreter over
// the plan's own blueprint (which exports no DRA, so it runs the generic
// tier), on markup and xml-lite alike. Counts per document, not just in
// aggregate.
TEST(StacklessFused, FusedAndUnfusedPlansAgreePerDocument) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  std::vector<std::string> xpaths = StacklessFusedXPaths(alphabet);
  ASSERT_GE(xpaths.size(), 2u);
  Rng rng(151);
  for (const std::string& xpath : xpaths) {
    auto fused_plan = CompileXPath(xpath, alphabet);
    PlanOptions xml;
    xml.format = StreamFormat::kXmlLite;
    auto xml_plan = CompileXPath(xpath, alphabet, xml);
    ASSERT_NE(fused_plan->fused_dra(), nullptr);
    ASSERT_NE(xml_plan->fused_dra(), nullptr);
    Session fused_session(fused_plan);
    Session xml_session(xml_plan);
    StacklessQueryEvaluator interpreter(fused_plan->stackless());
    StreamingSelector unfused(&interpreter, StreamFormat::kXmlLite,
                              &xml_plan->alphabet());
    ASSERT_EQ(unfused.active_tier(), StreamingSelector::Tier::kGenericMachine);
    for (const Tree& tree : testing::SampleTrees(25, 3, &rng)) {
      EventStream events = Encode(tree);
      std::string markup = ToCompactMarkup(alphabet, events);
      std::string xml_lite = ToXmlLite(alphabet, events);
      ASSERT_TRUE(DriveChunked(&fused_session.selector(), markup, 16));
      ASSERT_TRUE(DriveChunked(&xml_session.selector(), xml_lite, 16));
      ASSERT_TRUE(DriveChunked(&unfused, xml_lite, 16));
      EXPECT_EQ(fused_session.matches(), unfused.matches())
          << xpath << ": " << markup;
      EXPECT_EQ(xml_session.matches(), unfused.matches())
          << xpath << ": " << xml_lite;
    }
  }
}

}  // namespace
}  // namespace sst

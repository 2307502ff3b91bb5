// Robustness sweeps: random and adversarial byte/event streams must never
// crash any component — parsers reject malformed input with an error, and
// machines behave deterministically on invalid encodings (the paper's
// automata may accept or reject invalid encodings arbitrarily, but the
// implementations must stay memory-safe and terminating).

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "automata/alphabet.h"
#include "automata/minimize.h"
#include "base/rng.h"
#include "dra/byte_runner.h"
#include "dra/machine.h"
#include "dra/paper_examples.h"
#include "dra/streaming.h"
#include "dra/tag_dfa.h"
#include "engine/query_plan.h"
#include "eval/el_synopsis.h"
#include "eval/stack_evaluator.h"
#include "eval/stackless_query.h"
#include "eval/registerless_query.h"
#include "query/rpq.h"
#include "test_util.h"
#include "testing/fault_injection.h"
#include "testing/reference_validator.h"
#include "trees/encoding.h"

namespace sst {
namespace {

// Iteration multiplier for the scheduled long-fuzz CI job: SST_FUZZ_ITERS
// scales every sweep (default 1 keeps the suite fast for tier-1 runs).
int FuzzIters() {
  const char* env = std::getenv("SST_FUZZ_ITERS");
  if (env == nullptr) return 1;
  int iters = std::atoi(env);
  return iters > 0 ? iters : 1;
}

std::string RandomBytes(Rng* rng, int length, const char* pool) {
  std::string bytes;
  size_t pool_size = std::string(pool).size();
  for (int i = 0; i < length; ++i) {
    bytes.push_back(pool[rng->NextBelow(pool_size)]);
  }
  return bytes;
}

TEST(Fuzz, StreamingSelectorSurvivesRandomBytes) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Dfa dfa = CompileRegex("a.*b", alphabet);
  Rng rng(101);
  const char* pools[] = {"abcABC", "abcABC{}<>/x ", "<>/ab c}"};
  for (auto format : {StreamingSelector::Format::kCompactMarkup,
                      StreamingSelector::Format::kXmlLite,
                      StreamingSelector::Format::kCompactTerm}) {
    for (int trial = 0; trial < 300; ++trial) {
      StackQueryEvaluator machine(&dfa);
      StreamingSelector selector(&machine, format, &alphabet);
      std::string bytes = RandomBytes(
          &rng, 1 + static_cast<int>(rng.NextBelow(60)),
          pools[trial % 3]);
      bool fed = selector.Feed(bytes);
      bool finished = fed && selector.Finish();
      if (!finished) {
        EXPECT_FALSE(selector.error().empty());
      } else {
        // Whatever parsed must have been a balanced document.
        EXPECT_TRUE(selector.document_complete());
        EXPECT_GT(selector.nodes(), 0);
      }
    }
  }
}

TEST(Fuzz, ParsersRejectOrRoundTrip) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Rng rng(103);
  for (int trial = 0; trial < 500; ++trial) {
    std::string bytes =
        RandomBytes(&rng, 1 + static_cast<int>(rng.NextBelow(30)),
                    "abcABC{}<> /");
    std::optional<EventStream> markup = ParseCompactMarkup(alphabet, bytes);
    if (markup.has_value() && IsValidEncoding(*markup)) {
      EXPECT_EQ(ToCompactMarkup(alphabet, *markup),
                [&] {
                  std::string stripped;
                  for (char c : bytes) {
                    if (!std::isspace(static_cast<unsigned char>(c))) {
                      stripped.push_back(c);
                    }
                  }
                  return stripped;
                }());
    }
    std::optional<EventStream> term = ParseCompactTerm(alphabet, bytes);
    if (term.has_value()) {
      // May still be unbalanced; Decode is the arbiter and must not crash.
      (void)Decode(*term);
    }
  }
}

TEST(Fuzz, MachinesSurviveInvalidEventStreams) {
  // Random (possibly unbalanced, mismatched) event streams through every
  // machine type; only termination and memory-safety are asserted.
  Alphabet alphabet = Alphabet::FromLetters("ab");
  Dfa dfa = CompileRegex("a.*b", alphabet);
  StackQueryEvaluator stack(&dfa);
  StacklessQueryEvaluator stackless(dfa, false);
  ElSynopsisRecognizer synopsis(dfa, false);
  Dra same_depth = BuildSameDepthDra(2, 0);
  DraRunner dra(&same_depth);
  Rng rng(107);
  for (int trial = 0; trial < 300; ++trial) {
    EventStream events;
    int length = 1 + static_cast<int>(rng.NextBelow(40));
    for (int i = 0; i < length; ++i) {
      events.push_back(
          {rng.NextBool(0.5), static_cast<Symbol>(rng.NextBelow(2))});
    }
    for (StreamMachine* machine :
         {static_cast<StreamMachine*>(&stack),
          static_cast<StreamMachine*>(&stackless),
          static_cast<StreamMachine*>(&synopsis),
          static_cast<StreamMachine*>(&dra)}) {
      machine->Reset();
      for (const TagEvent& event : events) {
        if (event.open) {
          machine->OnOpen(event.symbol);
        } else {
          machine->OnClose(event.symbol);
        }
      }
      (void)machine->InAcceptingState();
    }
  }
}

// The observable outcome of one selector run, for differential checks.
struct FuzzOutcome {
  bool finished = false;
  int64_t nodes = 0;
  int64_t matches = 0;
  int64_t events = 0;
  int64_t errors_recovered = 0;
  int64_t subtrees_skipped = 0;
  StreamError error;

  friend bool operator==(const FuzzOutcome&, const FuzzOutcome&) = default;
};

FuzzOutcome RunSelector(StreamMachine* machine,
                        StreamingSelector::Format format, Alphabet* alphabet,
                        const std::vector<std::string_view>& pieces,
                        RecoveryPolicy policy, const StreamLimits& limits) {
  machine->Reset();
  StreamingSelector selector(machine, format, alphabet);
  selector.set_recovery_policy(policy);
  selector.set_limits(limits);
  bool fed = true;
  for (std::string_view piece : pieces) {
    if (!selector.Feed(piece)) {
      fed = false;
      break;
    }
  }
  FuzzOutcome out;
  out.finished = fed && selector.Finish();
  out.nodes = selector.nodes();
  out.matches = selector.matches();
  out.events = selector.stats().events;
  out.errors_recovered = selector.stats().errors_recovered;
  out.subtrees_skipped = selector.stats().subtrees_skipped;
  out.error = selector.stream_error();
  return out;
}

// Seeded fault-injection sweep: mutate valid documents of every format,
// run under every recovery policy, and require (a) no crash, (b) a
// structured error whenever the run did not finish, and (c) the same
// outcome when the bytes are re-split into chunks clustered around the
// error offset — the splits most likely to upset lexer or recovery
// state spanning a boundary.
TEST(Fuzz, MutatedDocumentsAreChunkSplitInvariant) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Dfa dfa = CompileRegex("a.*b", alphabet);
  StreamLimits limits;
  limits.max_depth = 256;
  const RecoveryPolicy policies[] = {RecoveryPolicy::kFailFast,
                                     RecoveryPolicy::kSkipMalformedSubtree,
                                     RecoveryPolicy::kAutoClose};
  for (int iter = 0; iter < FuzzIters(); ++iter) {
    Rng rng(900 + iter);
    std::vector<Tree> trees = testing::SampleTrees(20, 3, &rng);
    for (size_t t = 0; t < trees.size(); ++t) {
      EventStream events = Encode(trees[t]);
      struct Doc {
        StreamingSelector::Format format;
        std::string text;
      };
      const Doc docs[] = {
          {StreamingSelector::Format::kCompactMarkup,
           ToCompactMarkup(alphabet, events)},
          {StreamingSelector::Format::kXmlLite, ToXmlLite(alphabet, events)},
          {StreamingSelector::Format::kCompactTerm,
           ToCompactTerm(alphabet, events)},
      };
      for (const Doc& doc : docs) {
        for (int kind = 0; kind < kNumFaultKinds; ++kind) {
          std::string mutated = doc.text;
          FaultInjector injector(iter * 7919 + t * 131 + kind);
          injector.Apply(static_cast<FaultKind>(kind), &mutated);
          for (RecoveryPolicy policy : policies) {
            StackQueryEvaluator machine(&dfa);
            FuzzOutcome whole =
                RunSelector(&machine, doc.format, &alphabet,
                            {std::string_view(mutated)}, policy, limits);
            if (!whole.finished) {
              EXPECT_NE(whole.error.code, StreamErrorCode::kNone);
            }
            // Re-split around the error (or around the mutation when the
            // run recovered), byte by byte in a +/-2 window.
            size_t focus = whole.error.offset >= 0
                               ? static_cast<size_t>(whole.error.offset)
                               : mutated.size() / 2;
            size_t lo = focus > 2 ? focus - 2 : 0;
            for (size_t cut = lo;
                 cut <= focus + 2 && cut <= mutated.size(); ++cut) {
              std::vector<size_t> cuts = {cut};
              FuzzOutcome split =
                  RunSelector(&machine, doc.format, &alphabet,
                              SplitAt(mutated, cuts), policy, limits);
              ASSERT_EQ(split, whole)
                  << "cut=" << cut << " policy=" << RecoveryPolicyName(policy)
                  << " doc=" << mutated;
            }
            // And a few random schedules for good measure.
            for (int trial = 0; trial < 3; ++trial) {
              std::vector<size_t> cuts =
                  RandomCuts(injector.rng(), mutated.size(), 5);
              FuzzOutcome split =
                  RunSelector(&machine, doc.format, &alphabet,
                              SplitAt(mutated, cuts), policy, limits);
              ASSERT_EQ(split, whole)
                  << "policy=" << RecoveryPolicyName(policy)
                  << " doc=" << mutated;
            }
          }
        }
      }
    }
  }
}

// Differential: on compact markup, every single-query rung of the
// streaming selector (fail-fast) and the naive reference validator are two
// implementations of one specification. Under each limit of the sweep and
// each chunking they must report the identical first StreamError (code,
// offset, depth, labels) and the same partial counters, on clean documents
// and on all seven fault kinds.
TEST(Fuzz, SelectorRungsAgreeWithReferenceUnderLimitsAndChunkings) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Dfa query = CompileRegex("a.*b", alphabet);
  TagDfa evaluator = BuildRegisterlessQueryAutomaton(query, /*blind=*/false);
  auto dra_plan = QueryPlan::Compile(Rpq::FromXPath("/a/b", alphabet), {});
  ASSERT_NE(dra_plan->fused_dra(), nullptr);

  // Every rung borrows the same scanner tables; the fused tables passed
  // alongside pick the rung, and none at all pins the generic tier.
  const ScannerTables tables =
      ScannerTables::Build(StreamFormat::kCompactMarkup, alphabet);
  ByteTagDfaRunner fused(evaluator, alphabet);
  TagDfaMachine dfa_machine(&evaluator);
  TagDfaMachine dfa_reference(&evaluator);
  std::unique_ptr<StreamMachine> dra_machine = dra_plan->NewMachine();
  std::unique_ptr<StreamMachine> dra_reference = dra_plan->NewMachine();
  struct Rung {
    const char* name;
    StreamMachine* machine;    // driven by the selector
    StreamMachine* reference;  // driven by the reference validator
    const ByteTagDfaRunner* fused;
    const ByteDraRunner* fused_dra;
    StreamingSelector::Tier tier;
  };
  const Rung rungs[] = {
      {"fused-byte", &dfa_machine, &dfa_reference, &fused, nullptr,
       StreamingSelector::Tier::kFusedByteTable},
      {"fused-dra", dra_machine.get(), dra_reference.get(), nullptr,
       dra_plan->fused_dra(), StreamingSelector::Tier::kFusedDraTable},
      {"generic", &dfa_machine, &dfa_reference, nullptr, nullptr,
       StreamingSelector::Tier::kGenericMachine},
  };
  const std::vector<StreamLimits> sweep = testing::LimitSweep();
  std::vector<int> failures(sweep.size(), 0);

  for (int iter = 0; iter < FuzzIters(); ++iter) {
    Rng rng(1700 + iter);
    std::vector<Tree> trees = testing::SampleTrees(20, 3, &rng);
    for (size_t t = 0; t < trees.size(); ++t) {
      std::string doc = ToCompactMarkup(alphabet, Encode(trees[t]));
      std::vector<std::string> inputs = {doc};
      for (int kind = 0; kind < kNumFaultKinds; ++kind) {
        std::string mutated = doc;
        FaultInjector injector(iter * 524287 + t * 8191 + kind);
        injector.Apply(static_cast<FaultKind>(kind), &mutated);
        inputs.push_back(std::move(mutated));
      }
      for (size_t l = 0; l < sweep.size(); ++l) {
        for (const Rung& rung : rungs) {
          StreamingSelector selector(rung.machine,
                                     StreamFormat::kCompactMarkup, &alphabet,
                                     &tables, rung.fused, rung.fused_dra);
          selector.set_limits(sweep[l]);
          ASSERT_EQ(selector.active_tier(), rung.tier) << rung.name;
          for (const std::string& input : inputs) {
            testing::ValidatedRun expected = testing::ReferenceValidate(
                rung.reference, alphabet, input, sweep[l]);
            if (!expected.ok()) ++failures[l];
            for (size_t chunk : {size_t{1}, size_t{3}, size_t{16},
                                 std::max<size_t>(input.size(), 1)}) {
              selector.Reset();
              bool ok = true;
              for (size_t i = 0; ok && i < input.size(); i += chunk) {
                ok = selector.Feed(std::string_view(input).substr(i, chunk));
              }
              ok = ok && selector.Finish();
              const std::string where = std::string(rung.name) +
                                        " limits#" + std::to_string(l) +
                                        " chunk=" + std::to_string(chunk) +
                                        " doc=" + input;
              ASSERT_EQ(ok, expected.ok()) << where;
              ASSERT_EQ(selector.stream_error(), expected.error) << where;
              ASSERT_EQ(selector.matches(), expected.matches) << where;
              ASSERT_EQ(selector.nodes(), expected.nodes) << where;
              ASSERT_EQ(selector.stats().events, expected.events) << where;
              ASSERT_EQ(selector.stats().max_depth, expected.max_depth)
                  << where;
            }
          }
        }
      }
    }
  }
  // Every tight guard must actually fire somewhere beyond the fault-only
  // failures of the unlimited run.
  for (size_t l = 1; l < sweep.size(); ++l) {
    EXPECT_GT(failures[l], failures[0]) << "limits#" << l;
  }
}

TEST(Fuzz, DraRunnerDepthCanGoNegativeWithoutHarm) {
  // Closing tags at depth 0 push the counter negative; the model is
  // defined over Z and the runner must follow it.
  Dra same_depth = BuildSameDepthDra(2, 0);
  DraRunner runner(&same_depth);
  runner.Reset();
  for (int i = 0; i < 10; ++i) runner.OnClose(0);
  EXPECT_EQ(runner.depth(), -10);
  for (int i = 0; i < 20; ++i) runner.OnOpen(0);
  EXPECT_EQ(runner.depth(), 10);
}

}  // namespace
}  // namespace sst

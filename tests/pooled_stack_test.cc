// Tests for the refcounted pooled persistent stack (base/pooled_stack.h)
// and the rewritten StackQueryEvaluator on top of it: behavioral parity
// with a plain std::vector stack and with the trees' ground truth, zero
// heap allocation in steady state, O(1) snapshots whose shared
// suffixes survive pop/push churn, iterative release of million-deep
// chains, and Reset() releasing every retained checkpoint slot.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "automata/alphabet.h"
#include "automata/minimize.h"
#include "base/pooled_stack.h"
#include "base/rng.h"
#include "dra/streaming.h"
#include "engine/query_plan.h"
#include "eval/stack_evaluator.h"
#include "query/rpq.h"
#include "test_util.h"
#include "testing/fault_injection.h"
#include "trees/encoding.h"
#include "trees/ground_truth.h"

// Global allocation counter so tests can assert that the pooled stack's
// steady state performs no heap allocation (acceptance criterion of the
// incremental-reevaluation PR). Counts every operator new in the binary;
// tests only look at deltas.
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

using IntStack = PooledStack<int>;

// --- PooledStack unit behavior ----------------------------------------

TEST(PooledStack, PushPopLifo) {
  IntStack stack;
  EXPECT_TRUE(stack.empty());
  EXPECT_EQ(stack.size(), 0u);
  // Deep enough to cross several chunk boundaries both ways.
  const int depth = static_cast<int>(IntStack::kChunkCapacity) * 3 + 7;
  for (int i = 0; i < depth; ++i) stack.Push(i);
  EXPECT_EQ(stack.size(), static_cast<uint64_t>(depth));
  for (int i = depth - 1; i >= 0; --i) {
    EXPECT_EQ(stack.top(), i);
    stack.Pop();
  }
  EXPECT_TRUE(stack.empty());
}

TEST(PooledStack, SnapshotSurvivesPopAndPushChurn) {
  IntStack stack;
  for (int i = 0; i < 5; ++i) stack.Push(i);
  IntStack::Snapshot snap = stack.TakeSnapshot();
  ASSERT_NE(snap.head, nullptr);
  EXPECT_EQ(IntStack::SnapshotSize(snap), 5u);

  // Mutate the live stack away from the snapshot: the pushes land in a
  // copy-on-write chunk, never overwriting what the snapshot can see.
  stack.Pop();
  stack.Pop();
  stack.Push(77);
  stack.Push(78);
  stack.Push(79);
  EXPECT_EQ(stack.size(), 6u);
  EXPECT_FALSE(stack.EqualsSnapshot(snap));

  // ...then restore it: the snapshot's values are intact.
  stack.Restore(snap, 5);
  EXPECT_EQ(stack.size(), 5u);
  for (int i = 4; i >= 0; --i) {
    EXPECT_EQ(stack.top(), i);
    stack.Pop();
  }

  // The snapshot still holds its own reference and restores again.
  stack.Restore(snap, 5);
  EXPECT_EQ(stack.size(), 5u);
  EXPECT_TRUE(stack.EqualsSnapshot(snap));
  stack.Release(snap);
  stack.Clear();
}

TEST(PooledStack, EmptySnapshotRoundTrips) {
  IntStack stack;
  IntStack::Snapshot snap = stack.TakeSnapshot();
  EXPECT_EQ(snap.head, nullptr);
  stack.Push(1);
  stack.Restore(snap, 0);
  EXPECT_TRUE(stack.empty());
  stack.Release(snap);  // releasing the empty snapshot is a no-op
}

TEST(PooledStack, SnapshotsShareCommonSuffixStructurally) {
  const int chunk = static_cast<int>(IntStack::kChunkCapacity);
  IntStack stack;
  for (int i = 0; i < 4 * chunk; ++i) stack.Push(i);
  IntStack::Snapshot deep = stack.TakeSnapshot();
  for (int i = 0; i < 2 * chunk; ++i) stack.Pop();
  IntStack::Snapshot shallow = stack.TakeSnapshot();

  // The shallow snapshot's chunk IS a chunk of the deep chain — suffix
  // sharing is physical, not a copy.
  const IntStack::Node* walk = deep.head;
  while (walk != nullptr && walk != shallow.head) walk = walk->prev;
  EXPECT_EQ(walk, shallow.head);

  stack.Release(deep);
  // After the deep chain is released, the shallow snapshot (and the live
  // stack, which sits at the same position) still read correctly.
  EXPECT_EQ(stack.size(), static_cast<uint64_t>(2 * chunk));
  EXPECT_EQ(stack.top(), 2 * chunk - 1);
  EXPECT_TRUE(stack.EqualsSnapshot(shallow));
  stack.Release(shallow);
  stack.Clear();
}

TEST(PooledStack, EqualityComparesByValueAndShortCircuitsSharedTails) {
  IntStack pool;
  for (int i = 0; i < 8; ++i) pool.Push(i);
  IntStack::Snapshot a = pool.TakeSnapshot();
  // Divergent top over a shared tail.
  pool.Pop();
  pool.Push(99);
  IntStack::Snapshot b = pool.TakeSnapshot();
  EXPECT_FALSE(IntStack::SnapshotsEqual(a, b));

  // Rebuild the same value on top: equal by value though the live chain
  // now tops out in a different (copy-on-write) chunk.
  pool.Pop();
  pool.Push(7);
  IntStack::Snapshot c = pool.TakeSnapshot();
  EXPECT_NE(a.head, c.head);
  EXPECT_TRUE(IntStack::SnapshotsEqual(a, c));

  // Different depths are never equal.
  pool.Push(8);
  EXPECT_FALSE(pool.EqualsSnapshot(a));

  pool.Release(a);
  pool.Release(b);
  pool.Release(c);
  pool.Clear();
}

TEST(PooledStack, SnapshotValuesSurviveDeepChurnAcrossChunkBoundaries) {
  // A snapshot taken mid-chunk must keep every value it can see while the
  // live stack pops below it and pushes past it repeatedly — the ApplyEdit
  // rescan pattern. Exercises copy-on-write at and around boundaries.
  const int chunk = static_cast<int>(IntStack::kChunkCapacity);
  IntStack stack;
  Rng rng(91);
  std::vector<int> shadow;
  for (int i = 0; i < 3 * chunk + chunk / 2; ++i) {
    stack.Push(i * 3);
    shadow.push_back(i * 3);
  }
  IntStack::Snapshot snap = stack.TakeSnapshot();
  const std::vector<int> frozen = shadow;

  for (int round = 0; round < 200; ++round) {
    const int pops = static_cast<int>(rng.NextBelow(
        static_cast<uint64_t>(stack.size()) + 1));
    for (int i = 0; i < pops; ++i) {
      stack.Pop();
      shadow.pop_back();
    }
    const int pushes = static_cast<int>(rng.NextBelow(80));
    for (int i = 0; i < pushes; ++i) {
      const int value = static_cast<int>(rng.NextBelow(1000));
      stack.Push(value);
      shadow.push_back(value);
    }
    ASSERT_EQ(stack.size(), shadow.size());
    ASSERT_EQ(stack.EqualsSnapshot(snap), shadow == frozen);
  }

  // The snapshot restores byte-for-byte after all that churn.
  stack.Restore(snap, frozen.size());
  for (auto it = frozen.rbegin(); it != frozen.rend(); ++it) {
    ASSERT_EQ(stack.top(), *it);
    stack.Pop();
  }
  EXPECT_TRUE(stack.empty());
  stack.Release(snap);
}

TEST(PooledStack, FreeListRecyclesNodesAcrossClear) {
  IntStack stack;
  for (int i = 0; i < 600; ++i) stack.Push(i);
  const size_t warm_slabs = stack.slabs();
  EXPECT_GE(warm_slabs, 1u);
  stack.Clear();
  // Refill to the same depth: same slabs, nothing new allocated.
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 600; ++i) stack.Push(i);
    EXPECT_EQ(stack.slabs(), warm_slabs);
    stack.Clear();
  }
}

TEST(PooledStack, MillionDeepChainReleasesIteratively) {
  constexpr uint64_t kDepth = 1'000'000;
  IntStack stack;
  for (uint64_t i = 0; i < kDepth; ++i) {
    stack.Push(static_cast<int>(i & 0xff));
  }
  EXPECT_EQ(stack.size(), kDepth);
  IntStack::Snapshot snap = stack.TakeSnapshot();
  EXPECT_EQ(IntStack::SnapshotSize(snap), kDepth);
  // Both releases walk the whole chunk chain; a recursive implementation
  // would blow the thread stack long before 10^6 / kChunkCapacity frames.
  stack.Clear();
  stack.Release(snap);
  EXPECT_TRUE(stack.empty());
  // And the pool reuses all of it.
  const size_t warm_slabs = stack.slabs();
  for (uint64_t i = 0; i < kDepth; ++i) {
    stack.Push(static_cast<int>(i & 0xff));
  }
  EXPECT_EQ(stack.slabs(), warm_slabs);
  stack.Clear();
}

// --- Evaluator parity with a plain vector stack ------------------------

// Drives the pooled evaluator and a plain std::vector push/pop loop over
// the same DFA through the same random event stream — including
// unbalanced closes (underflows) and interleaved accept checks —
// asserting lockstep equality of every observable.
TEST(StackEvaluatorParity, RandomEventStreamsMatchAPlainVectorLoop) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Rng rng(41);
  const auto dfas = testing::SampleLanguages(
      8, alphabet.size(), [](const Dfa&) { return true; }, &rng);
  ASSERT_FALSE(dfas.empty());
  for (const Dfa& dfa : dfas) {
    StackQueryEvaluator pooled(&dfa);
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<int> stack;
      int state = dfa.initial;
      size_t peak = 0;
      size_t underflows = 0;
      for (int step = 0; step < 400; ++step) {
        const Symbol symbol =
            static_cast<Symbol>(rng.NextBelow(alphabet.size()));
        if (rng.NextBool(0.55)) {
          pooled.OnOpen(symbol);
          stack.push_back(state);
          peak = std::max(peak, stack.size());
          state = dfa.Next(state, symbol);
        } else {
          // Half the closes land on empty stacks early on: underflow
          // tolerance must match too.
          pooled.OnClose(symbol);
          if (stack.empty()) {
            ++underflows;
          } else {
            state = stack.back();
            stack.pop_back();
          }
        }
        ASSERT_EQ(pooled.InAcceptingState(), dfa.accepting[state]);
        ASSERT_EQ(pooled.depth(), stack.size());
        ASSERT_EQ(pooled.max_stack_depth(), peak);
        ASSERT_EQ(pooled.underflow_closes(), underflows);
        ASSERT_EQ(pooled.StackDepthPeak(), static_cast<int64_t>(peak));
        ASSERT_EQ(pooled.StackUnderflowCloses(),
                  static_cast<int64_t>(underflows));
      }
      pooled.Reset();
      ASSERT_EQ(pooled.depth(), 0u);
      ASSERT_EQ(pooled.InAcceptingState(), dfa.accepting[dfa.initial]);
    }
  }
}

// The pooled evaluator through the full streaming selector on serialized
// trees, against the trees' ground truth: match counts, events and depth
// stats agree document for document.
TEST(StackEvaluatorParity, SelectorRunsMatchGroundTruth) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Rng rng(43);
  Dfa dfa = CompileRegex("(a|b)*a", alphabet);
  const auto trees = testing::SampleTrees(25, alphabet.size(), &rng);
  for (StreamFormat format :
       {StreamFormat::kCompactMarkup, StreamFormat::kXmlLite,
        StreamFormat::kCompactTerm}) {
    for (const Tree& tree : trees) {
      const EventStream events = Encode(tree);
      std::string doc;
      switch (format) {
        case StreamFormat::kCompactMarkup:
          doc = ToCompactMarkup(alphabet, events);
          break;
        case StreamFormat::kXmlLite:
          doc = ToXmlLite(alphabet, events);
          break;
        case StreamFormat::kCompactTerm:
          doc = ToCompactTerm(alphabet, events);
          break;
      }
      const std::vector<bool> selected = SelectNodes(dfa, tree);
      StackQueryEvaluator pooled(&dfa);
      StreamingSelector pooled_sel(&pooled, format, &alphabet);
      ASSERT_TRUE(pooled_sel.Feed(doc));
      ASSERT_TRUE(pooled_sel.Finish());
      EXPECT_EQ(pooled_sel.matches(),
                std::count(selected.begin(), selected.end(), true));
      const StreamStats ps = pooled_sel.stats();
      EXPECT_EQ(ps.events, static_cast<int64_t>(events.size()));
      EXPECT_EQ(ps.max_depth, tree.Height());
      // Stack size tracks element depth exactly when driven through the
      // selector (it never feeds unbalanced closes).
      EXPECT_EQ(ps.max_stack_depth, ps.max_depth);
      EXPECT_EQ(ps.underflow_closes, 0);
    }
  }
}

// --- Inline stack stepper ---------------------------------------------

// Forwards to a stack-tier machine without exporting it, so a selector
// steps it through the virtual interface. The checkpoint protocol and the
// stack diagnostics pass through.
class VirtualStackMachine final : public StreamMachine {
 public:
  explicit VirtualStackMachine(StreamMachine* inner) : inner_(inner) {}
  void Reset() override { inner_->Reset(); }
  void OnOpen(Symbol symbol) override { inner_->OnOpen(symbol); }
  void OnClose(Symbol symbol) override { inner_->OnClose(symbol); }
  bool InAcceptingState() const override {
    return inner_->InAcceptingState();
  }
  bool SaveConfig(std::vector<int64_t>* out) override {
    return inner_->SaveConfig(out);
  }
  bool RestoreConfig(const std::vector<int64_t>& config) override {
    return inner_->RestoreConfig(config);
  }
  bool ConfigEqualsCurrent(const std::vector<int64_t>& config) const override {
    return inner_->ConfigEqualsCurrent(config);
  }
  void ReleaseConfig(const std::vector<int64_t>& config) override {
    inner_->ReleaseConfig(config);
  }
  int64_t StackDepthPeak() const override { return inner_->StackDepthPeak(); }
  int64_t StackUnderflowCloses() const override {
    return inner_->StackUnderflowCloses();
  }

 private:
  StreamMachine* inner_;
};

std::string Serialize(StreamFormat format, const Alphabet& alphabet,
                      const EventStream& events) {
  switch (format) {
    case StreamFormat::kCompactMarkup:
      return ToCompactMarkup(alphabet, events);
    case StreamFormat::kXmlLite:
      return ToXmlLite(alphabet, events);
    case StreamFormat::kCompactTerm:
      return ToCompactTerm(alphabet, events);
  }
  return {};
}

// A spine `depth` deep whose levels cycle through the alphabet, with a
// leaf hanging off every third level: it crosses chunk boundaries of the
// pooled stack on the way down and on the way back up.
EventStream DeepSpine(int depth, int num_symbols) {
  EventStream events;
  for (int d = 0; d < depth; ++d) {
    const Symbol s = d % num_symbols;
    events.push_back(TagEvent{true, s});
    if (d % 3 == 2) {
      events.push_back(TagEvent{true, (s + 1) % num_symbols});
      events.push_back(TagEvent{false, (s + 1) % num_symbols});
    }
  }
  for (int d = depth - 1; d >= 0; --d) {
    events.push_back(TagEvent{false, d % num_symbols});
  }
  return events;
}

// Everything a run exposes: per-Feed results, the outcome, every
// StreamStats field, the first error, and the match log.
struct StackRun {
  std::vector<bool> fed;
  bool finished = false;
  int64_t matches = 0;
  int64_t nodes = 0;
  StreamError error;
  std::vector<int64_t> stats;
  std::vector<MatchEvent> log;

  friend bool operator==(const StackRun&, const StackRun&) = default;
};

// Feeds [from, doc.size()) in `chunk`-byte pieces, then finishes. With
// `checkpoints`, saves one at every Feed boundary (each later push into
// the snapshotted head chunk copies it on write).
void FeedRest(StreamingSelector& selector, std::string_view doc, size_t from,
              size_t chunk, StackRun* run,
              std::vector<SelectorCheckpoint>* checkpoints) {
  bool ok = true;
  for (size_t at = from; ok && at < doc.size(); at += chunk) {
    ok = selector.Feed(doc.substr(at, chunk));
    run->fed.push_back(ok);
    if (ok && checkpoints != nullptr) {
      checkpoints->emplace_back();
      ASSERT_TRUE(selector.SaveCheckpoint(&checkpoints->back()));
    }
  }
  run->finished = ok && selector.Finish();
  run->matches = selector.matches();
  run->nodes = selector.nodes();
  run->error = selector.stream_error();
  run->stats = testing::StatsFields(selector.stats());
}

// Stack-baseline plans (//a/b and its //x/y, //x/*/y relatives) on the
// inline StackStepper against the same machine stepped through the
// virtual interface: counts, match logs, first StreamError, every
// StreamStats field (max_stack_depth and underflow_closes included) on
// markup, xml-lite and term × chunks {1, 3, 16, whole} × both recovery
// policies × LimitSweep, on random trees, spines crossing the pooled
// stack's chunk capacity (28, 56), and every fault kind. A second pass
// saves a checkpoint at every Feed boundary and resumes both from the
// middle one.
TEST(StackStepperParity, InlineStepperMatchesVirtualStepping) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Rng rng(61);
  std::vector<EventStream> trees;
  for (const Tree& tree : testing::SampleTrees(10, alphabet.size(), &rng)) {
    trees.push_back(Encode(tree));
  }
  const int capacity = static_cast<int>(PooledStack<int>::kChunkCapacity);
  for (int depth : {capacity - 1, capacity, capacity + 1, 2 * capacity,
                    2 * capacity + 3}) {
    trees.push_back(DeepSpine(depth, alphabet.size()));
  }
  const RecoveryPolicy kPolicies[] = {RecoveryPolicy::kFailFast,
                                      RecoveryPolicy::kSkipMalformedSubtree};
  StreamLimits deep;
  deep.max_depth = 2 * capacity;
  std::vector<StreamLimits> limits = testing::LimitSweep();
  limits.push_back(deep);
  for (StreamFormat format :
       {StreamFormat::kCompactMarkup, StreamFormat::kXmlLite,
        StreamFormat::kCompactTerm}) {
    PlanOptions options;
    options.format = format;
    options.encoding = format == StreamFormat::kCompactTerm
                           ? StreamEncoding::kTerm
                           : StreamEncoding::kMarkup;
    std::vector<std::string> docs;
    FaultInjector faults(67);
    for (size_t t = 0; t < trees.size(); ++t) {
      docs.push_back(Serialize(format, alphabet, trees[t]));
      std::string faulted = docs.back();
      faults.Apply(static_cast<FaultKind>(t % kNumFaultKinds), &faulted);
      docs.push_back(faulted);
    }
    for (const char* query : {"//a/b", "//b/c", "//a/*/b"}) {
      auto plan = QueryPlan::Compile(Rpq::FromXPath(query, alphabet), options);
      ASSERT_EQ(plan->kind(), EvaluatorKind::kStackBaseline) << query;
      std::unique_ptr<StreamMachine> inline_machine = plan->NewMachine();
      ASSERT_NE(inline_machine->ExportStackEvaluator(), nullptr);
      std::unique_ptr<StreamMachine> inner = plan->NewMachine();
      VirtualStackMachine virtual_machine(inner.get());
      StreamingSelector inline_sel(inline_machine.get(), format,
                                   &plan->alphabet(), &plan->scanner_tables(),
                                   nullptr);
      StreamingSelector virtual_sel(&virtual_machine, format,
                                    &plan->alphabet(), &plan->scanner_tables(),
                                    nullptr);
      CollectingSink inline_log;
      CollectingSink virtual_log;
      for (const std::string& doc : docs) {
        for (size_t chunk : {size_t{1}, size_t{3}, size_t{16},
                             std::max<size_t>(doc.size(), 1)}) {
          for (RecoveryPolicy policy : kPolicies) {
            for (const StreamLimits& limit : limits) {
              const std::string where = std::string(query) + " format " +
                                        std::to_string(static_cast<int>(format)) +
                                        " chunk " + std::to_string(chunk) +
                                        " doc " + doc;
              StackRun runs[2];
              StreamingSelector* selectors[2] = {&inline_sel, &virtual_sel};
              CollectingSink* logs[2] = {&inline_log, &virtual_log};
              for (int k = 0; k < 2; ++k) {
                selectors[k]->set_match_sink(logs[k]);
                selectors[k]->set_recovery_policy(policy);
                selectors[k]->set_limits(limit);
                selectors[k]->Reset();
                logs[k]->Reset();
                FeedRest(*selectors[k], doc, 0, chunk, &runs[k], nullptr);
                runs[k].log = logs[k]->matches();
                runs[k].log.insert(runs[k].log.end(), logs[k]->spans().begin(),
                                   logs[k]->spans().end());
              }
              ASSERT_EQ(runs[0], runs[1]) << where;
              EXPECT_EQ(runs[0].stats[10], runs[0].stats[3]) << where;

              // Checkpoints: no span sink, one save per Feed boundary,
              // then both resume from the middle one.
              StackRun resumed[2];
              for (int k = 0; k < 2; ++k) {
                selectors[k]->set_match_sink(nullptr);
                selectors[k]->Reset();
                std::vector<SelectorCheckpoint> saved;
                StackRun first;
                FeedRest(*selectors[k], doc, 0, chunk, &first, &saved);
                if (saved.empty()) continue;
                const size_t mid = saved.size() / 2;
                ASSERT_TRUE(selectors[k]->RestoreCheckpoint(saved[mid]));
                const int64_t resume = saved[mid].run.counters.bytes_fed;
                FeedRest(*selectors[k], doc, static_cast<size_t>(resume),
                         chunk, &resumed[k], nullptr);
                for (const SelectorCheckpoint& cp : saved) {
                  selectors[k]->ReleaseCheckpoint(cp);
                }
              }
              EXPECT_EQ(resumed[0], resumed[1]) << where;
            }
          }
        }
      }
    }
  }
}

// --- Steady-state allocation -------------------------------------------

// After one warm-up document has sized the slab pool, further documents
// of no greater depth must allocate nothing: pushes come from the free
// list, checkpoint slots are recycled, Reset() keeps the slabs.
TEST(StackEvaluatorAllocation, SteadyStateIsAllocationFree) {
  Alphabet alphabet = Alphabet::FromLetters("ab");
  Dfa dfa = CompileRegex("a*", alphabet);
  StackQueryEvaluator machine(&dfa);

  constexpr int kDepth = 800;
  constexpr int kRounds = 50;
  std::vector<std::vector<int64_t>> configs(4);

  auto run_document = [&](bool with_checkpoints) {
    for (int i = 0; i < kDepth; ++i) machine.OnOpen(0);
    if (with_checkpoints) {
      for (auto& config : configs) {
        ASSERT_TRUE(machine.SaveConfig(&config));
      }
      for (auto& config : configs) machine.ReleaseConfig(config);
    }
    for (int i = 0; i < kDepth; ++i) machine.OnClose(0);
    machine.Reset();
  };

  // Warm-up sizes the slab pool, the config vectors, and the slot
  // registry.
  run_document(true);
  run_document(true);

  const int64_t before = g_heap_allocations.load(std::memory_order_relaxed);
  for (int round = 0; round < kRounds; ++round) run_document(true);
  const int64_t after = g_heap_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0)
      << "pooled stack steady state allocated " << (after - before)
      << " times over " << kRounds << " documents";
}

// Snapshot + restore cycles (the ApplyEdit hot path) are allocation-free
// too once warm.
TEST(StackEvaluatorAllocation, SnapshotRestoreCycleIsAllocationFree) {
  Alphabet alphabet = Alphabet::FromLetters("ab");
  Dfa dfa = CompileRegex("(a|b)*", alphabet);
  StackQueryEvaluator machine(&dfa);
  std::vector<int64_t> config;

  for (int i = 0; i < 300; ++i) machine.OnOpen(i % 2);
  ASSERT_TRUE(machine.SaveConfig(&config));

  auto churn = [&] {
    for (int i = 0; i < 100; ++i) machine.OnClose(0);
    for (int i = 0; i < 150; ++i) machine.OnOpen(1);
    ASSERT_TRUE(machine.RestoreConfig(config));
    ASSERT_TRUE(machine.ConfigEqualsCurrent(config));
  };
  churn();  // warm-up

  const int64_t before = g_heap_allocations.load(std::memory_order_relaxed);
  for (int round = 0; round < 100; ++round) churn();
  const int64_t after = g_heap_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0);

  machine.ReleaseConfig(config);
}

// --- Checkpoint protocol ----------------------------------------------

TEST(StackEvaluatorCheckpoint, ConfigRoundTripsAcrossDivergence) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Dfa dfa = CompileRegex("a(b|c)*", alphabet);
  StackQueryEvaluator machine(&dfa);

  machine.OnOpen(0);
  machine.OnOpen(1);
  machine.OnOpen(2);
  std::vector<int64_t> config;
  ASSERT_TRUE(machine.SaveConfig(&config));
  EXPECT_TRUE(machine.ConfigEqualsCurrent(config));
  const bool accepting_at_save = machine.InAcceptingState();

  // Diverge: the config must stop matching, then match again after an
  // equivalent-by-value rebuild, then restore exactly.
  machine.OnClose(2);
  EXPECT_FALSE(machine.ConfigEqualsCurrent(config));
  machine.OnOpen(2);
  EXPECT_TRUE(machine.ConfigEqualsCurrent(config));
  machine.OnOpen(1);
  machine.OnOpen(1);
  EXPECT_FALSE(machine.ConfigEqualsCurrent(config));

  ASSERT_TRUE(machine.RestoreConfig(config));
  EXPECT_TRUE(machine.ConfigEqualsCurrent(config));
  EXPECT_EQ(machine.depth(), 3u);
  EXPECT_EQ(machine.InAcceptingState(), accepting_at_save);
  // Peak depth re-bases at the restored depth.
  EXPECT_EQ(machine.max_stack_depth(), 3u);

  machine.ReleaseConfig(config);
  EXPECT_EQ(machine.live_checkpoints(), 0u);
}

TEST(StackEvaluatorCheckpoint, SlotRecyclingAndRejects) {
  Alphabet alphabet = Alphabet::FromLetters("ab");
  Dfa dfa = CompileRegex("a*", alphabet);
  StackQueryEvaluator machine(&dfa);

  machine.OnOpen(0);
  std::vector<int64_t> a, b;
  ASSERT_TRUE(machine.SaveConfig(&a));
  machine.OnOpen(0);
  ASSERT_TRUE(machine.SaveConfig(&b));
  EXPECT_EQ(machine.live_checkpoints(), 2u);

  machine.ReleaseConfig(a);
  EXPECT_EQ(machine.live_checkpoints(), 1u);
  std::vector<int64_t> c;
  ASSERT_TRUE(machine.SaveConfig(&c));
  // The freed slot is reused, not appended.
  EXPECT_EQ(c[1], a[1]);

  // Malformed configs are rejected, not trusted.
  EXPECT_FALSE(machine.RestoreConfig({}));
  EXPECT_FALSE(machine.RestoreConfig({0, 999, 0}));      // stale 3-word shape
  EXPECT_FALSE(machine.RestoreConfig({0, 999, 0, 0}));   // slot out of range
  EXPECT_FALSE(machine.ConfigEqualsCurrent({0, 999, 0, 0}));

  machine.ReleaseConfig(b);
  machine.ReleaseConfig(c);
  EXPECT_EQ(machine.live_checkpoints(), 0u);
}

// Reset() must release every retained checkpoint head back to the pool —
// a pooled Session returned to SessionPool with live checkpoints must not
// leak nodes or keep stale slots (ISSUE 10 satellite).
TEST(StackEvaluatorCheckpoint, ResetReleasesRetainedCheckpoints) {
  Alphabet alphabet = Alphabet::FromLetters("ab");
  Dfa dfa = CompileRegex("a*", alphabet);
  StackQueryEvaluator machine(&dfa);

  std::vector<std::vector<int64_t>> configs(8);
  for (int depth = 0; depth < 700; ++depth) {
    machine.OnOpen(0);
    if (depth % 100 == 0) {
      ASSERT_TRUE(machine.SaveConfig(&configs[static_cast<size_t>(
          depth / 100)]));
    }
  }
  EXPECT_GT(machine.live_checkpoints(), 0u);
  const size_t warm_slabs = machine.pool_slabs();

  machine.Reset();
  EXPECT_EQ(machine.live_checkpoints(), 0u);
  EXPECT_EQ(machine.depth(), 0u);
  // Old configs no longer resolve: their slots are recycled or cleared,
  // never dangling. (Restoring must either fail or land on a fresh save,
  // not touch freed nodes — exercised under ASan.)
  for (const auto& config : configs) {
    if (config.size() == 4) {
      EXPECT_FALSE(machine.RestoreConfig(config));
    }
  }

  // All nodes went back to the free list: refilling to the same depth
  // allocates no new slab.
  const int64_t before = g_heap_allocations.load(std::memory_order_relaxed);
  for (int depth = 0; depth < 700; ++depth) machine.OnOpen(0);
  EXPECT_EQ(machine.pool_slabs(), warm_slabs);
  const int64_t after = g_heap_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0);
  machine.Reset();
}

}  // namespace
}  // namespace sst

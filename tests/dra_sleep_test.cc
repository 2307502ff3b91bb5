// Sleeping DRA members: a stackless stepper skips its table step while its
// configuration is sleepy and the depth stays above the configuration's
// highest register (ByteDraRunner::IsSleepy / Gate). The suite checks
// that this is exact, not a heuristic:
//   (a) the materializer's tables equal a naive per-code construction,
//       and the sleepy bit equals a semantic recomputation through the
//       DraRunner interpreter;
//   (b) gated stepping agrees with ungated stepping — per event, on final
//       configurations and on counts — for side-cars stepped directly,
//       for single queries through StreamingSelector on every format,
//       chunking, recovery policy and limit, and for batch side-cars on
//       one lane, split lanes and the one-scan path.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "automata/alphabet.h"
#include "base/match_sink.h"
#include "base/rng.h"
#include "dra/byte_dra_runner.h"
#include "dra/dra.h"
#include "dra/product_stepper.h"
#include "dra/streaming.h"
#include "dra/tag_dfa.h"
#include "engine/multi_query.h"
#include "engine/query_plan.h"
#include "eval/stackless_query.h"
#include "query/rpq.h"
#include "test_util.h"
#include "testing/fault_injection.h"
#include "trees/encoding.h"
#include "trees/generators.h"

namespace sst {
namespace {

// The query family every DraSleep check runs: XPath shapes over
// {b, c, x, y, z}, plus a regex whose minimal DFA has an accepting sink
// (every path below an x), so some materialized state is accepting and
// self-loops on every code-0 action — sleepy but for acceptance.
struct FamilyMember {
  std::string text;
  bool xpath;
};
const FamilyMember kFamily[] = {
    {"/x/y", true},    {"/x/*/y", true},  {"/x/y/z", true},
    {"//x//y", true},  {"/b/*//c", true}, {"x.*", false},
};

Alphabet FamilyAlphabet() { return Alphabet::FromLetters("bcxyz"); }

Rpq FamilyRpq(const FamilyMember& member, const Alphabet& alphabet) {
  return member.xpath ? Rpq::FromXPath(member.text, alphabet)
                      : Rpq::FromRegex(member.text, alphabet);
}

// --- (a) naive references ------------------------------------------------

struct NaiveControl {
  bool dead = false;
  int witness = 0;
  int current_scc = 0;
  std::vector<int> chain_scc;
  std::vector<int> chain_witness;

  std::vector<int> Key() const {
    std::vector<int> key = {dead ? 1 : 0, witness, current_scc};
    for (size_t i = 0; i < chain_scc.size(); ++i) {
      key.push_back(chain_scc[i]);
      key.push_back(chain_witness[i]);
    }
    return key;
  }
};

// The Lemma 3.8 materialization one comparison code at a time: every
// (state, polarity, symbol, code) derives and interns its successor.
std::optional<Dra> NaiveMaterialize(const Dfa& minimal_dfa, bool blind,
                                    int max_states) {
  StacklessQueryEvaluator spec(minimal_dfa, blind);
  const Dfa& dfa = spec.dfa();
  const SccInfo& scc = spec.scc();
  const int num_registers = spec.num_registers();
  if (num_registers > Dra::kMaxRegisters) return std::nullopt;
  std::map<std::vector<int>, int> id;
  std::vector<NaiveControl> states;
  auto intern = [&](const NaiveControl& s) {
    auto [it, inserted] = id.emplace(s.Key(), static_cast<int>(states.size()));
    if (inserted) states.push_back(s);
    return it->second;
  };
  NaiveControl start;
  start.witness = dfa.initial;
  start.current_scc = scc.component_of[dfa.initial];
  NaiveControl dead_state;
  dead_state.dead = true;
  const int start_id = intern(start);
  intern(dead_state);
  int num_codes = 1;
  for (int i = 0; i < num_registers; ++i) num_codes *= 3;
  std::vector<Dra::Action> table;
  for (size_t index = 0; index < states.size(); ++index) {
    if (static_cast<int>(states.size()) > max_states) return std::nullopt;
    const NaiveControl current = states[index];
    const int live = static_cast<int>(current.chain_scc.size());
    for (int close = 0; close < 2; ++close) {
      for (Symbol a = 0; a < dfa.num_symbols; ++a) {
        for (int code = 0; code < num_codes; ++code) {
          Dra::Action action;
          NaiveControl next = current;
          if (current.dead) {
            // stay dead
          } else if (close == 0) {
            const int succ = dfa.Next(current.witness, a);
            const int succ_scc = scc.component_of[succ];
            if (succ_scc != current.current_scc) {
              next.chain_scc.push_back(current.current_scc);
              next.chain_witness.push_back(current.witness);
              next.current_scc = succ_scc;
              action.load_mask |= uint32_t{1} << live;
            }
            next.witness = succ;
          } else if (live > 0 &&
                     Dra::CmpDigit(code, live - 1) == Dra::kGreater) {
            next.current_scc = next.chain_scc.back();
            next.witness = next.chain_witness.back();
            next.chain_scc.pop_back();
            next.chain_witness.pop_back();
          } else {
            const int target = spec.Revert(current.witness, blind ? 0 : a);
            if (target < 0) {
              next = NaiveControl{};
              next.dead = true;
            } else {
              next.witness = target;
            }
          }
          for (int r = 0; r < num_registers; ++r) {
            if (Dra::CmpDigit(code, r) == Dra::kGreater) {
              action.load_mask |= uint32_t{1} << r;
            }
          }
          action.next = intern(next);
          table.push_back(action);
        }
      }
    }
  }
  Dra dra = Dra::Create(static_cast<int>(states.size()), dfa.num_symbols,
                        num_registers);
  dra.initial = start_id;
  dra.table = std::move(table);
  for (size_t i = 0; i < states.size(); ++i) {
    dra.accepting[i] = !states[i].dead && dfa.accepting[states[i].witness];
  }
  return dra;
}

// Sleepy by its meaning: from a configuration in `state` whose registers
// all sit below the new depth, no open and no close changes anything but
// the depth, and the state does not accept. Run through the DraRunner
// interpreter, not the table layout.
bool SemanticallySleepy(const Dra& dra, int state) {
  if (dra.accepting[state]) return false;
  DraRunner runner(&dra);
  DraConfig probe;
  probe.state = state;
  for (int r = 0; r < dra.num_registers; ++r) {
    probe.registers[static_cast<size_t>(r)] = r + 1;
  }
  const int64_t above = dra.num_registers + 2;
  for (Symbol a = 0; a < dra.num_symbols; ++a) {
    for (bool open : {true, false}) {
      probe.depth = open ? above - 1 : above + 1;
      runner.SyncExportedDraConfig(probe);
      if (open) {
        runner.OnOpen(a);
      } else {
        runner.OnClose(a);
      }
      const DraConfig after = runner.ExportedDraConfig();
      if (after.state != state || after.depth != above ||
          after.registers != probe.registers) {
        return false;
      }
    }
  }
  return true;
}

struct FamilyDra {
  std::string name;
  bool blind;
  Dra dra;
};

std::vector<FamilyDra> FamilyDras() {
  const Alphabet alphabet = FamilyAlphabet();
  std::vector<FamilyDra> out;
  for (const FamilyMember& member : kFamily) {
    const Rpq rpq = FamilyRpq(member, alphabet);
    for (bool blind : {false, true}) {
      std::optional<Dra> dra =
          MaterializeStacklessQueryDra(rpq.minimal_dfa, blind, 4096);
      if (dra) out.push_back({member.text, blind, std::move(*dra)});
    }
  }
  return out;
}

TEST(DraSleep, MaterializerMatchesPerCodeReference) {
  const Alphabet alphabet = FamilyAlphabet();
  int compared = 0;
  for (const FamilyMember& member : kFamily) {
    const Rpq rpq = FamilyRpq(member, alphabet);
    for (bool blind : {false, true}) {
      std::optional<Dra> got =
          MaterializeStacklessQueryDra(rpq.minimal_dfa, blind, 4096);
      std::optional<Dra> want = NaiveMaterialize(rpq.minimal_dfa, blind, 4096);
      ASSERT_EQ(got.has_value(), want.has_value()) << member.text;
      if (!got) continue;
      ++compared;
      EXPECT_EQ(got->num_states, want->num_states) << member.text;
      EXPECT_EQ(got->num_registers, want->num_registers) << member.text;
      EXPECT_EQ(got->initial, want->initial) << member.text;
      EXPECT_EQ(got->accepting, want->accepting) << member.text;
      ASSERT_EQ(got->table.size(), want->table.size()) << member.text;
      for (size_t i = 0; i < got->table.size(); ++i) {
        ASSERT_EQ(got->table[i].next, want->table[i].next)
            << member.text << " blind=" << blind << " entry " << i;
        ASSERT_EQ(got->table[i].load_mask, want->table[i].load_mask)
            << member.text << " blind=" << blind << " entry " << i;
      }
      // A state budget below the reachable count fails both ways alike.
      EXPECT_EQ(MaterializeStacklessQueryDra(rpq.minimal_dfa, blind,
                                             got->num_states - 1)
                    .has_value(),
                NaiveMaterialize(rpq.minimal_dfa, blind, got->num_states - 1)
                    .has_value())
          << member.text;
    }
  }
  EXPECT_GE(compared, 10);
}

TEST(DraSleep, SleepyBitMatchesSemanticRecomputation) {
  const Alphabet alphabet = FamilyAlphabet();
  int sleepy = 0;
  int accepting_self_loops = 0;
  for (const FamilyDra& member : FamilyDras()) {
    ASSERT_TRUE(IsRestricted(member.dra)) << member.name;
    ByteDraRunner runner(&member.dra, alphabet);
    for (int q = 0; q < member.dra.num_states; ++q) {
      EXPECT_EQ(runner.IsSleepy(q), SemanticallySleepy(member.dra, q))
          << member.name << " blind=" << member.blind << " state " << q;
      sleepy += runner.IsSleepy(q) ? 1 : 0;
      // Accepting states that self-loop like sleepy ones must stay awake.
      if (member.dra.accepting[q]) {
        Dra copy = member.dra;
        copy.accepting[q] = false;
        accepting_self_loops += SemanticallySleepy(copy, q) ? 1 : 0;
      }
    }
  }
  EXPECT_GT(sleepy, 0);
  // The family exercises the non-accepting condition.
  EXPECT_GT(accepting_self_loops, 0);
}

// --- (b) gated vs ungated stepping ---------------------------------------

// Documents: random trees over the alphabet, plus trees shaped like the
// end-to-end benchmark's corpus — one root, nesting wandering between
// about 4 and 16 levels.
EventStream BenchShapedEvents(int nodes, int num_symbols, Symbol root,
                              Rng* rng) {
  EventStream events;
  std::vector<Symbol> open;
  auto push = [&](Symbol s) {
    events.push_back({true, s});
    open.push_back(s);
  };
  push(root);
  for (int opened = 1; opened < nodes;) {
    const size_t depth = open.size();
    const double p_open = depth < 4 ? 0.7 : depth < 12 ? 0.5 : 0.3;
    if (depth == 1 || rng->NextBool(p_open)) {
      push(static_cast<Symbol>(rng->NextBelow(num_symbols)));
      ++opened;
    } else {
      events.push_back({false, open.back()});
      open.pop_back();
    }
  }
  while (!open.empty()) {
    events.push_back({false, open.back()});
    open.pop_back();
  }
  return events;
}

std::vector<EventStream> SleepDocuments(int num_symbols, uint64_t seed) {
  Rng rng(seed);
  std::vector<EventStream> docs;
  for (const Tree& tree : testing::SampleTrees(20, num_symbols, &rng)) {
    docs.push_back(Encode(tree));
  }
  // Every letter roots one of them, so each family query reaches its
  // deep, sleeping states on some document.
  for (int i = 0; i < 6; ++i) {
    docs.push_back(BenchShapedEvents(60 + 40 * i, num_symbols,
                                     static_cast<Symbol>(i % num_symbols),
                                     &rng));
  }
  return docs;
}

// Side-cars stepped directly: every family DRA in one DraSideCars view,
// against each runner stepped on every event with no gate.
TEST(DraSleep, SideCarsAgreeWithUngatedSteppingPerEvent) {
  const Alphabet alphabet = FamilyAlphabet();
  for (bool blind : {false, true}) {
    std::vector<FamilyDra> family = FamilyDras();
    std::vector<std::unique_ptr<ByteDraRunner>> owned;
    std::vector<const ByteDraRunner*> runners;
    for (const FamilyDra& member : family) {
      if (member.blind != blind) continue;
      owned.push_back(std::make_unique<ByteDraRunner>(&member.dra, alphabet));
      runners.push_back(owned.back().get());
    }
    ASSERT_GE(runners.size(), 4u);
    // Also each runner alone: a lone side-car sleeps and wakes by itself.
    std::vector<std::vector<const ByteDraRunner*>> groups = {runners};
    for (const ByteDraRunner* runner : runners) groups.push_back({runner});

    int64_t skipped_events = 0;
    for (const auto& group : groups) {
      const size_t n = group.size();
      std::vector<DraConfig> configs(n);
      std::vector<int64_t> counts(n, 0);
      DraSideCars cars{group.data(), configs.data(), counts.data(), n};
      std::vector<DraConfig> want(n);
      std::vector<int64_t> want_counts(n, 0);
      for (const EventStream& events :
           SleepDocuments(alphabet.size(), blind ? 17 : 19)) {
        cars.Reset();
        std::fill(counts.begin(), counts.end(), 0);
        std::fill(want_counts.begin(), want_counts.end(), 0);
        for (size_t j = 0; j < n; ++j) want[j] = group[j]->InitialConfig();
        for (size_t e = 0; e < events.size(); ++e) {
          const TagEvent& ev = events[e];
          // The term encoding's universal close arrives as column 0.
          const Symbol s = !ev.open && blind ? 0 : ev.symbol;
          const bool skipped = cars.slack + (ev.open ? 2 : 0) > 1;
          skipped_events += skipped ? 1 : 0;
          cars.Step(ev.open, s);
          const bool any = cars.accepting;
          bool want_any = false;
          for (size_t j = 0; j < n; ++j) {
            if (ev.open) {
              group[j]->StepOpen(&want[j], s);
            } else {
              group[j]->StepClose(&want[j], s);
            }
            const bool accepting = group[j]->IsAccepting(want[j].state);
            want_counts[j] += ev.open && accepting ? 1 : 0;
            want_any = want_any || accepting;
          }
          ASSERT_EQ(any, want_any) << "event " << e;
          ASSERT_EQ(cars.depth(), want[0].depth) << "event " << e;
          ASSERT_EQ(counts, want_counts) << "event " << e;
          for (size_t j = 0; j < n; ++j) {
            // State and registers agree at every event; the depth of a
            // side-car that just stepped (so is awake) agrees too.
            ASSERT_EQ(configs[j].state, want[j].state)
                << "side-car " << j << " event " << e;
            ASSERT_EQ(configs[j].registers, want[j].registers)
                << "side-car " << j << " event " << e;
            if (!group[j]->IsSleepy(configs[j].state)) {
              ASSERT_EQ(configs[j].depth, want[j].depth)
                  << "side-car " << j << " event " << e;
            }
          }
        }
        cars.SyncDepths();
        for (size_t j = 0; j < n; ++j) {
          EXPECT_EQ(configs[j].depth, want[j].depth);
          EXPECT_EQ(configs[j].state, want[j].state);
          EXPECT_EQ(configs[j].registers, want[j].registers);
        }
      }
    }
    EXPECT_GT(skipped_events, 0);
  }
}

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

// Clean serializations plus one copy per fault kind.
std::vector<std::string> SleepInputs(StreamFormat format,
                                     const Alphabet& alphabet,
                                     uint64_t seed) {
  FaultInjector injector(seed);
  std::vector<std::string> inputs;
  for (const EventStream& events : SleepDocuments(alphabet.size(), seed)) {
    const std::string text = Serialize(format, alphabet, events);
    inputs.push_back(text);
    std::string faulted = text;
    injector.Apply(static_cast<FaultKind>(inputs.size() % kNumFaultKinds),
                   &faulted);
    inputs.push_back(std::move(faulted));
  }
  return inputs;
}

constexpr StreamFormat kFormats[] = {StreamFormat::kCompactMarkup,
                                     StreamFormat::kXmlLite,
                                     StreamFormat::kCompactTerm};

struct SelectorRun {
  bool ok = false;
  StreamStats stats;
  StreamErrorCode code = StreamErrorCode::kNone;
  int64_t error_offset = -1;
  std::vector<MatchEvent> matches;
  std::vector<MatchEvent> spans;
  std::vector<DraConfig> boundaries;  // machine config after every Feed

  friend bool operator==(const SelectorRun& a, const SelectorRun& b) {
    auto same_configs = [](const std::vector<DraConfig>& x,
                           const std::vector<DraConfig>& y) {
      if (x.size() != y.size()) return false;
      for (size_t i = 0; i < x.size(); ++i) {
        if (x[i].state != y[i].state || x[i].depth != y[i].depth ||
            x[i].registers != y[i].registers) {
          return false;
        }
      }
      return true;
    };
    return a.ok == b.ok && a.stats.events == b.stats.events &&
           a.stats.matches == b.stats.matches &&
           a.stats.max_depth == b.stats.max_depth &&
           a.stats.bytes_fed == b.stats.bytes_fed &&
           a.stats.errors_recovered == b.stats.errors_recovered &&
           a.stats.subtrees_skipped == b.stats.subtrees_skipped &&
           a.stats.error_offset == b.stats.error_offset && a.code == b.code &&
           a.error_offset == b.error_offset && a.matches == b.matches &&
           a.spans == b.spans && same_configs(a.boundaries, b.boundaries);
  }
};

// A verdict-only sink that keeps its events: the fused tiers deliver
// these through their own batched path, which must produce the same
// offsets as the recorder on every format.
class VerdictLog final : public MatchSink {
 public:
  void OnMatch(const MatchEvent& event) override { events_.push_back(event); }
  void OnSpanClose(const MatchEvent&) override {}
  bool wants_spans() const override { return false; }
  const std::vector<MatchEvent>& events() const { return events_; }

 private:
  std::vector<MatchEvent> events_;
};

SelectorRun DriveSelector(StreamingSelector* selector, StreamMachine* machine,
                          const std::string& input, size_t chunk,
                          RecoveryPolicy policy, const StreamLimits& limits,
                          bool verdict_only) {
  CollectingSink sink;
  VerdictLog verdicts;
  if (verdict_only) {
    selector->set_match_sink(&verdicts);
  } else {
    selector->set_match_sink(&sink);
  }
  selector->set_recovery_policy(policy);
  selector->set_limits(limits);
  selector->Reset();
  SelectorRun run;
  run.ok = true;
  for (size_t at = 0; at < input.size() && run.ok; at += chunk) {
    run.ok = selector->Feed(std::string_view(input).substr(at, chunk));
    run.boundaries.push_back(machine->ExportedDraConfig());
  }
  if (run.ok) run.ok = selector->Finish();
  run.boundaries.push_back(machine->ExportedDraConfig());
  run.stats = selector->stats();
  run.code = selector->stream_error().code;
  run.error_offset = selector->stream_error().offset;
  run.matches = verdict_only ? verdicts.events() : sink.matches();
  run.spans = sink.spans();
  selector->set_match_sink(nullptr);
  return run;
}

// Single queries: the gated fused tier against the same DRA on the
// generic tier (DraRunner through the virtual interface steps the table on
// every event), per Feed boundary — per event for one-byte markup chunks —
// and on stats, errors and the match log, with a span-collecting and a
// verdict-only sink.
TEST(DraSleep, FusedTierAgreesWithUngatedMachineOnEveryFormat) {
  Alphabet alphabet = FamilyAlphabet();
  const RecoveryPolicy kPolicies[] = {RecoveryPolicy::kFailFast,
                                      RecoveryPolicy::kSkipMalformedSubtree};
  for (const FamilyDra& member : FamilyDras()) {
    ByteDraRunner fused(&member.dra, alphabet);
    for (StreamFormat format : kFormats) {
      // Term streams the blind machine, the markup formats the other.
      if (member.blind != (format == StreamFormat::kCompactTerm)) continue;
      const ScannerTables tables = ScannerTables::Build(format, alphabet);
      DraRunner gated_machine(&member.dra);
      StreamingSelector gated(&gated_machine, format, &alphabet, &tables,
                              nullptr, &fused);
      ASSERT_EQ(gated.active_tier(), StreamingSelector::Tier::kFusedDraTable);
      DraRunner plain_machine(&member.dra);
      StreamingSelector plain(&plain_machine, format, &alphabet, &tables,
                              nullptr, nullptr);
      ASSERT_EQ(plain.active_tier(), StreamingSelector::Tier::kGenericMachine);
      for (const std::string& input : SleepInputs(format, alphabet, 23)) {
        for (size_t chunk : {size_t{1}, size_t{3}, size_t{16},
                             std::max<size_t>(input.size(), 1)}) {
          for (RecoveryPolicy policy : kPolicies) {
            for (const StreamLimits& limits : testing::LimitSweep()) {
              for (bool verdict_only : {false, true}) {
                SelectorRun got =
                    DriveSelector(&gated, &gated_machine, input, chunk,
                                  policy, limits, verdict_only);
                SelectorRun want =
                    DriveSelector(&plain, &plain_machine, input, chunk,
                                  policy, limits, verdict_only);
                ASSERT_TRUE(got == want)
                    << member.name << " format " << static_cast<int>(format)
                    << " chunk " << chunk << " policy "
                    << static_cast<int>(policy) << " verdict-only "
                    << verdict_only << ": " << input;
              }
            }
          }
        }
      }
    }
  }
}

// Batch side-cars: BatchSession (one lane, one lane per member) and the
// one-scan walk against one ungated generic selector per member.
std::vector<BatchQuery> SideCarBatch() {
  std::vector<BatchQuery> batch;
  for (const char* q : {"/x//y", "/b//c", "/x/y", "/x/*/y", "/b/*//c"}) {
    batch.push_back(BatchQuery{QuerySyntax::kXPath, q});
  }
  return batch;
}

struct BatchRun {
  bool ok = false;
  std::vector<int64_t> counts;
  int64_t matches = 0;
  int64_t events = 0;
  StreamErrorCode code = StreamErrorCode::kNone;
  int64_t error_offset = -1;
  int64_t errors_recovered = 0;

  friend bool operator==(const BatchRun&, const BatchRun&) = default;
};

TEST(DraSleep, BatchSideCarsAgreeWithUngatedMembers) {
  Alphabet alphabet = FamilyAlphabet();
  const RecoveryPolicy kPolicies[] = {RecoveryPolicy::kFailFast,
                                      RecoveryPolicy::kSkipMalformedSubtree};
  for (StreamFormat format : kFormats) {
    MultiQueryOptions eager;
    eager.plan.format = format;
    eager.plan.encoding = format == StreamFormat::kCompactTerm
                              ? StreamEncoding::kTerm
                              : StreamEncoding::kMarkup;
    MultiQueryOptions split = eager;
    split.eager_state_cap = 1;  // one lane per registerless member
    for (const MultiQueryOptions* path : {&eager, &split}) {
      const MultiQueryOptions& options = *path;
      auto plan = MultiQueryPlan::Compile(SideCarBatch(), alphabet, options);
      ASSERT_EQ(plan->stats().stackless_members, 3);
      ASSERT_EQ(plan->stats().machine_members, 0);
      ASSERT_EQ(plan->stats().lanes, path == &eager ? 1 : 2);
      BatchSession batch(plan);
      // Ungated references: each member's machine on the generic tier —
      // the DraRunner steps the stackless members' DRAs on every event.
      std::vector<std::unique_ptr<StreamMachine>> machines;
      std::vector<std::unique_ptr<StreamingSelector>> members;
      for (int q = 0; q < plan->num_queries(); ++q) {
        const QueryPlan& member =
            *plan->slot_plans()[static_cast<size_t>(plan->slot_of(q))];
        machines.push_back(member.NewMachine());
        members.push_back(std::make_unique<StreamingSelector>(
            machines.back().get(), format, &plan->alphabet(),
            &plan->scanner_tables(), nullptr, nullptr));
      }
      for (const std::string& input : SleepInputs(format, alphabet, 29)) {
        for (size_t chunk : {size_t{1}, size_t{3}, size_t{16},
                             std::max<size_t>(input.size(), 1)}) {
          for (RecoveryPolicy policy : kPolicies) {
            for (const StreamLimits& limits : testing::LimitSweep()) {
              batch.Reset();
              batch.set_recovery_policy(policy);
              batch.set_limits(limits);
              BatchRun got;
              got.ok = true;
              for (size_t at = 0; at < input.size() && got.ok; at += chunk) {
                got.ok = batch.Feed(std::string_view(input).substr(at, chunk));
              }
              if (got.ok) got.ok = batch.Finish();
              got.counts = batch.query_matches();
              got.events = batch.stats().events;
              got.code = batch.stream_error().code;
              got.error_offset = batch.stream_error().offset;
              got.errors_recovered = batch.stats().errors_recovered;

              BatchRun want;
              for (auto& member : members) {
                member->set_recovery_policy(policy);
                member->set_limits(limits);
                member->Reset();
                bool ok = true;
                for (size_t at = 0; at < input.size() && ok; at += chunk) {
                  ok = member->Feed(std::string_view(input).substr(at, chunk));
                }
                if (ok) ok = member->Finish();
                want.ok = ok;
                want.counts.push_back(member->matches());
                want.events = member->stats().events;
                want.code = member->stream_error().code;
                want.error_offset = member->stream_error().offset;
                want.errors_recovered = member->stats().errors_recovered;
              }
              // The aggregate is checked by the batch parity suites; here
              // the per-member answers are the point.
              got.matches = want.matches = 0;
              ASSERT_TRUE(got == want)
                  << "format " << static_cast<int>(format) << " split "
                  << (path == &split) << " chunk " << chunk << " policy "
                  << static_cast<int>(policy) << ": " << input;
            }
          }
        }
      }
      // The one-scan walk over clean markup.
      if (format == StreamFormat::kCompactMarkup) {
        ASSERT_TRUE(batch.one_scan_eligible());
        for (const EventStream& events : SleepDocuments(alphabet.size(), 31)) {
          const std::string doc = ToCompactMarkup(alphabet, events);
          std::vector<int64_t> want;
          for (auto& member : members) {
            member->set_recovery_policy(RecoveryPolicy::kFailFast);
            member->set_limits(StreamLimits{});
            member->Reset();
            ASSERT_TRUE(member->Feed(doc) && member->Finish());
            want.push_back(member->matches());
          }
          EXPECT_EQ(batch.CountSelections(doc), want) << doc;
        }
      }
    }
  }
}

}  // namespace
}  // namespace sst

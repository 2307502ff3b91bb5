// Incremental re-evaluation benchmark (engine/incremental.h): the edit
// loop the subsystem exists for. A large compact-markup document is
// scanned once with checkpoints, then small edits are applied through
// IncrementalSession::ApplyEdit; the headline counter is
// speedup_vs_rescan — ApplyEdit's mean latency against a fresh full scan
// of the same document — which the committed floor in
// bench/bench_incremental_baselines.json pins at >= 10x on the ~100 MiB
// row. Every iteration SST_CHECKs the match count against an
// independently tracked expectation, so the timed loop is also a
// correctness loop.
//
// The paired splice probes (BM_Edit*) time two sessions or two kinds of
// edit interleaved and report median ratios, several of them floored.
// BM_StackPooledVsVector holds the pooled pushdown stack against a plain
// std::vector push/pop loop (see the section comment).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "automata/alphabet.h"
#include "automata/minimize.h"
#include "base/check.h"
#include "base/rng.h"
#include "dra/streaming.h"
#include "engine/incremental.h"
#include "engine/query_plan.h"
#include "eval/stack_evaluator.h"
#include "query/rpq.h"
#include "testing/edit_workload.h"

namespace sst {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- Flat-document corpus for the /a/b edit loop ----------------------
//
// "a" + children + "A", every child a two-byte element: "cC" filler with
// a sparse "bB" every kMatchStride children. Matches of /a/b stay in the
// tens of thousands even at 100 MiB, so the suffix splice moves a small
// event list, not a multi-hundred-MB one — the deployment the paper's
// pre-selection model targets (sparse hits over a huge stream).
constexpr int64_t kMatchStride = 4096;

struct FlatDoc {
  std::string bytes;
  int64_t children = 0;
  int64_t matches = 0;

  int64_t ChildOffset(int64_t child) const { return 1 + 2 * child; }
  bool ChildIsB(int64_t child) const {
    return bytes[static_cast<size_t>(ChildOffset(child))] == 'b';
  }
};

FlatDoc MakeFlatDoc(int64_t mib) {
  FlatDoc doc;
  doc.children = (mib << 20) / 2;
  doc.bytes.reserve(static_cast<size_t>(2 * doc.children) + 2);
  doc.bytes.push_back('a');
  for (int64_t child = 0; child < doc.children; ++child) {
    if (child % kMatchStride == 0) {
      doc.bytes.append("bB");
      ++doc.matches;
    } else {
      doc.bytes.append("cC");
    }
  }
  doc.bytes.push_back('A');
  return doc;
}

struct FlatState {
  FlatDoc doc;
  std::shared_ptr<const QueryPlan> plan;
  std::unique_ptr<IncrementalSession> session;
  double rescan_seconds = 0;
  int64_t expected_matches = 0;
};

// One corpus + warm session per document size, shared across benchmark
// re-runs (Google Benchmark re-enters the function while estimating
// iteration counts; rebuilding 100 MiB each time would dominate).
FlatState* FlatStateFor(int64_t mib) {
  static std::vector<std::unique_ptr<FlatState>>* cache =
      new std::vector<std::unique_ptr<FlatState>>();
  for (auto& entry : *cache) {
    if (static_cast<int64_t>(entry->doc.bytes.size()) == (mib << 20) + 2) {
      return entry.get();
    }
  }
  auto st = std::make_unique<FlatState>();
  st->doc = MakeFlatDoc(mib);
  Alphabet alphabet = Alphabet::FromLetters("abc");
  st->plan = QueryPlan::Compile(Rpq::FromXPath("/a/b", alphabet), {});
  SST_CHECK(st->plan->kind() == EvaluatorKind::kStackless);

  // The full-rescan baseline the speedup counter is measured against:
  // the same session type doing its initial checkpointed scan.
  IncrementalOptions options;
  st->session = std::make_unique<IncrementalSession>(st->plan, options);
  const auto t0 = Clock::now();
  SST_CHECK(st->session->Scan(st->doc.bytes));
  st->rescan_seconds = Seconds(t0, Clock::now());
  st->expected_matches = st->doc.matches;
  SST_CHECK(st->session->matches() == st->expected_matches);
  cache->push_back(std::move(st));
  return cache->back().get();
}

// Small same-length edits over the flat corpus: flip one child between
// "cC" and "bB" (2 bytes in place, byte delta 0), which toggles one
// match of /a/b. Manual time covers ApplyEdit only.
void BM_IncrementalSmallEdits(benchmark::State& state) {
  FlatState* st = FlatStateFor(state.range(0));
  Rng rng(77);
  double edit_seconds = 0;
  int64_t edits = 0;
  int64_t bytes_rescanned = 0;
  int64_t spliced = 0;
  for (auto _ : state) {
    const int64_t child =
        static_cast<int64_t>(rng.NextBelow(
            static_cast<uint64_t>(st->doc.children)));
    const int64_t at = st->doc.ChildOffset(child);
    const bool was_b = st->doc.ChildIsB(child);
    const char* repl = was_b ? "cC" : "bB";
    st->doc.bytes[static_cast<size_t>(at)] = repl[0];
    st->doc.bytes[static_cast<size_t>(at) + 1] = repl[1];
    st->expected_matches += was_b ? -1 : 1;

    const auto t0 = Clock::now();
    const auto outcome =
        st->session->ApplyEdit(at, 2, std::string_view(repl, 2),
                               st->doc.bytes);
    const auto t1 = Clock::now();
    SST_CHECK(st->session->matches() == st->expected_matches);
    edit_seconds += Seconds(t0, t1);
    state.SetIterationTime(Seconds(t0, t1));
    ++edits;
    bytes_rescanned += outcome.bytes_rescanned;
    if (outcome.path == IncrementalSession::EditPath::kSplicedSuffix) {
      ++spliced;
    }
  }
  state.counters["speedup_vs_rescan"] =
      st->rescan_seconds / (edit_seconds / static_cast<double>(edits));
  state.counters["bytes_rescanned"] =
      benchmark::Counter(static_cast<double>(bytes_rescanned) /
                         static_cast<double>(edits));
  state.counters["spliced_fraction"] =
      static_cast<double>(spliced) / static_cast<double>(edits);
  state.counters["rescan_ms"] = st->rescan_seconds * 1e3;
  state.SetLabel(std::to_string(state.range(0)) + " MiB");
}
BENCHMARK(BM_IncrementalSmallEdits)->Arg(16)->Arg(100)->UseManualTime();

// --- Nested corpus + generated edits on the stack tier ----------------
//
// "//a/b" compiles to the pushdown baseline, so every checkpoint retains
// a pooled-stack head; edits come from the shared EditWorkload generator
// (variable length, so splices rebase suffix offsets). The document is a
// root of depth-8 "c" spines — deep enough that checkpoints are real
// stacks, small enough that the bench stays a smoke of the tier, not a
// second 100 MiB corpus.
void BM_IncrementalStackTierEdits(benchmark::State& state) {
  static Alphabet* alphabet = new Alphabet(Alphabet::FromLetters("abc"));
  static std::string* base_doc = [] {
    auto* doc = new std::string("a");
    constexpr int kSpines = 100000;  // 16 bytes each: ~1.6 MiB
    for (int i = 0; i < kSpines; ++i) {
      doc->append("ccccccc");
      doc->append("CCCCCCC");
      doc->append("bB");
    }
    doc->push_back('A');
    return doc;
  }();
  auto plan = QueryPlan::Compile(Rpq::FromXPath("//a/b", *alphabet), {});
  SST_CHECK(plan->kind() == EvaluatorKind::kStackBaseline);

  IncrementalSession session(plan, {});
  std::string doc = *base_doc;
  SST_CHECK(session.Scan(doc));
  EditWorkload workload(alphabet, StreamFormat::kCompactMarkup, 7);

  double edit_seconds = 0;
  int64_t edits = 0;
  int64_t spliced = 0;
  for (auto _ : state) {
    const DocEdit edit = workload.Next(doc);
    doc = EditWorkload::Apply(doc, edit);
    const auto t0 = Clock::now();
    const auto outcome =
        session.ApplyEdit(edit.offset, edit.old_len, edit.new_bytes, doc);
    const auto t1 = Clock::now();
    SST_CHECK(!session.failed());
    edit_seconds += Seconds(t0, t1);
    state.SetIterationTime(Seconds(t0, t1));
    ++edits;
    if (outcome.path == IncrementalSession::EditPath::kSplicedSuffix) {
      ++spliced;
    }
  }
  state.counters["spliced_fraction"] =
      static_cast<double>(spliced) / static_cast<double>(edits);
  state.counters["edit_us"] = edit_seconds * 1e6 / static_cast<double>(edits);
}
BENCHMARK(BM_IncrementalStackTierEdits)->UseManualTime();

// --- Paired splice probes ----------------------------------------------
//
// Two costs an edit must not pay, each timed as interleaved pairs of
// ApplyEdit calls on the same edits (the BM_StackPooledVsVector shape) so
// the median per-pair ratio cancels machine drift:
//   * BM_EditMatchHeavyVsMatchFree: an 8 MiB xml-lite document where /a/b
//     selects ~560k nodes, against a query over the same document that
//     selects nothing, both at 1,025 checkpoints. A splice that rebuilt
//     the match log would cost O(matches) per edit; the floored counter
//     match_free_over_match_heavy (free time / heavy time) holds the
//     heavy edit within 2x of the free one.
//   * BM_EditDenseVsSparseCheckpoints: the match-free query at 8,193
//     checkpoints (1 KiB interval) against 1,025 (8 KiB). A splice that
//     copied the checkpoint stream would cost O(checkpoints) in copies;
//     dense_over_sparse (dense time / sparse time) is reported, not
//     floored.
// Each edit inserts one newline between two children at a random place,
// and the next iteration removes it again, so every splice shifts the
// suffix by one byte. BM_EditRepairVsOrdinary (below) times a repair
// against such edits on the same document.
constexpr int64_t kProbeBytes = int64_t{8} << 20;

struct SpliceProbe {
  std::string doc;
  int64_t pairs = 0;  // "<b></b><c></c>\n" children pairs under the root
  std::unique_ptr<IncrementalSession> first;
  std::unique_ptr<IncrementalSession> second;
  int64_t first_matches = 0;
  int64_t second_matches = 0;
};

std::string ProbeDoc(int64_t* pairs) {
  std::string doc = "<a>";
  *pairs = 0;
  while (static_cast<int64_t>(doc.size()) < kProbeBytes) {
    doc.append("<b></b><c></c>\n");
    ++*pairs;
  }
  doc.append("</a>");
  return doc;
}

std::shared_ptr<const QueryPlan> ProbePlan(const char* xpath) {
  static Alphabet* alphabet = new Alphabet(Alphabet::FromLetters("abc"));
  PlanOptions options;
  options.format = StreamFormat::kXmlLite;
  auto plan = QueryPlan::Compile(Rpq::FromXPath(xpath, *alphabet), options);
  SST_CHECK(plan->kind() == EvaluatorKind::kStackless);
  return plan;
}

std::unique_ptr<SpliceProbe> MakeSpliceProbe(const char* first_xpath,
                                             int64_t first_interval,
                                             const char* second_xpath,
                                             int64_t second_interval) {
  auto probe = std::make_unique<SpliceProbe>();
  probe->doc = ProbeDoc(&probe->pairs);
  IncrementalOptions options;
  options.checkpoint_interval = first_interval;
  probe->first = std::make_unique<IncrementalSession>(ProbePlan(first_xpath),
                                                      options);
  options.checkpoint_interval = second_interval;
  probe->second = std::make_unique<IncrementalSession>(
      ProbePlan(second_xpath), options);
  SST_CHECK(probe->first->Scan(probe->doc));
  SST_CHECK(probe->second->Scan(probe->doc));
  probe->first_matches = probe->first->matches();
  probe->second_matches = probe->second->matches();
  return probe;
}

double Median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

// One iteration = one edit applied to both sessions, alternating which
// goes first. Reports the median of second-time / first-time and each
// side's median call time.
void RunSplicePair(benchmark::State& state, SpliceProbe* probe,
                   const char* ratio_name, const char* first_name,
                   const char* second_name) {
  Rng rng(99);
  bool first_goes_first = true;
  int64_t inserted_at = -1;  // offset of the newline the last edit added
  std::vector<double> ratios;
  std::vector<double> first_us;
  std::vector<double> second_us;
  auto timed = [&](IncrementalSession* session, int64_t at, int64_t old_len,
                   std::string_view bytes) {
    const auto t0 = Clock::now();
    const auto outcome = session->ApplyEdit(at, old_len, bytes, probe->doc);
    const double seconds = Seconds(t0, Clock::now());
    SST_CHECK(outcome.path == IncrementalSession::EditPath::kSplicedSuffix);
    return seconds;
  };
  for (auto _ : state) {
    int64_t at;
    int64_t old_len;
    std::string_view bytes;
    if (inserted_at < 0) {
      // Clear of the last segments, so every edit has a suffix to splice.
      const int64_t pair = static_cast<int64_t>(
          rng.NextBelow(static_cast<uint64_t>(probe->pairs - 2048)));
      at = 3 + 15 * pair;
      old_len = 0;
      bytes = "\n";
      probe->doc.insert(static_cast<size_t>(at), 1, '\n');
      inserted_at = at;
    } else {
      at = inserted_at;
      old_len = 1;
      bytes = "";
      probe->doc.erase(static_cast<size_t>(at), 1);
      inserted_at = -1;
    }
    double first_s;
    double second_s;
    if (first_goes_first) {
      first_s = timed(probe->first.get(), at, old_len, bytes);
      second_s = timed(probe->second.get(), at, old_len, bytes);
    } else {
      second_s = timed(probe->second.get(), at, old_len, bytes);
      first_s = timed(probe->first.get(), at, old_len, bytes);
    }
    first_goes_first = !first_goes_first;
    SST_CHECK(probe->first->matches() == probe->first_matches);
    SST_CHECK(probe->second->matches() == probe->second_matches);
    ratios.push_back(second_s / first_s);
    first_us.push_back(first_s * 1e6);
    second_us.push_back(second_s * 1e6);
  }
  // Leave the document as scanned for the next run of this benchmark.
  if (inserted_at >= 0) {
    probe->doc.erase(static_cast<size_t>(inserted_at), 1);
    probe->first->ApplyEdit(inserted_at, 1, "", probe->doc);
    probe->second->ApplyEdit(inserted_at, 1, "", probe->doc);
  }
  benchmark::DoNotOptimize(probe->first->matches());
  state.counters[ratio_name] = Median(std::move(ratios));
  state.counters[first_name] = Median(std::move(first_us));
  state.counters[second_name] = Median(std::move(second_us));
  state.counters["checkpoints_first"] =
      static_cast<double>(probe->first->checkpoint_count());
  state.counters["checkpoints_second"] =
      static_cast<double>(probe->second->checkpoint_count());
}

void BM_EditMatchHeavyVsMatchFree(benchmark::State& state) {
  static SpliceProbe* probe =
      MakeSpliceProbe("/a/b", 8 << 10, "/c/b", 8 << 10).release();
  SST_CHECK(probe->first_matches > 500000 && probe->second_matches == 0);
  RunSplicePair(state, probe, "match_free_over_match_heavy", "heavy_edit_us",
                "free_edit_us");
}
BENCHMARK(BM_EditMatchHeavyVsMatchFree);

void BM_EditDenseVsSparseCheckpoints(benchmark::State& state) {
  static SpliceProbe* probe =
      MakeSpliceProbe("/c/b", 8 << 10, "/c/b", 1 << 10).release();
  RunSplicePair(state, probe, "dense_over_sparse", "sparse_edit_us",
                "dense_edit_us");
}
BENCHMARK(BM_EditDenseVsSparseCheckpoints);

// BM_EditRepairVsOrdinary: one session on the same 8 MiB document and the
// match-free query at 1,025 checkpoints. Each iteration times a corruption
// and its repair — a '?' inserted between two children, where the
// fail-fast run stops, then removed — against two ordinary one-byte edits
// (a newline inserted and removed), alternating which pair goes first.
// ordinary_over_repair (ordinary pair time / corruption-and-repair time)
// is floored: a repair that rescans from the corruption to the end of the
// document reads ~0.01; one that converges on the suffix the failed run
// parked costs about what an ordinary edit does.
void BM_EditRepairVsOrdinary(benchmark::State& state) {
  struct Probe {
    std::string doc;
    int64_t pairs = 0;
    std::unique_ptr<IncrementalSession> session;
  };
  static Probe* probe = [] {
    auto* p = new Probe;
    p->doc = ProbeDoc(&p->pairs);
    IncrementalOptions options;
    options.checkpoint_interval = 8 << 10;
    p->session =
        std::make_unique<IncrementalSession>(ProbePlan("/c/b"), options);
    SST_CHECK(p->session->Scan(p->doc));
    return p;
  }();
  IncrementalSession& session = *probe->session;
  Rng rng(101);
  // Inserts `byte` between two children at a random place, clear of the
  // last segments, and removes it again; returns the two ApplyEdit calls'
  // summed time. The document edits in between are not timed.
  auto insert_and_remove = [&](char byte, bool corrupts) {
    const int64_t pair = static_cast<int64_t>(
        rng.NextBelow(static_cast<uint64_t>(probe->pairs - 2048)));
    const int64_t at = 3 + 15 * pair;
    probe->doc.insert(static_cast<size_t>(at), 1, byte);
    auto t0 = Clock::now();
    session.ApplyEdit(at, 0, std::string_view(&byte, 1), probe->doc);
    double seconds = Seconds(t0, Clock::now());
    SST_CHECK(session.failed() == corrupts);
    probe->doc.erase(static_cast<size_t>(at), 1);
    t0 = Clock::now();
    session.ApplyEdit(at, 1, "", probe->doc);
    seconds += Seconds(t0, Clock::now());
    SST_CHECK(!session.failed() && session.matches() == 0);
    return seconds;
  };
  bool repair_first = true;
  std::vector<double> ratios;
  std::vector<double> repair_us;
  std::vector<double> ordinary_us;
  for (auto _ : state) {
    double repair_s;
    double ordinary_s;
    if (repair_first) {
      repair_s = insert_and_remove('?', /*corrupts=*/true);
      ordinary_s = insert_and_remove('\n', /*corrupts=*/false);
    } else {
      ordinary_s = insert_and_remove('\n', /*corrupts=*/false);
      repair_s = insert_and_remove('?', /*corrupts=*/true);
    }
    repair_first = !repair_first;
    ratios.push_back(ordinary_s / repair_s);
    repair_us.push_back(repair_s * 1e6);
    ordinary_us.push_back(ordinary_s * 1e6);
  }
  state.counters["ordinary_over_repair"] = Median(std::move(ratios));
  state.counters["repair_pair_us"] = Median(std::move(repair_us));
  state.counters["ordinary_pair_us"] = Median(std::move(ordinary_us));
  state.counters["checkpoints_first"] =
      static_cast<double>(session.checkpoint_count());
}
BENCHMARK(BM_EditRepairVsOrdinary);

// BM_EditRecoveringVsClean: the same spliced edit on two 8 MiB compact
// markup documents under kSkipMalformedSubtree, at the default 16 KiB
// interval (512 checkpoints) with //b selecting every b. The clean one is
// "a" + "bcCB" units + "A"; the recovering one has 20,000 of its units,
// about one in a hundred, replaced by "b#B", each a recovered error. Each
// iteration swaps one "cC" near the start for "dD" or back, on both
// sessions, alternating which goes first. clean_over_recovering (clean time / recovering time,
// median of the pairs) is floored: a splice that rewrote a whole-history
// copy in every suffix checkpoint read 0.004 (77 ms against 0.3 ms per
// edit); one that stores each error once, in its segment, reads ~0.96.
void BM_EditRecoveringVsClean(benchmark::State& state) {
  constexpr int64_t kUnits = (int64_t{8} << 20) / 4;
  constexpr int64_t kErrorStride = kUnits / 20000;
  struct Probe {
    std::string clean;
    std::string recovering;
    std::unique_ptr<IncrementalSession> clean_session;
    std::unique_ptr<IncrementalSession> recovering_session;
  };
  static Probe* probe = [] {
    auto* p = new Probe;
    p->clean = "a";
    p->recovering = "a";
    for (int64_t unit = 0; unit < kUnits; ++unit) {
      p->clean += "bcCB";
      const bool error = unit % kErrorStride == kErrorStride / 2 &&
                         unit / kErrorStride < 20000;
      p->recovering += error ? "b#B" : "bcCB";
    }
    p->clean += "A";
    p->recovering += "A";
    static Alphabet* alphabet = new Alphabet(Alphabet::FromLetters("abcd"));
    auto plan = QueryPlan::Compile(Rpq::FromXPath("//b", *alphabet), {});
    IncrementalOptions options;
    options.policy = RecoveryPolicy::kSkipMalformedSubtree;
    p->clean_session = std::make_unique<IncrementalSession>(plan, options);
    p->recovering_session = std::make_unique<IncrementalSession>(plan, options);
    SST_CHECK(p->clean_session->Scan(p->clean));
    SST_CHECK(p->recovering_session->Scan(p->recovering));
    SST_CHECK(p->recovering_session->stats().errors_recovered == 20000);
    return p;
  }();
  // Unit 1's "cC" (offsets 6 and 7) on both documents: inside the first
  // segment, so every edit resumes at the origin and splices at the next
  // checkpoint.
  constexpr int64_t kAt = 6;
  auto timed = [](IncrementalSession* session, std::string* doc) {
    const bool to_d = (*doc)[kAt] == 'c';
    const char* bytes = to_d ? "dD" : "cC";
    doc->replace(kAt, 2, bytes);
    const auto t0 = Clock::now();
    const auto outcome =
        session->ApplyEdit(kAt, 2, std::string_view(bytes, 2), *doc);
    const double seconds = Seconds(t0, Clock::now());
    SST_CHECK(outcome.path == IncrementalSession::EditPath::kSplicedSuffix);
    return seconds;
  };
  bool clean_first = true;
  std::vector<double> ratios;
  std::vector<double> clean_us;
  std::vector<double> recovering_us;
  for (auto _ : state) {
    double clean_s;
    double recovering_s;
    if (clean_first) {
      clean_s = timed(probe->clean_session.get(), &probe->clean);
      recovering_s =
          timed(probe->recovering_session.get(), &probe->recovering);
    } else {
      recovering_s =
          timed(probe->recovering_session.get(), &probe->recovering);
      clean_s = timed(probe->clean_session.get(), &probe->clean);
    }
    clean_first = !clean_first;
    ratios.push_back(clean_s / recovering_s);
    clean_us.push_back(clean_s * 1e6);
    recovering_us.push_back(recovering_s * 1e6);
  }
  SST_CHECK(probe->recovering_session->stats().errors_recovered == 20000);
  benchmark::DoNotOptimize(probe->clean_session->matches());
  state.counters["clean_over_recovering"] = Median(std::move(ratios));
  state.counters["clean_edit_us"] = Median(std::move(clean_us));
  state.counters["recovering_edit_us"] = Median(std::move(recovering_us));
}
BENCHMARK(BM_EditRecoveringVsClean);

// --- Pooled stack against a plain vector loop ------------------------
//
// DeepDoc is pure structure, every byte an open or close at depth up to
// ~1024: the pooled stack's worst case. BM_StackPooledScan is its
// unfloored trajectory row. BM_StackPooledVsVector times the pooled
// evaluator, scanning through the selector, against a plain std::vector
// push/pop loop over the same DFA and bytes, interleaved inside one
// benchmark so slow machine drift cancels out of the ratio. The selector
// also frames and validates every byte, which the loop does not, so the
// ratio sits well below parity: 0.35-0.45 on a 4-vCPU VM, against
// 0.18-0.20 with the stack's chunk capacity forced to 1 (every push a
// chunk from the free list). On a whitespace-padded corpus the ratio
// measured the stage-1 skip against the loop's per-byte branches instead
// (1.7-2.2, and 1.2-1.3 at capacity 1), too close to floor.
std::string DeepDoc() {
  // 1024-deep spines of 'c' with a 'b' leaf, repeated to ~2 MiB — small
  // enough that one scan is a few ms, so even CI's short --min-time runs
  // get real iteration counts behind the pooled-vs-vector ratio.
  std::string unit;
  unit.append(1024, 'c');
  unit.append("bB");
  unit.append(1024, 'C');
  std::string doc = "a";
  while (doc.size() < (2u << 20)) doc.append(unit);
  doc.push_back('A');
  return doc;
}

void BM_StackPooledScan(benchmark::State& state) {
  static Alphabet* alphabet = new Alphabet(Alphabet::FromLetters("abc"));
  static Dfa* dfa = new Dfa(CompileRegex(".*a.*b", *alphabet));
  static std::string* doc = new std::string(DeepDoc());
  StackQueryEvaluator machine(dfa);
  StreamingSelector selector(&machine, StreamFormat::kCompactMarkup,
                             alphabet);
  int64_t matches = 0;
  for (auto _ : state) {
    selector.Reset();
    SST_CHECK(selector.Feed(*doc));
    SST_CHECK(selector.Finish());
    matches = selector.matches();
    benchmark::DoNotOptimize(matches);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(doc->size()));
  state.counters["matches"] = static_cast<double>(matches);
}
BENCHMARK(BM_StackPooledScan);

// The reference the pooled stack is held against: the same DFA over the
// same compact-markup bytes as a plain std::vector push/pop loop, with
// one table load per byte and no framing checks. The vector keeps its
// capacity across scans.
class VectorStackLoop {
 public:
  VectorStackLoop(const Dfa& dfa, const Alphabet& alphabet)
      : dfa_(dfa), accepting_(dfa.accepting.begin(), dfa.accepting.end()) {
    for (int byte = 0; byte < 256; ++byte) {
      const char c = static_cast<char>(byte);
      action_[byte] = kSkip;
      if (c >= 'a' && c <= 'z') {
        action_[byte] = alphabet.Find(std::string(1, c));
      } else if (c >= 'A' && c <= 'Z') {
        action_[byte] = kClose;
      }
    }
  }

  // Returns the match count.
  int64_t Scan(std::string_view doc) {
    stack_.clear();
    int state = dfa_.initial;
    int64_t matches = 0;
    for (const char c : doc) {
      const int action = action_[static_cast<unsigned char>(c)];
      if (action >= 0) {
        stack_.push_back(state);
        state = dfa_.Next(state, action);
        matches += accepting_[static_cast<size_t>(state)];
      } else if (action == kClose) {
        state = stack_.back();
        stack_.pop_back();
      }
    }
    return matches;
  }

 private:
  static constexpr int kClose = -1;
  static constexpr int kSkip = -2;
  const Dfa& dfa_;
  std::vector<uint8_t> accepting_;
  int action_[256];
  std::vector<int> stack_;
};

// One iteration = one pooled selector scan + one plain vector loop scan,
// back to back; pooled_vs_vector is vector time over pooled time.
void BM_StackPooledVsVector(benchmark::State& state) {
  static Alphabet* alphabet = new Alphabet(Alphabet::FromLetters("abc"));
  static Dfa* dfa = new Dfa(CompileRegex(".*a.*b", *alphabet));
  static std::string* doc = new std::string(DeepDoc());
  StackQueryEvaluator pooled(dfa);
  StreamingSelector pooled_sel(&pooled, StreamFormat::kCompactMarkup,
                               alphabet);
  VectorStackLoop vec(*dfa, *alphabet);
  int64_t vec_matches = 0;
  bool pooled_first = true;
  std::vector<double> ratios;
  auto run_pooled = [&] {
    pooled_sel.Reset();
    const auto t0 = Clock::now();
    SST_CHECK(pooled_sel.Feed(*doc));
    SST_CHECK(pooled_sel.Finish());
    return Seconds(t0, Clock::now());
  };
  auto run_vec = [&] {
    const auto t0 = Clock::now();
    vec_matches = vec.Scan(*doc);
    benchmark::DoNotOptimize(vec_matches);
    return Seconds(t0, Clock::now());
  };
  for (auto _ : state) {
    // Alternate which scan goes first so warm-cache advantage for the
    // second scan cancels out of the ratio.
    double pooled_s;
    double vec_s;
    if (pooled_first) {
      pooled_s = run_pooled();
      vec_s = run_vec();
    } else {
      vec_s = run_vec();
      pooled_s = run_pooled();
    }
    pooled_first = !pooled_first;
    SST_CHECK(pooled_sel.matches() == vec_matches);
    ratios.push_back(vec_s / pooled_s);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 2 *
                          static_cast<int64_t>(doc->size()));
  // Median of the per-pair ratios: one preempted scan (shared-runner
  // noise burst) shifts a total-time ratio by several percent but leaves
  // the median untouched.
  state.counters["pooled_vs_vector"] = Median(std::move(ratios));
}
BENCHMARK(BM_StackPooledVsVector);

}  // namespace
}  // namespace sst

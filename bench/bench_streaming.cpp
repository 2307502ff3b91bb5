// Scanner throughput for the StreamingSelector front-end and the layers
// above it. The scanner classifies bytes through precomputed 256-entry
// tables and, for registerless machines on compact markup, runs the fused
// ByteTagDfaRunner byte→state table. Chunk sizes sweep 64 B … 1 MB to
// show the per-chunk overhead amortizing away.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "automata/alphabet.h"
#include "automata/minimize.h"
#include "base/byte_scan.h"
#include "base/check.h"
#include "base/match_sink.h"
#include "bench_util.h"
#include "dra/byte_runner.h"
#include "dra/streaming.h"
#include "dra/tag_dfa.h"
#include "engine/multi_query.h"
#include "engine/plan_cache.h"
#include "engine/query_plan.h"
#include "engine/session.h"
#include "eval/registerless_query.h"
#include "eval/stack_evaluator.h"
#include "query/rpq.h"
#include "trees/encoding.h"

namespace sst {
namespace {

using Format = StreamingSelector::Format;

constexpr int kDocNodes = 1 << 19;  // 1 MiB of compact markup

std::string DocumentBytes(Format format) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  EventStream events =
      Encode(bench::MakeDocument(bench::DocShape::kMixed, kDocNodes, 3, 42));
  switch (format) {
    case Format::kCompactMarkup:
      return ToCompactMarkup(alphabet, events);
    case Format::kXmlLite:
      return ToXmlLite(alphabet, events);
    case Format::kCompactTerm:
      return ToCompactTerm(alphabet, events);
  }
  return {};
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

template <typename Selector>
int64_t DriveChunked(Selector& selector, const std::string& bytes,
                     size_t chunk_size) {
  selector.Reset();
  for (size_t i = 0; i < bytes.size(); i += chunk_size) {
    if (!selector.Feed(std::string_view(bytes).substr(i, chunk_size))) {
      return -1;
    }
  }
  return selector.Finish() ? selector.matches() : -1;
}

struct BenchSetup {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  TagDfa evaluator;
  TagDfaMachine machine;

  explicit BenchSetup(bool blind)
      : evaluator(BuildRegisterlessQueryAutomaton(
            CompileRegex("a.*b", Alphabet::FromLetters("abc")), blind)),
        machine(&evaluator) {}
};

void BM_RebuiltScanner(benchmark::State& state) {
  Format format = static_cast<Format>(state.range(0));
  size_t chunk_size = static_cast<size_t>(state.range(1));
  BenchSetup setup(format == Format::kCompactTerm);
  std::string bytes = DocumentBytes(format);
  int64_t matches = 0;
  StreamingSelector selector(&setup.machine, format, &setup.alphabet);
  for (auto _ : state) {
    matches = DriveChunked(selector, bytes, chunk_size);
    benchmark::DoNotOptimize(matches);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
  state.counters["matches"] = static_cast<double>(matches);
  std::string label = FormatName(format);
  label += "/fastest/chunk=" + std::to_string(chunk_size);
  state.SetLabel(label);
}

// Robustness guards on: finite StreamLimits plus the skip-recovery
// policy, on a clean document. Measures the hot-path overhead of the
// hardened front-end (per-open depth check, per-event budget check,
// per-Feed byte-guard split) against BM_RebuiltScanner — the acceptance
// bar is <2%.
void BM_RebuiltScannerGuarded(benchmark::State& state) {
  Format format = static_cast<Format>(state.range(0));
  size_t chunk_size = static_cast<size_t>(state.range(1));
  BenchSetup setup(format == Format::kCompactTerm);
  std::string bytes = DocumentBytes(format);
  StreamLimits limits;
  limits.max_depth = 1 << 20;
  limits.max_document_bytes = int64_t{1} << 40;
  limits.max_events = int64_t{1} << 40;
  limits.max_recovered_errors = 64;
  StreamingSelector selector(&setup.machine, format, &setup.alphabet);
  selector.set_recovery_policy(RecoveryPolicy::kSkipMalformedSubtree);
  selector.set_limits(limits);
  int64_t matches = 0;
  for (auto _ : state) {
    matches = DriveChunked(selector, bytes, chunk_size);
    benchmark::DoNotOptimize(matches);
  }
  SST_CHECK(matches >= 0);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
  state.counters["matches"] = static_cast<double>(matches);
  std::string label = FormatName(format);
  label += "/guarded/chunk=" + std::to_string(chunk_size);
  state.SetLabel(label);
}

const std::vector<std::vector<int64_t>> kArgs = {
    {0, 1, 2},                              // format
    {64, 1024, 65536, 1 << 20},             // chunk size
};

BENCHMARK(BM_RebuiltScanner)->ArgsProduct(kArgs);
BENCHMARK(BM_RebuiltScannerGuarded)->ArgsProduct(kArgs);

// --- Whitespace-padded XML: the SIMD/SWAR bulk-skip showcase ------------
// Pretty-printed XML is mostly indentation; the scanner jumps whitespace
// runs 64 bytes at a time (base/byte_scan.h) and memchr-scans tag bodies.

std::string PaddedXmlBytes() {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  EventStream events = Encode(
      bench::MakeDocument(bench::DocShape::kMixed, 1 << 17, 3, 42));
  std::string out;
  int depth = 0;
  for (const TagEvent& event : events) {
    if (!event.open) --depth;
    out.append(1, '\n');
    out.append(static_cast<size_t>(depth) * 2, ' ');
    out += event.open ? "<" : "</";
    out += alphabet.LabelOf(event.symbol);
    out += ">";
    if (event.open) ++depth;
  }
  return out;
}

void BM_RebuiltScannerPaddedXml(benchmark::State& state) {
  BenchSetup setup(false);
  std::string bytes = PaddedXmlBytes();
  size_t chunk_size = 65536;
  int64_t matches = 0;
  StreamingSelector selector(&setup.machine, Format::kXmlLite,
                             &setup.alphabet);
  for (auto _ : state) {
    matches = DriveChunked(selector, bytes, chunk_size);
    benchmark::DoNotOptimize(matches);
  }
  SST_CHECK(matches >= 0);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
  state.counters["matches"] = static_cast<double>(matches);
  std::string label = "xmlpad/rebuilt/kernel=";
  label += ByteScanKernelName();
  state.SetLabel(label);
}

BENCHMARK(BM_RebuiltScannerPaddedXml);

// --- Sequential fused table on large documents -------------------------
// Inputs are large balanced documents: copies of the 1 MiB random document
// nested under a single root, so 64 MB of compact markup stays one
// well-formed tree.

const std::string& TiledMarkup(size_t target_bytes) {
  static std::map<size_t, std::string>* cache =
      new std::map<size_t, std::string>();
  auto it = cache->find(target_bytes);
  if (it != cache->end()) return it->second;
  const std::string base = DocumentBytes(Format::kCompactMarkup);
  std::string out = "a";
  out.reserve(target_bytes + base.size() + 2);
  while (out.size() + base.size() + 1 < target_bytes) out += base;
  out += "A";
  return (*cache)[target_bytes] = std::move(out);
}

void BM_SequentialFusedRunner(benchmark::State& state) {
  size_t mib = static_cast<size_t>(state.range(0));
  BenchSetup setup(false);
  ByteTagDfaRunner runner(setup.evaluator);
  const std::string& bytes = TiledMarkup(mib << 20);
  int64_t matches = 0;
  for (auto _ : state) {
    matches = runner.CountSelections(bytes);
    benchmark::DoNotOptimize(matches);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
  state.counters["matches"] = static_cast<double>(matches);
  state.SetLabel("seq/" + std::to_string(mib) + "MiB");
}

BENCHMARK(BM_SequentialFusedRunner)->Arg(16)->Arg(64);

// The framing cost over the bare walk on dense markup. One iteration =
// kPairs pairs of scans of the same dense compact markup (the
// BM_RebuiltScanner/0/65536 document): a StreamingSelector fed 64 KiB
// chunks (fused byte table, framing and well-formedness included) and the
// same query's bare table walk (ByteTagDfaRunner::CountSelections, as in
// BM_SequentialFusedRunner), in alternating order. selector_over_walk is
// the median of walk time over selector time per pair: the share of the
// walk's speed the selector keeps.
void BM_MarkupSelectorVsWalk(benchmark::State& state) {
  BenchSetup setup(false);
  const std::string bytes = DocumentBytes(Format::kCompactMarkup);
  ByteTagDfaRunner runner(setup.evaluator);
  StreamingSelector selector(&setup.machine, Format::kCompactMarkup,
                             &setup.alphabet);
  SST_CHECK(selector.using_fused_fast_path());
  constexpr size_t kChunk = 65536;
  constexpr int kPairs = 15;
  const int64_t expected = runner.CountSelections(bytes);
  SST_CHECK(DriveChunked(selector, bytes, kChunk) == expected);
  auto timed = [](auto&& scan) {
    const auto start = std::chrono::steady_clock::now();
    scan();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  auto select = [&] {
    SST_CHECK(DriveChunked(selector, bytes, kChunk) == expected);
  };
  auto walk = [&] { SST_CHECK(runner.CountSelections(bytes) == expected); };
  std::vector<double> ratios;
  bool selector_first = true;
  for (auto _ : state) {
    for (int pair = 0; pair < kPairs; ++pair) {
      double selector_s;
      double walk_s;
      if (selector_first) {
        selector_s = timed(select);
        walk_s = timed(walk);
      } else {
        walk_s = timed(walk);
        selector_s = timed(select);
      }
      selector_first = !selector_first;
      ratios.push_back(walk_s / selector_s);
    }
  }
  state.SetBytesProcessed(state.iterations() * 2 * kPairs *
                          static_cast<int64_t>(bytes.size()));
  std::nth_element(ratios.begin(), ratios.begin() + ratios.size() / 2,
                   ratios.end());
  state.counters["selector_over_walk"] = ratios[ratios.size() / 2];
  state.counters["matches"] = static_cast<double>(expected);
  state.SetLabel("markup-dense/selector-vs-walk/chunk=65536");
}

BENCHMARK(BM_MarkupSelectorVsWalk);

// Framing cost per format. One iteration = kRounds rounds over one dense
// random tree (the BM_RebuiltScanner document) serialized as compact
// markup, compact term and XML-lite: a reused Session for a stackless
// "/x/c" whose first step misses the root, so its DRA sleeps after the
// root and each event costs the framing and one compare. Each round times
// the three formats in a rotating order. term_over_markup and
// xml_over_markup are the medians of markup's time over the other
// format's per round; the events are the same, so that is markup's ns per
// event over the other format's.
void BM_FramedFormatsVsMarkup(benchmark::State& state) {
  const Format kFormats[] = {Format::kCompactMarkup, Format::kCompactTerm,
                             Format::kXmlLite};
  const Alphabet alphabet = Alphabet::FromLetters("abc");
  std::string bytes[3];
  for (int f = 0; f < 3; ++f) bytes[f] = DocumentBytes(kFormats[f]);
  const std::string query = bytes[0][0] == 'b' ? "/a/c" : "/b/c";
  std::vector<std::unique_ptr<Session>> sessions;
  int64_t expected = -1;
  int64_t events = -1;
  for (int f = 0; f < 3; ++f) {
    PlanOptions options;
    options.format = kFormats[f];
    options.encoding = kFormats[f] == Format::kCompactTerm
                           ? StreamEncoding::kTerm
                           : StreamEncoding::kMarkup;
    auto plan =
        QueryPlan::Compile(Rpq::FromXPath(query, alphabet), options);
    sessions.push_back(std::make_unique<Session>(plan));
    Session& session = *sessions.back();
    const int64_t matches = DriveChunked(session, bytes[f], 65536);
    SST_CHECK(session.selector().active_tier() ==
              StreamingSelector::Tier::kFusedDraTable);
    SST_CHECK(f == 0 || (matches == expected &&
                         session.stats().events == events));
    expected = matches;
    events = session.stats().events;
  }
  constexpr int kRounds = 15;
  std::vector<double> term_ratios;
  std::vector<double> xml_ratios;
  int round = 0;
  for (auto _ : state) {
    for (int r = 0; r < kRounds; ++r, ++round) {
      double seconds[3];
      for (int k = 0; k < 3; ++k) {
        const int f = (round + k) % 3;
        const auto start = std::chrono::steady_clock::now();
        SST_CHECK(DriveChunked(*sessions[f], bytes[f], 65536) == expected);
        seconds[f] = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
      }
      term_ratios.push_back(seconds[0] / seconds[1]);
      xml_ratios.push_back(seconds[0] / seconds[2]);
    }
  }
  state.SetBytesProcessed(
      state.iterations() * kRounds *
      static_cast<int64_t>(bytes[0].size() + bytes[1].size() +
                           bytes[2].size()));
  auto median = [](std::vector<double>& v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  state.counters["term_over_markup"] = median(term_ratios);
  state.counters["xml_over_markup"] = median(xml_ratios);
  state.counters["matches"] = static_cast<double>(expected);
  state.SetLabel("framing" + query + "/markup-term-xml-dense/chunk=65536");
}

BENCHMARK(BM_FramedFormatsVsMarkup);

// --- Engine layer: compile-once/run-many amortization -------------------
// The cost ladder the engine is built around, one rung per benchmark:
// a cold QueryPlan::Compile (minimize + classify + build every table), a
// warm PlanCache hit (one shard lock + hash lookup), a fresh Session on a
// compiled plan (machine + scanner state, no tables), and a pooled
// re-acquire (free-list pop + Reset, zero allocations). Run side-by-side
// with BM_SharedPlanStreaming these give the break-even stream count where
// compiling stops mattering.

void BM_EngineColdCompile(benchmark::State& state) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Rpq rpq = Rpq::FromXPath("/a//b", alphabet);
  for (auto _ : state) {
    auto plan = QueryPlan::Compile(rpq, PlanOptions{});
    benchmark::DoNotOptimize(plan);
  }
  state.SetLabel("compile/cold");
}

void BM_EngineCacheHit(benchmark::State& state) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  PlanCache cache;
  cache.GetOrCompile(QuerySyntax::kXPath, "/a//b", alphabet, PlanOptions{});
  for (auto _ : state) {
    auto plan = cache.GetOrCompile(QuerySyntax::kXPath, "/a//b", alphabet,
                                   PlanOptions{});
    benchmark::DoNotOptimize(plan);
  }
  state.SetLabel("compile/cache-hit");
}

void BM_EngineFreshSession(benchmark::State& state) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  auto plan = QueryPlan::Compile(Rpq::FromXPath("/a//b", alphabet),
                                 PlanOptions{});
  for (auto _ : state) {
    Session session(plan);
    benchmark::DoNotOptimize(session.matches());
  }
  state.SetLabel("session/fresh");
}

void BM_EnginePooledSession(benchmark::State& state) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  auto plan = QueryPlan::Compile(Rpq::FromXPath("/a//b", alphabet),
                                 PlanOptions{});
  SessionPool pool(plan);
  pool.Release(pool.Acquire());  // warm the free list
  for (auto _ : state) {
    auto session = pool.Acquire();
    benchmark::DoNotOptimize(session->matches());
    pool.Release(std::move(session));
  }
  state.SetLabel("session/pooled");
}

BENCHMARK(BM_EngineColdCompile);
BENCHMARK(BM_EngineCacheHit);
BENCHMARK(BM_EngineFreshSession);
BENCHMARK(BM_EnginePooledSession);

// --- Multi-session shared-plan throughput -------------------------------
// T worker lanes stream disjoint replicas of the 1 MiB document through T
// pooled sessions over ONE plan — the serving configuration the engine
// layer exists for. Aggregate bytes/sec across lanes; real time, so lane
// counts beyond the core count show the (expected) flat line rather than
// fake scaling.

void BM_SharedPlanStreaming(benchmark::State& state) {
  int threads = static_cast<int>(state.range(0));
  Alphabet alphabet = Alphabet::FromLetters("abc");
  auto plan = QueryPlan::Compile(Rpq::FromXPath("/a//b", alphabet),
                                 PlanOptions{});
  SessionPool session_pool(plan, static_cast<size_t>(threads));
  const std::string& bytes = TiledMarkup(size_t{4} << 20);
  constexpr size_t kChunk = 65536;
  auto lane = [&] {
    auto session = session_pool.Acquire();
    session->Reset();
    bool ok = true;
    for (size_t i = 0; ok && i < bytes.size(); i += kChunk) {
      ok = session->Feed(std::string_view(bytes).substr(i, kChunk));
    }
    SST_CHECK(ok && session->Finish());
    benchmark::DoNotOptimize(session->matches());
    session_pool.Release(std::move(session));
  };
  for (auto _ : state) {
    // threads - 1 helper lanes plus the benchmark thread itself.
    std::vector<std::thread> helpers;
    for (int t = 1; t < threads; ++t) helpers.emplace_back(lane);
    lane();
    for (std::thread& helper : helpers) helper.join();
  }
  state.SetBytesProcessed(state.iterations() * threads *
                          static_cast<int64_t>(bytes.size()));
  state.counters["threads"] = threads;
  state.SetLabel("sharedplan/threads=" + std::to_string(threads));
}

BENCHMARK(BM_SharedPlanStreaming)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// --- Multi-query fused execution ----------------------------------------
// N queries answered over ONE document scan through the output-annotated
// product automaton (engine/multi_query.h), against the status quo of N
// independent pooled sessions each scanning the document. Both report
// bytes-processed = document size per iteration — the work is "answer all
// N queries over this document" — so the bytes/sec ratio IS the speedup.

const Alphabet& WideAlphabet() {
  static const Alphabet* alphabet =
      new Alphabet(Alphabet::FromLetters("abcdef"));
  return *alphabet;
}

// Deterministic registerless family over {a..f}: the 30 two-step vertical
// paths "/x//y" (x != y) first, then the 6 root tests "/x". Every one
// compiles to the registerless tier, so any prefix of the list fuses.
std::vector<BatchQuery> MultiQueryBatch(int n) {
  static const std::vector<std::string>* texts = [] {
    auto* list = new std::vector<std::string>();
    const char* letters = "abcdef";
    for (int x = 0; x < 6; ++x) {
      for (int y = 0; y < 6; ++y) {
        if (x == y) continue;
        list->push_back(std::string("/") + letters[x] + "//" + letters[y]);
      }
    }
    for (int x = 0; x < 6; ++x) {
      list->push_back(std::string("/") + letters[x]);
    }
    return list;
  }();
  SST_CHECK(n <= static_cast<int>(texts->size()));
  std::vector<BatchQuery> batch;
  for (int i = 0; i < n; ++i) {
    batch.push_back(BatchQuery{QuerySyntax::kXPath, (*texts)[i]});
  }
  return batch;
}

// The padded-XML acceptance corpus over the six-letter alphabet:
// pretty-printed xml-lite, two spaces of indentation per depth level.
const std::string& PaddedXmlWideBytes() {
  static const std::string* cached = [] {
    const Alphabet& alphabet = WideAlphabet();
    EventStream events = Encode(
        bench::MakeDocument(bench::DocShape::kMixed, 1 << 17, 6, 42));
    auto* out = new std::string();
    int depth = 0;
    for (const TagEvent& event : events) {
      if (!event.open) --depth;
      out->append(1, '\n');
      out->append(static_cast<size_t>(depth) * 2, ' ');
      *out += event.open ? "<" : "</";
      *out += alphabet.LabelOf(event.symbol);
      *out += ">";
      if (event.open) ++depth;
    }
    return out;
  }();
  return *cached;
}

// Compact-markup corpus over the same alphabet for the byte-table tier.
const std::string& WideMarkupBytes() {
  static const std::string* cached = [] {
    return new std::string(ToCompactMarkup(
        WideAlphabet(),
        Encode(bench::MakeDocument(bench::DocShape::kMixed, 1 << 20, 6, 7))));
  }();
  return *cached;
}

// Per-query reference counts from N independent streaming runs.
std::vector<int64_t> IndependentReference(const std::vector<BatchQuery>& batch,
                                          const PlanOptions& options,
                                          const std::string& bytes) {
  std::vector<int64_t> counts;
  for (const BatchQuery& query : batch) {
    auto plan = QueryPlan::Compile(
        Rpq::FromXPath(query.text, WideAlphabet()), options);
    Session session(plan);
    SST_CHECK(session.Feed(bytes) && session.Finish());
    counts.push_back(session.matches());
  }
  return counts;
}

bool DriveBatchChunked(BatchSession& session, const std::string& bytes,
                       size_t chunk_size) {
  session.Reset();
  for (size_t i = 0; i < bytes.size(); i += chunk_size) {
    if (!session.Feed(std::string_view(bytes).substr(i, chunk_size))) {
      return false;
    }
  }
  return session.Finish();
}

void BM_MultiQueryFused(benchmark::State& state) {
  int num_queries = static_cast<int>(state.range(0));
  std::vector<BatchQuery> batch = MultiQueryBatch(num_queries);
  MultiQueryOptions options;
  options.plan.format = StreamFormat::kXmlLite;
  auto plan = MultiQueryPlan::Compile(batch, WideAlphabet(), options);
  SST_CHECK(plan->tier() == MultiTier::kFusedProduct);
  BatchSession session(plan);
  const std::string& bytes = PaddedXmlWideBytes();
  std::vector<int64_t> expected =
      IndependentReference(batch, options.plan, bytes);
  constexpr size_t kChunk = 65536;
  for (auto _ : state) {
    SST_CHECK(DriveBatchChunked(session, bytes, kChunk));
    // Acceptance: per-query counts byte-identical to independent runs.
    SST_CHECK(session.query_matches() == expected);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
  state.counters["queries"] = num_queries;
  state.counters["product_states"] =
      static_cast<double>(plan->stats().eager_states);
  state.SetLabel("multiquery/fused/xmlpad/N=" + std::to_string(num_queries));
}

// The status quo for a batch: one pooled session per query, N full
// scans of the padded xml-lite corpus. Returns the per-query counts.
std::vector<int64_t> RunPerQuerySessions(benchmark::State& state,
                                         const std::vector<BatchQuery>& batch) {
  PlanOptions options;
  options.format = StreamFormat::kXmlLite;
  std::vector<std::unique_ptr<SessionPool>> pools;
  for (const BatchQuery& query : batch) {
    pools.push_back(std::make_unique<SessionPool>(QueryPlan::Compile(
        Rpq::FromXPath(query.text, WideAlphabet()), options)));
  }
  const std::string& bytes = PaddedXmlWideBytes();
  constexpr size_t kChunk = 65536;
  std::vector<int64_t> counts(batch.size(), 0);
  for (auto _ : state) {
    for (size_t q = 0; q < pools.size(); ++q) {
      auto session = pools[q]->Acquire();
      bool ok = true;
      for (size_t i = 0; ok && i < bytes.size(); i += kChunk) {
        ok = session->Feed(std::string_view(bytes).substr(i, kChunk));
      }
      SST_CHECK(ok && session->Finish());
      counts[q] = session->matches();
      pools[q]->Release(std::move(session));
    }
    benchmark::DoNotOptimize(counts.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
  state.counters["queries"] = static_cast<double>(batch.size());
  return counts;
}

void BM_MultiQueryIndependent(benchmark::State& state) {
  int num_queries = static_cast<int>(state.range(0));
  RunPerQuerySessions(state, MultiQueryBatch(num_queries));
  state.SetLabel("multiquery/independent/xmlpad/N=" +
                 std::to_string(num_queries));
}

// A mixed batch on xml-lite, shaped like the end-to-end benchmark's R2:
// 8 registerless "/x//y" plus the stackless "/a/b" and "/a/c", which ride
// the batch's one scan as fused-DRA side-cars. The streaming row runs one
// pooled BatchSession; the per-query row answers the same batch with one
// pooled Session per query over the same bytes. bench_baselines.json holds
// the first at >= 2x the second.
std::vector<BatchQuery> MixedXmlBatch() {
  std::vector<BatchQuery> batch = MultiQueryBatch(8);
  batch.push_back(BatchQuery{QuerySyntax::kXPath, "/a/b"});
  batch.push_back(BatchQuery{QuerySyntax::kXPath, "/a/c"});
  return batch;
}

void BM_MixedBatchStreamingXml(benchmark::State& state) {
  std::vector<BatchQuery> batch = MixedXmlBatch();
  MultiQueryOptions options;
  options.plan.format = StreamFormat::kXmlLite;
  auto plan = MultiQueryPlan::Compile(batch, WideAlphabet(), options);
  SST_CHECK(plan->tier() == MultiTier::kMixed);
  SST_CHECK(plan->stats().stackless_members == 2);
  SST_CHECK(plan->stats().machine_members == 0);
  BatchSessionPool pool(plan);
  const std::string& bytes = PaddedXmlWideBytes();
  std::vector<int64_t> expected =
      IndependentReference(batch, options.plan, bytes);
  constexpr size_t kChunk = 65536;
  for (auto _ : state) {
    std::unique_ptr<BatchSession> session = pool.Acquire();
    SST_CHECK(DriveBatchChunked(*session, bytes, kChunk));
    // Acceptance: per-query counts byte-identical to independent runs.
    SST_CHECK(session->query_matches() == expected);
    pool.Release(std::move(session));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
  state.counters["queries"] = static_cast<double>(batch.size());
  state.SetLabel("multiquery/mixed-streaming/xmlpad");
}

void BM_MixedBatchPerQueryXml(benchmark::State& state) {
  std::vector<BatchQuery> batch = MixedXmlBatch();
  PlanOptions options;
  options.format = StreamFormat::kXmlLite;
  std::vector<int64_t> expected =
      IndependentReference(batch, options, PaddedXmlWideBytes());
  SST_CHECK(RunPerQuerySessions(state, batch) == expected);
  state.SetLabel("multiquery/mixed-per-query/xmlpad");
}

BENCHMARK(BM_MultiQueryFused)->Arg(2)->Arg(8)->Arg(32);
BENCHMARK(BM_MultiQueryIndependent)->Arg(2)->Arg(8)->Arg(32);
BENCHMARK(BM_MixedBatchStreamingXml);
BENCHMARK(BM_MixedBatchPerQueryXml);

// Byte-table tier on compact markup: the eager product fused into one
// 256-entry table vs N independent fused single-query tables. Same
// accounting as above.

void BM_MultiQueryEagerScan(benchmark::State& state) {
  int num_queries = static_cast<int>(state.range(0));
  std::vector<BatchQuery> batch = MultiQueryBatch(num_queries);
  auto plan =
      MultiQueryPlan::Compile(batch, WideAlphabet(), MultiQueryOptions{});
  SST_CHECK(plan->tier() == MultiTier::kFusedProduct &&
            plan->stats().lanes == 1);
  BatchSession session(plan);
  const std::string& bytes = WideMarkupBytes();
  std::vector<int64_t> counts;
  for (auto _ : state) {
    counts = session.CountSelections(bytes);
    benchmark::DoNotOptimize(counts.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
  state.counters["queries"] = num_queries;
  state.counters["product_states"] =
      static_cast<double>(plan->stats().eager_states);
  state.SetLabel("multiquery/eager-scan/N=" + std::to_string(num_queries));
}

void BM_MultiQueryIndependentScan(benchmark::State& state) {
  int num_queries = static_cast<int>(state.range(0));
  std::vector<BatchQuery> batch = MultiQueryBatch(num_queries);
  std::vector<std::shared_ptr<const QueryPlan>> plans;
  for (const BatchQuery& query : batch) {
    plans.push_back(QueryPlan::Compile(
        Rpq::FromXPath(query.text, WideAlphabet()), PlanOptions{}));
    SST_CHECK(plans.back()->fused() != nullptr);
  }
  const std::string& bytes = WideMarkupBytes();
  std::vector<int64_t> counts(plans.size(), 0);
  for (auto _ : state) {
    for (size_t q = 0; q < plans.size(); ++q) {
      counts[q] = plans[q]->fused()->CountSelections(bytes);
    }
    benchmark::DoNotOptimize(counts.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
  state.counters["queries"] = num_queries;
  state.SetLabel("multiquery/independent-scan/N=" +
                 std::to_string(num_queries));
}

BENCHMARK(BM_MultiQueryEagerScan)->Arg(2)->Arg(8)->Arg(32);
BENCHMARK(BM_MultiQueryIndependentScan)->Arg(2)->Arg(8)->Arg(32);

// A batch past the eager state cap: over 64 labels, the 64 root tests
// "/x//*" and the 64 label tests "//y", interleaved — the registerless
// XPath pool's (k+1)(k+2) = 4,290-state product (EXPERIMENTS.md E25).
// It compiles to two eager lanes, which a pooled BatchSession steps in
// turn on every event of padded xml-lite; counts are checked against one
// Session per query on every iteration.
void BM_MultiQueryOverCapStreaming(benchmark::State& state) {
  Alphabet alphabet;
  std::vector<BatchQuery> batch;
  for (int i = 0; i < 64; ++i) {
    const std::string label = "l" + std::to_string(i);
    alphabet.Intern(label);
    batch.push_back(BatchQuery{QuerySyntax::kXPath, "/" + label + "//*"});
    batch.push_back(BatchQuery{QuerySyntax::kXPath, "//" + label});
  }
  MultiQueryOptions options;
  options.plan.format = StreamFormat::kXmlLite;
  auto plan = MultiQueryPlan::Compile(batch, alphabet, options);
  SST_CHECK(plan->stats().lanes >= 2);
  EventStream events =
      Encode(bench::MakeDocument(bench::DocShape::kMixed, 1 << 17, 64, 42));
  const std::string bytes = ToXmlLite(alphabet, events);
  std::vector<int64_t> expected;
  for (const auto& slot_plan : plan->slot_plans()) {
    Session session(slot_plan);
    SST_CHECK(session.Feed(bytes) && session.Finish());
    expected.push_back(session.matches());
  }
  BatchSessionPool pool(plan);
  constexpr size_t kChunk = 65536;
  for (auto _ : state) {
    std::unique_ptr<BatchSession> session = pool.Acquire();
    SST_CHECK(DriveBatchChunked(*session, bytes, kChunk));
    SST_CHECK(session->query_matches() == expected);
    pool.Release(std::move(session));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
  state.counters["queries"] = static_cast<double>(batch.size());
  state.counters["lanes"] = plan->stats().lanes;
  state.counters["product_states"] =
      static_cast<double>(plan->stats().eager_states);
  state.SetLabel("multiquery/over-cap-streaming/xml/N=128");
}

BENCHMARK(BM_MultiQueryOverCapStreaming);

// The dense ladder floor: a pooled BatchSession streaming 8 "/x//y"
// queries (eager product) against the same plan's one-scan
// CountSelections, on identical whitespace-free markup. The streaming row
// validates framing and enforces limits on every event; the one-scan row
// only walks the product byte table. bench_baselines.json holds their
// ratio.
std::shared_ptr<const MultiQueryPlan> DenseProductPlan() {
  auto plan = MultiQueryPlan::Compile(MultiQueryBatch(8), WideAlphabet(),
                                      MultiQueryOptions{});
  SST_CHECK(plan->tier() == MultiTier::kFusedProduct);
  return plan;
}

void BM_ProductBatchStreamingDense(benchmark::State& state) {
  auto plan = DenseProductPlan();
  const std::string& bytes = WideMarkupBytes();
  const std::vector<int64_t> expected =
      BatchSession(plan).CountSelections(bytes);
  BatchSessionPool pool(plan);
  constexpr size_t kChunk = 65536;
  for (auto _ : state) {
    std::unique_ptr<BatchSession> session = pool.Acquire();
    SST_CHECK(DriveBatchChunked(*session, bytes, kChunk));
    SST_CHECK(session->query_matches() == expected);
    pool.Release(std::move(session));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
  state.SetLabel("multiquery/streaming/markup-dense/N=8");
}

void BM_ProductBatchOneScanDense(benchmark::State& state) {
  auto plan = DenseProductPlan();
  const std::string& bytes = WideMarkupBytes();
  BatchSession session(plan);
  const std::vector<int64_t> expected = session.CountSelections(bytes);
  for (auto _ : state) {
    SST_CHECK(session.CountSelections(bytes) == expected);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
  state.SetLabel("multiquery/one-scan/markup-dense/N=8");
}

// The same dense bytes through the R2-shaped batch (MixedXmlBatch on
// markup): the product of the 8 "/x//y" plus the fused-DRA side-cars
// "/a/b" and "/a/c", which sleep through most of the document
// (ByteDraRunner::IsSleepy). bench_baselines.json holds it against
// BM_ProductBatchStreamingDense, the same scan without side-cars.
void BM_SideCarBatchStreamingDense(benchmark::State& state) {
  auto plan = MultiQueryPlan::Compile(MixedXmlBatch(), WideAlphabet(),
                                      MultiQueryOptions{});
  SST_CHECK(plan->tier() == MultiTier::kMixed);
  SST_CHECK(plan->stats().lanes == 1);
  SST_CHECK(plan->stats().stackless_members == 2);
  const std::string& bytes = WideMarkupBytes();
  const std::vector<int64_t> expected =
      BatchSession(plan).CountSelections(bytes);
  BatchSessionPool pool(plan);
  constexpr size_t kChunk = 65536;
  for (auto _ : state) {
    std::unique_ptr<BatchSession> session = pool.Acquire();
    SST_CHECK(DriveBatchChunked(*session, bytes, kChunk));
    SST_CHECK(session->query_matches() == expected);
    pool.Release(std::move(session));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
  state.SetLabel("multiquery/side-car-streaming/markup-dense/N=10");
}

// Single queries on the same dense bytes: the stackless "/a/b" on the
// fused-DRA stepper and the stack-baseline "//a/b" on the inline stack
// stepper, each as a Session. bench_baselines.json holds both against
// BM_ProductBatchStreamingDense, so a fused-DRA stepper that starts
// spilling its state (a DraConfig back in the loop copy) fails its floor.
// The second floor is only a cliff guard; BM_StackInlineVsVirtualDense
// below guards the inline stack stepper itself.
void RunDenseSession(benchmark::State& state, const char* query,
                     EvaluatorKind kind) {
  auto plan =
      QueryPlan::Compile(Rpq::FromXPath(query, WideAlphabet()), PlanOptions{});
  SST_CHECK(plan->kind() == kind);
  const std::string& bytes = WideMarkupBytes();
  Session reference(plan);
  const int64_t expected = DriveChunked(reference, bytes, bytes.size());
  SST_CHECK(expected >= 0);
  Session session(plan);
  constexpr size_t kChunk = 65536;
  for (auto _ : state) {
    SST_CHECK(DriveChunked(session, bytes, kChunk) == expected);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
  state.counters["matches"] = static_cast<double>(expected);
}

void BM_StacklessStreamingDense(benchmark::State& state) {
  RunDenseSession(state, "/a/b", EvaluatorKind::kStackless);
  state.SetLabel("stackless/fused-streaming/markup-dense");
}

void BM_StackStreamingDense(benchmark::State& state) {
  RunDenseSession(state, "//a/b", EvaluatorKind::kStackBaseline);
  state.SetLabel("stack/streaming/markup-dense");
}

// Hides a StackQueryEvaluator's export, so the scanner steps it through
// the virtual interface. The evaluator's type is final, so each forwarded
// call is direct: one virtual dispatch per event, as on the generic path.
class HiddenStackMachine final : public StreamMachine {
 public:
  explicit HiddenStackMachine(const Dfa* dfa) : inner_(dfa) {}
  void Reset() override { inner_.Reset(); }
  void OnOpen(Symbol symbol) override { inner_.OnOpen(symbol); }
  void OnClose(Symbol symbol) override { inner_.OnClose(symbol); }
  bool InAcceptingState() const override {
    return inner_.InAcceptingState();
  }

 private:
  StackQueryEvaluator inner_;
};

// The guard of the inline stack stepper. One iteration = kPairs pairs of
// passes over the dense bytes: the "//a/b" Session (inline StackStepper)
// and the same evaluator behind HiddenStackMachine, in alternating order.
// inline_over_virtual is the median of virtual time over inline time per
// pair (above 1.0 = inline faster); the pairing cancels the machine drift
// that makes a ratio of two separately run rows too noisy to tell the two
// steppers apart at CI's short --min-time.
void BM_StackInlineVsVirtualDense(benchmark::State& state) {
  auto plan = QueryPlan::Compile(Rpq::FromXPath("//a/b", WideAlphabet()),
                                 PlanOptions{});
  SST_CHECK(plan->kind() == EvaluatorKind::kStackBaseline);
  const std::string& bytes = WideMarkupBytes();
  Session session(plan);
  const int64_t expected = DriveChunked(session, bytes, bytes.size());
  SST_CHECK(expected >= 0);
  HiddenStackMachine hidden(&plan->minimal_dfa());
  StreamingSelector hidden_sel(&hidden, plan->options().format,
                               &plan->alphabet(), &plan->scanner_tables(),
                               /*fused=*/nullptr);
  constexpr size_t kChunk = 65536;
  constexpr int kPairs = 15;
  auto timed = [&](auto& selector) {
    const auto start = std::chrono::steady_clock::now();
    SST_CHECK(DriveChunked(selector, bytes, kChunk) == expected);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  std::vector<double> ratios;
  bool inline_first = true;
  for (auto _ : state) {
    for (int pair = 0; pair < kPairs; ++pair) {
      double inline_s;
      double virtual_s;
      if (inline_first) {
        inline_s = timed(session);
        virtual_s = timed(hidden_sel);
      } else {
        virtual_s = timed(hidden_sel);
        inline_s = timed(session);
      }
      inline_first = !inline_first;
      ratios.push_back(virtual_s / inline_s);
    }
  }
  state.SetBytesProcessed(state.iterations() * 2 * kPairs *
                          static_cast<int64_t>(bytes.size()));
  std::nth_element(ratios.begin(), ratios.begin() + ratios.size() / 2,
                   ratios.end());
  state.counters["inline_over_virtual"] = ratios[ratios.size() / 2];
  state.counters["matches"] = static_cast<double>(expected);
  state.SetLabel("stack/inline-vs-virtual/markup-dense");
}

BENCHMARK(BM_ProductBatchStreamingDense);
BENCHMARK(BM_ProductBatchOneScanDense);
BENCHMARK(BM_SideCarBatchStreamingDense);
BENCHMARK(BM_StacklessStreamingDense);
BENCHMARK(BM_StackStreamingDense);
BENCHMARK(BM_StackInlineVsVirtualDense);

// --- Stackless fused tier: Lemma 3.8 at byte-table speed ----------------
// Whitespace-padded compact markup over {a, b, c}: pretty-printed with a
// newline and two spaces of indentation per depth level, so the corpus is
// mostly padding both fused tiers bulk-skip with the SWAR/SIMD kernel
// before resolving each tag from a flat byte table. The registerless
// fused scan on the SAME corpus is the yardstick — the acceptance bar is
// stackless fused within 1.5x of it.

const std::string& PaddedMarkupBytes() {
  static const std::string* cached = [] {
    Alphabet alphabet = Alphabet::FromLetters("abc");
    EventStream events = Encode(
        bench::MakeDocument(bench::DocShape::kMixed, 1 << 17, 3, 42));
    auto* out = new std::string();
    int depth = 0;
    for (const TagEvent& event : events) {
      if (!event.open) --depth;
      out->append(1, '\n');
      out->append(static_cast<size_t>(depth) * 2, ' ');
      char letter = alphabet.LabelOf(event.symbol)[0];
      out->push_back(event.open ? letter
                                : static_cast<char>(letter - 'a' + 'A'));
      if (event.open) ++depth;
    }
    return out;
  }();
  return *cached;
}

std::shared_ptr<const QueryPlan> StacklessFusedPlan() {
  auto plan = QueryPlan::Compile(
      Rpq::FromXPath("/a/b", Alphabet::FromLetters("abc")), PlanOptions{});
  SST_CHECK(plan->kind() == EvaluatorKind::kStackless);
  SST_CHECK(plan->fused_dra() != nullptr);
  return plan;
}

// Registerless yardstick on the same corpus (whole-document fused scan).
void BM_RegisterlessFusedScanPadded(benchmark::State& state) {
  auto plan = QueryPlan::Compile(
      Rpq::FromXPath("/a//b", Alphabet::FromLetters("abc")), PlanOptions{});
  SST_CHECK(plan->fused() != nullptr);
  const std::string& bytes = PaddedMarkupBytes();
  int64_t matches = 0;
  for (auto _ : state) {
    matches = plan->fused()->CountSelections(bytes);
    benchmark::DoNotOptimize(matches);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
  state.counters["matches"] = static_cast<double>(matches);
  state.SetLabel("registerless/fused-scan/markup-pad");
}

// Stackless fused whole-document scan: depth + registers + 3^r code
// resolved inside the byte loop.
void BM_StacklessFusedScan(benchmark::State& state) {
  auto plan = StacklessFusedPlan();
  const std::string& bytes = PaddedMarkupBytes();
  int64_t matches = 0;
  for (auto _ : state) {
    matches = plan->fused_dra()->CountSelections(bytes);
    benchmark::DoNotOptimize(matches);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
  state.counters["matches"] = static_cast<double>(matches);
  state.counters["registers"] =
      static_cast<double>(plan->fused_dra()->num_registers());
  state.counters["dra_states"] =
      static_cast<double>(plan->fused_dra()->num_states());
  state.SetLabel("stackless/fused-scan/markup-pad");
}

// The same plan through the chunked front-end on the kFusedDraTable rung.
void BM_StacklessFusedStreaming(benchmark::State& state) {
  Session session(StacklessFusedPlan());
  SST_CHECK(session.selector().active_tier() ==
            StreamingSelector::Tier::kFusedDraTable);
  const std::string& bytes = PaddedMarkupBytes();
  int64_t matches = 0;
  for (auto _ : state) {
    matches = DriveChunked(session, bytes, 65536);
    benchmark::DoNotOptimize(matches);
  }
  SST_CHECK(matches >= 0);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
  state.counters["matches"] = static_cast<double>(matches);
  state.SetLabel("stackless/fused-streaming/markup-pad");
}

// Stage 1 alone on the same bytes: ExtractStructural over 64 KiB pieces
// into one reused position buffer. bench_baselines.json holds each fused
// whole-document scan above and below as a ratio of the stage-1 row on its
// bytes, so the floors do not depend on the machine.
void RunStage1(benchmark::State& state, const std::string& bytes) {
  constexpr size_t kPiece = 65536;
  std::vector<uint32_t> positions(kPiece);
  int64_t structural = 0;
  for (auto _ : state) {
    structural = 0;
    for (size_t at = 0; at < bytes.size(); at += kPiece) {
      structural += static_cast<int64_t>(ExtractStructural(
          bytes.data() + at, std::min(kPiece, bytes.size() - at),
          positions.data()));
    }
    benchmark::DoNotOptimize(positions.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
  state.counters["structural"] = static_cast<double>(structural);
}

void BM_Stage1ExtractPadded(benchmark::State& state) {
  RunStage1(state, PaddedMarkupBytes());
  state.SetLabel(std::string("stage1/markup-pad/kernel=") +
                 ByteScanKernelName());
}

BENCHMARK(BM_RegisterlessFusedScanPadded);
BENCHMARK(BM_StacklessFusedScan);
BENCHMARK(BM_StacklessFusedStreaming);
BENCHMARK(BM_Stage1ExtractPadded);

// --- Padded-corpus variants of the runner benchmarks --------------------
// The dense TiledMarkup corpora above measure the worst case for the
// structural index (every byte structural, no gaps to skip); these tile
// the pretty-printed document instead, so roughly 80% of the bytes are
// indentation the stage-1 SIMD scan removes before the table walk.

const std::string& TiledPaddedMarkup(size_t target_bytes) {
  static std::map<size_t, std::string>* cache =
      new std::map<size_t, std::string>();
  auto it = cache->find(target_bytes);
  if (it != cache->end()) return it->second;
  const std::string& base = PaddedMarkupBytes();
  std::string out = "a";
  out.reserve(target_bytes + base.size() + 2);
  while (out.size() + base.size() + 1 < target_bytes) out += base;
  out += "A";
  return (*cache)[target_bytes] = std::move(out);
}

void BM_SequentialFusedRunnerPadded(benchmark::State& state) {
  size_t mib = static_cast<size_t>(state.range(0));
  BenchSetup setup(false);
  ByteTagDfaRunner runner(setup.evaluator);
  const std::string& bytes = TiledPaddedMarkup(mib << 20);
  int64_t matches = 0;
  for (auto _ : state) {
    matches = runner.CountSelections(bytes);
    benchmark::DoNotOptimize(matches);
  }
  SST_CHECK(matches == runner.CountSelectionsPerByte(bytes));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
  state.counters["matches"] = static_cast<double>(matches);
  state.SetLabel("seq-pad/" + std::to_string(mib) + "MiB/kernel=" +
                 ByteScanKernelName());
}

void BM_Stage1ExtractTiledPadded(benchmark::State& state) {
  const size_t mib = static_cast<size_t>(state.range(0));
  RunStage1(state, TiledPaddedMarkup(mib << 20));
  state.SetLabel("stage1/seq-pad/" + std::to_string(mib) + "MiB/kernel=" +
                 ByteScanKernelName());
}

BENCHMARK(BM_SequentialFusedRunnerPadded)->Arg(16)->Arg(64);
BENCHMARK(BM_Stage1ExtractTiledPadded)->Arg(16)->Arg(64);

// Mixed multi-query batch: registerless members on the eager sub-product,
// stackless members stepping their fused DRAs, all in ONE scan.

std::vector<BatchQuery> MixedBatch() {
  std::vector<BatchQuery> batch;
  for (const char* text : {"/a//b", "/c//b", "/a/b", "/b/*//c"}) {
    batch.push_back(BatchQuery{QuerySyntax::kXPath, text});
  }
  return batch;
}

void BM_StacklessFusedMixedBatchScan(benchmark::State& state) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  auto plan = MultiQueryPlan::Compile(MixedBatch(), alphabet,
                                      MultiQueryOptions{});
  SST_CHECK(plan->tier() == MultiTier::kMixed);
  BatchSession session(plan);
  SST_CHECK(session.one_scan_eligible());
  const std::string& bytes = PaddedMarkupBytes();
  std::vector<int64_t> counts;
  for (auto _ : state) {
    counts = session.CountSelections(bytes);
    benchmark::DoNotOptimize(counts.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
  state.counters["queries"] = static_cast<double>(counts.size());
  state.counters["stackless_members"] =
      static_cast<double>(plan->stats().stackless_members);
  state.SetLabel("stackless/mixed-batch-scan/markup-pad");
}

BENCHMARK(BM_StacklessFusedMixedBatchScan);

// --- Match-sink emission cost and latency-to-certainty ------------------
// The streaming MatchSink pipeline replaces count-at-Finish with per-match
// push events carrying byte spans. These benches measure its overhead on
// the hottest tier (the fused byte table over the padded markup corpus —
// the same pretty-printed document the committed throughput baselines
// pin) and report the earliest-answering metrics:
//   latency_to_certainty_bytes  mean (certainty_offset - start_offset):
//                               bytes between a node's opening token and
//                               the byte at which its verdict is provably
//                               certain — the opening-token width under
//                               pre-selection semantics.
//   certainty_lead_bytes        mean (end_offset - certainty_offset) over
//                               completed spans: how many bytes before the
//                               node's close tag the verdict was pushed,
//                               i.e. the win over a close-tag-based
//                               answering model.
// The acceptance anchor is BM_MatchSinkCountingVsOff: the counting sink
// must stay within 5% of the sink-off scan, timed in alternating pairs
// (a counter floor in bench_baselines.json).

void AddLatencyCounters(benchmark::State& state,
                        const CollectingSink& sink) {
  double latency_sum = 0.0;
  double lead_sum = 0.0;
  int64_t lead_n = 0;
  for (const MatchEvent& event : sink.matches()) {
    latency_sum +=
        static_cast<double>(event.certainty_offset - event.start_offset);
  }
  for (const MatchEvent& event : sink.spans()) {
    if (event.end_offset >= 0) {
      lead_sum +=
          static_cast<double>(event.end_offset - event.certainty_offset);
      ++lead_n;
    }
  }
  state.counters["latency_to_certainty_bytes"] =
      sink.matches().empty()
          ? 0.0
          : latency_sum / static_cast<double>(sink.matches().size());
  state.counters["certainty_lead_bytes"] =
      lead_n == 0 ? 0.0 : lead_sum / static_cast<double>(lead_n);
}

// The collecting sink: every match and span logged, the latency metrics
// read off the log of the last pass.
void BM_MatchSinkCollecting(benchmark::State& state) {
  size_t chunk_size = static_cast<size_t>(state.range(0));
  BenchSetup setup(false);
  const std::string& bytes = PaddedMarkupBytes();
  StreamingSelector selector(&setup.machine, Format::kCompactMarkup,
                             &setup.alphabet);
  SST_CHECK(selector.using_fused_fast_path());
  CollectingSink collecting;
  selector.set_match_sink(&collecting);
  int64_t matches = 0;
  for (auto _ : state) {
    collecting.Reset();
    matches = DriveChunked(selector, bytes, chunk_size);
    benchmark::DoNotOptimize(matches);
  }
  SST_CHECK(matches >= 0);
  SST_CHECK(static_cast<int64_t>(collecting.matches().size()) == matches);
  SST_CHECK(selector.using_fused_fast_path());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
  state.counters["matches"] = static_cast<double>(matches);
  AddLatencyCounters(state, collecting);
  state.SetLabel("markup-pad/fused/sink=collecting/chunk=" +
                 std::to_string(chunk_size));
}

// The guard of the match-event pipeline's overhead budget. One iteration
// = kPairs pairs of passes over the padded markup: the fused scan with no
// sink and the same scan into a CountingSink, in alternating order.
// counting_over_off is the median of sink-off time over counting time per
// pair (1.0 = no overhead); pairing cancels the machine drift that made
// the ratio of two separately run rows swing by 0.2 on CI.
void BM_MatchSinkCountingVsOff(benchmark::State& state) {
  BenchSetup setup(false);
  const std::string& bytes = PaddedMarkupBytes();
  StreamingSelector off(&setup.machine, Format::kCompactMarkup,
                        &setup.alphabet);
  StreamingSelector counted(&setup.machine, Format::kCompactMarkup,
                            &setup.alphabet);
  CountingSink counting;
  counted.set_match_sink(&counting);
  SST_CHECK(off.using_fused_fast_path() && counted.using_fused_fast_path());
  constexpr size_t kChunk = 65536;
  const int64_t expected = DriveChunked(off, bytes, kChunk);
  SST_CHECK(expected >= 0);
  constexpr int kPairs = 15;
  auto timed = [&](StreamingSelector& selector) {
    if (&selector == &counted) counting.Reset();
    const auto start = std::chrono::steady_clock::now();
    SST_CHECK(DriveChunked(selector, bytes, kChunk) == expected);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  std::vector<double> ratios;
  bool off_first = true;
  for (auto _ : state) {
    for (int pair = 0; pair < kPairs; ++pair) {
      double off_s;
      double counting_s;
      if (off_first) {
        off_s = timed(off);
        counting_s = timed(counted);
      } else {
        counting_s = timed(counted);
        off_s = timed(off);
      }
      off_first = !off_first;
      ratios.push_back(off_s / counting_s);
    }
  }
  SST_CHECK(counting.total() == expected);
  state.SetBytesProcessed(state.iterations() * 2 * kPairs *
                          static_cast<int64_t>(bytes.size()));
  std::nth_element(ratios.begin(), ratios.begin() + ratios.size() / 2,
                   ratios.end());
  state.counters["counting_over_off"] = ratios[ratios.size() / 2];
  state.counters["matches"] = static_cast<double>(expected);
  state.SetLabel("markup-pad/fused/counting-vs-off/chunk=65536");
}

BENCHMARK(BM_MatchSinkCollecting)->Arg(65536);
BENCHMARK(BM_MatchSinkCountingVsOff);

}  // namespace
}  // namespace sst

// --- Custom main: benchmark context + the --corpus flag -----------------
// `--corpus <path>` (or --corpus=<path>) mmaps a real document and
// registers per-tier throughput benchmarks over its bytes: the stage-1
// structural scan alone, then each fused count-scan tier. All of these
// are pure table walks, well-defined on arbitrary byte content, so any
// file measures — the corpus does not have to be well-formed compact
// markup (bytes outside the tag alphabet self-loop).

namespace {

#if defined(__unix__) || defined(__APPLE__)
#define SST_BENCH_HAVE_MMAP 1
#endif

// Leaked on purpose: benchmarks registered over the mapping run until
// process exit.
std::string_view MapCorpus(const char* path) {
#if defined(SST_BENCH_HAVE_MMAP)
  int fd = ::open(path, O_RDONLY);
  if (fd < 0) {
    std::perror(path);
    std::exit(1);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
    std::fprintf(stderr, "--corpus %s: empty or unreadable\n", path);
    std::exit(1);
  }
  void* mapped = ::mmap(nullptr, static_cast<size_t>(st.st_size), PROT_READ,
                        MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (mapped == MAP_FAILED) {
    std::perror("mmap");
    std::exit(1);
  }
  return {static_cast<const char*>(mapped), static_cast<size_t>(st.st_size)};
#else
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "--corpus %s: unreadable\n", path);
    std::exit(1);
  }
  auto* owned = new std::string(std::istreambuf_iterator<char>(in), {});
  return *owned;
#endif
}

void RegisterCorpusBenches(std::string_view corpus) {
  const char* data = corpus.data();
  const size_t len = corpus.size();
  const auto bytes_done = [len](benchmark::State& state) {
    state.SetBytesProcessed(state.iterations() *
                            static_cast<int64_t>(len));
  };

  benchmark::RegisterBenchmark(
      "BM_CorpusStage1Extract", [=](benchmark::State& state) {
        std::vector<uint32_t> positions(len);
        size_t structural = 0;
        for (auto _ : state) {
          structural = sst::ExtractStructural(data, len, positions.data());
          benchmark::DoNotOptimize(positions.data());
        }
        bytes_done(state);
        state.counters["structural_fraction"] =
            len == 0 ? 0.0
                     : static_cast<double>(structural) /
                           static_cast<double>(len);
        state.SetLabel(std::string("corpus/stage1-extract/kernel=") +
                       sst::ByteScanKernelName());
      });

  benchmark::RegisterBenchmark(
      "BM_CorpusRegisterlessFusedScan", [=](benchmark::State& state) {
        auto plan = sst::QueryPlan::Compile(
            sst::Rpq::FromXPath("/a//b", sst::Alphabet::FromLetters("abc")),
            sst::PlanOptions{});
        SST_CHECK(plan->fused() != nullptr);
        int64_t matches = 0;
        for (auto _ : state) {
          matches = plan->fused()->CountSelections({data, len});
          benchmark::DoNotOptimize(matches);
        }
        bytes_done(state);
        state.counters["matches"] = static_cast<double>(matches);
        state.SetLabel("corpus/registerless-fused-scan");
      });

  benchmark::RegisterBenchmark(
      "BM_CorpusStacklessFusedScan", [=](benchmark::State& state) {
        auto plan = sst::QueryPlan::Compile(
            sst::Rpq::FromXPath("/a/b", sst::Alphabet::FromLetters("abc")),
            sst::PlanOptions{});
        SST_CHECK(plan->fused_dra() != nullptr);
        int64_t matches = 0;
        for (auto _ : state) {
          matches = plan->fused_dra()->CountSelections({data, len});
          benchmark::DoNotOptimize(matches);
        }
        bytes_done(state);
        state.counters["matches"] = static_cast<double>(matches);
        state.SetLabel("corpus/stackless-fused-scan");
      });

  benchmark::RegisterBenchmark(
      "BM_CorpusMixedBatchScan", [=](benchmark::State& state) {
        sst::Alphabet alphabet = sst::Alphabet::FromLetters("abc");
        std::vector<sst::BatchQuery> batch;
        for (const char* text : {"/a//b", "/c//b", "/a/b", "/b/*//c"}) {
          batch.push_back(
              sst::BatchQuery{sst::QuerySyntax::kXPath, text});
        }
        auto plan = sst::MultiQueryPlan::Compile(batch, alphabet,
                                                 sst::MultiQueryOptions{});
        sst::BatchSession session(plan);
        SST_CHECK(session.one_scan_eligible());
        std::vector<int64_t> counts;
        for (auto _ : state) {
          counts = session.CountSelections({data, len});
          benchmark::DoNotOptimize(counts.data());
        }
        bytes_done(state);
        state.counters["queries"] = static_cast<double>(counts.size());
        state.SetLabel("corpus/mixed-batch-scan");
      });
}

}  // namespace

int main(int argc, char** argv) {
  // Extract --corpus before benchmark::Initialize sees (and rejects) it.
  const char* corpus_path = nullptr;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--corpus") == 0 && i + 1 < argc) {
      corpus_path = argv[++i];
    } else if (std::strncmp(argv[i], "--corpus=", 9) == 0) {
      corpus_path = argv[i] + 9;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("byte_scan_kernel", sst::ByteScanKernelName());
#ifdef NDEBUG
  benchmark::AddCustomContext("build_type", "Release");
#else
  benchmark::AddCustomContext("build_type", "Debug");
#endif
  if (corpus_path != nullptr) {
    RegisterCorpusBenches(MapCorpus(corpus_path));
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

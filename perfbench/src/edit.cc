// edit: two IncrementalSessions — R3 (stackless) and R4 (pooled stack) —
// over one ~64 MiB pretty-printed XML-lite document, answering seeded
// EditWorkload edits in cycles of kCycleEdits. The first edit of a cycle
// inserts a byte no token can start with into the first 1/64 of the
// document, leaving it malformed; the second removes it again, and the
// sessions rescan from there to the end. Besides exercising the error
// path, that rescan rebuilds the checkpoint stream: ApplyEdit shifts the
// checkpoints past an edit off the checkpoint grid and adds grid-aligned
// ones in the region it rescans, so their count — and every later edit's
// cost — grows with the number of edits applied. Restarting each cycle
// from a rebuilt stream makes every cycle measure the same state, whatever
// a run's speed.
//
// An edit runs from the start of its ApplyEdit calls until both sessions'
// results are readable. Generating an edit and splicing it into the
// caller's buffer is the editor's work, not the engine's, and is not
// timed: ops_per_s and throughput_mib_s divide by the summed edit time.

#include <algorithm>
#include <chrono>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "engine/incremental.h"
#include "testing/edit_workload.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int64_t kDocBytes = int64_t{64} << 20;
constexpr int kSetupRounds = 15;
constexpr int kCycleEdits = 500;
constexpr double kWarmupSeconds = 0.5;
constexpr int kSampledChecks = 2;

struct Engine {
  CompiledReg reg;
  std::unique_ptr<sst::IncrementalSession> session;
};

// Compares a session's incremental results against a fresh full scan of
// the same bytes.
bool MatchesFreshScan(const Engine& engine, std::string_view doc) {
  sst::IncrementalSession fresh(engine.reg.single);
  fresh.Scan(doc);
  const sst::IncrementalSession& live = *engine.session;
  return live.matches() == fresh.matches() && live.failed() == fresh.failed() &&
         live.stream_error() == fresh.stream_error() &&
         live.match_events() == fresh.match_events() &&
         live.document_complete() == fresh.document_complete() &&
         live.stats().bytes_fed == fresh.stats().bytes_fed &&
         live.stats().events == fresh.stats().events &&
         live.stats().max_depth == fresh.stats().max_depth;
}

}  // namespace

void RunEdit(const Options& options, Result* result) {
  sst::Alphabet alphabet = sst::Alphabet::FromLetters(kLetters);
  SpanRecorder& spans = result->spans;
  const bool traced_run = spans.enabled();
  constexpr sst::StreamFormat kFormat = sst::StreamFormat::kXmlLite;

  // --- Input (untimed) ------------------------------------------------------
  sst::Rng rng(options.seed);
  std::string doc = GenerateDocument(kFormat, /*pretty=*/true, kDocBytes, rng);
  doc.reserve(doc.size() + (8 << 20));

  // --- Set-up: compile R3 and R4, initial Scan of the base document -------
  std::vector<double> setup_s;
  std::vector<double> scan_s;
  std::vector<Engine> engines;
  for (int round = 0; round < kSetupRounds; ++round) {
    engines.clear();
    auto start = Clock::now();
    double scan_ms = 0.0;
    for (int reg : {2, 3}) {  // R3, R4
      Engine engine;
      engine.reg = CompileReg(reg, kFormat, alphabet, spans);
      engine.session =
          std::make_unique<sst::IncrementalSession>(engine.reg.single);
      auto scan_start = Clock::now();
      {
        ScopedSpan span(spans, "scan", reg);
        engine.session->Scan(doc);
      }
      scan_ms += MsSince(scan_start);
      engines.push_back(std::move(engine));
    }
    setup_s.push_back(MsSince(start) / 1000.0);
    scan_s.push_back(scan_ms / 1000.0);
  }
  SetSetupMetric(setup_s, result);
  for (const Engine& engine : engines) {
    if (engine.session->failed()) ++result->errors.mismatched;
  }

  sst::EditWorkload workload(&alphabet, kFormat, options.seed * 7919 + 17);
  std::vector<int> sampled;
  for (int k = 0; k < kSampledChecks; ++k) {
    sampled.push_back(static_cast<int>(rng.NextBelow(kCycleEdits)));
  }

  // Compares both sessions against fresh full scans (untimed).
  auto check = [&] {
    for (Engine& engine : engines) {
      ++result->errors.attempted;
      if (!MatchesFreshScan(engine, doc)) ++result->errors.mismatched;
    }
  };

  // The next edit of a cycle: a corruption, its repair, then well-formed
  // edits.
  sst::DocEdit repair;
  auto next_edit = [&](int in_cycle) {
    if (in_cycle == 1) return repair;
    if (in_cycle != 0) return workload.Next(doc);
    sst::DocEdit edit = workload.Make(
        sst::EditKind::kCorruptByte,
        std::string_view(doc).substr(0, doc.size() / 64));
    repair = {edit.offset, static_cast<int64_t>(edit.new_bytes.size()), ""};
    return edit;
  };

  // --- The edit loop ---------------------------------------------------------
  std::vector<OpSample> samples;
  std::vector<double> cycle_ends;
  std::vector<double> call_ms;
  double engine_ms = 0.0;
  int64_t rescanned = 0;
  int64_t spliced = 0;
  std::vector<double> mode_latency[2];

  auto run_phase = [&](double seconds, bool measured) {
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    int op = 0;
    // A corruption is always repaired before the phase ends.
    while (Clock::now() < deadline || op % kCycleEdits == 1) {
      const int in_cycle = op % kCycleEdits;
      const sst::DocEdit edit = next_edit(in_cycle);
      doc.replace(static_cast<size_t>(edit.offset),
                  static_cast<size_t>(edit.old_len), edit.new_bytes);

      const bool traced = measured && traced_run && op % 2 == 1;
      spans.set_enabled(traced);
      const int32_t root = spans.Begin("edit", op);
      const auto start = Clock::now();
      for (Engine& engine : engines) {
        const auto call_start = Clock::now();
        const int32_t span = spans.Begin("apply_edit", op, root);
        sst::IncrementalSession::EditOutcome outcome = engine.session->ApplyEdit(
            edit.offset, edit.old_len, edit.new_bytes, doc);
        spans.End(span);
        if (measured) {
          call_ms.push_back(MsSince(call_start));
          rescanned += outcome.bytes_rescanned;
          if (outcome.path ==
              sst::IncrementalSession::EditPath::kSplicedSuffix) {
            ++spliced;
          }
        }
      }
      const double latency_ms = MsSince(start);
      spans.End(root);
      spans.set_enabled(false);

      if (measured) {
        engine_ms += latency_ms;
        samples.push_back(
            {engine_ms / 1000.0, static_cast<double>(doc.size()), latency_ms});
        mode_latency[traced].push_back(latency_ms);
        if (in_cycle == kCycleEdits - 1) cycle_ends.push_back(engine_ms / 1000.0);
        // Sampled checks fall in the first cycle, one of them on the
        // malformed document.
        if (op == in_cycle &&
            (in_cycle == 0 || std::find(sampled.begin(), sampled.end(),
                                        in_cycle) != sampled.end())) {
          check();
        }
      }
      ++op;
    }
  };

  run_phase(kWarmupSeconds, /*measured=*/false);
  run_phase(options.seconds, /*measured=*/true);
  spans.set_enabled(traced_run);
  check();

  // Rates and the median come from whole cycles, so every block holds the
  // same mix of edits; the edits after the last whole cycle count towards
  // the tail latency and the error accounting only.
  result->errors.attempted += static_cast<int64_t>(samples.size());
  if (cycle_ends.empty()) cycle_ends.push_back(engine_ms / 1000.0);
  SetOperationMetrics(samples, cycle_ends, result);
  result->end_to_end["peak_rss_mib"] = {SelfPeakRssMib(), "MiB", 1};
  if (!traced_run) return;

  // --- Per-layer metrics (traced run) -------------------------------------
  auto& layers = result->layers;
  SetCompileMetrics(spans, kSetupRounds, result);
  layers["engine.incremental.scan_s"].value = Median(scan_s);
  layers["engine.incremental.edit_ms_p50"].value =
      PercentileOf(call_ms, 50.0).value;
  layers["engine.incremental.edit_ms_p99"].value = TailQuantile(call_ms).value;
  const double calls = static_cast<double>(call_ms.size());
  layers["engine.incremental.bytes_rescanned_per_edit"].value =
      calls > 0 ? static_cast<double>(rescanned) / calls : 0.0;
  layers["engine.incremental.spliced_fraction"].value =
      calls > 0 ? static_cast<double>(spliced) / calls : 0.0;
  double checkpoints = 0.0;
  for (const Engine& engine : engines) {
    checkpoints += static_cast<double>(engine.session->checkpoint_count());
  }
  layers["engine.incremental.checkpoints"].value = checkpoints;
  if (!mode_latency[0].empty() && !mode_latency[1].empty()) {
    layers["trace.overhead_frac"].value = TraceOverheadFrac(
        Median(mode_latency[0]), Median(mode_latency[1]));
  }

  // The ladder over the final document, against the fresh scans' verdicts.
  std::vector<Verdict> expected(engines.size());
  std::vector<LadderDoc> ladder;
  for (size_t i = 0; i < engines.size(); ++i) {
    const sst::IncrementalSession& session = *engines[i].session;
    expected[i] = VerdictOf(session, {session.matches()});
    ladder.push_back({doc, &engines[i].reg, &expected[i]});
  }
  RunLadder(ladder, 64 << 10, /*passes=*/1, result);
}

}  // namespace perfbench

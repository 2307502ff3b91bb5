// bulk: one thread streams large documents through pooled sessions.
//
// The corpus is a full factorial design so that every seed measures the
// same mix: 3 formats x {dense, pretty} x 3 size tiers x 4 registrations =
// 72 documents, about 40 MiB. The 18 (format, layout, tier) shapes take 18
// distinct sizes spaced evenly on a log scale from 256 KiB to 1 MiB, so
// latencies spread smoothly instead of clustering at a few sizes, which
// keeps the median from jumping between clusters. Sizes stop at 1 MiB so
// that a run of a few seconds still completes hundreds of documents, which
// the tail percentile needs. The seed draws every document's content, the
// balanced assignment of each shape's four documents to R1-R4, and the
// replay order; the program receives only these generated bytes.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kChunk = 64 << 10;
constexpr int kSetupRounds = 41;
constexpr sst::StreamFormat kFormats[] = {sst::StreamFormat::kCompactMarkup,
                                          sst::StreamFormat::kXmlLite,
                                          sst::StreamFormat::kCompactTerm};
constexpr int kTiers = 3;

// Size of the documents of one shape: tier-major steps of a 4x log ladder.
int64_t ShapeBytes(int format, bool pretty, int tier) {
  const int step = tier * 6 + format * 2 + (pretty ? 1 : 0);
  return static_cast<int64_t>(256 * 1024 * std::pow(4.0, step / 17.0));
}

struct BulkDoc {
  std::string bytes;
  size_t plan = 0;  // index of its format and registration in regs
  CompiledReg* reg = nullptr;
  Verdict expected;
};

std::vector<CompiledReg> CompileAll(const sst::Alphabet& alphabet,
                                    SpanRecorder& spans) {
  std::vector<CompiledReg> regs;
  for (sst::StreamFormat format : kFormats) {
    for (int reg = 0; reg < kNumRegs; ++reg) {
      regs.push_back(CompileReg(reg, format, alphabet, spans));
    }
  }
  return regs;
}

}  // namespace

void RunBulk(const Options& options, Result* result) {
  const sst::Alphabet alphabet = sst::Alphabet::FromLetters(kLetters);
  SpanRecorder& spans = result->spans;

  // --- Inputs (untimed). Each shape's four documents go to R1-R4 in a
  // seeded order; regs[] below is indexed format-major.
  sst::Rng rng(options.seed);
  std::vector<BulkDoc> docs;
  for (int f = 0; f < 3; ++f) {
    for (bool pretty : {false, true}) {
      for (int tier = 0; tier < kTiers; ++tier) {
        std::vector<int> order(kNumRegs);
        std::iota(order.begin(), order.end(), 0);
        Shuffle(order, rng);
        for (int reg : order) {
          BulkDoc doc;
          doc.bytes = GenerateDocument(kFormats[f], pretty,
                                       ShapeBytes(f, pretty, tier), rng);
          doc.plan = static_cast<size_t>(f * kNumRegs + reg);
          docs.push_back(std::move(doc));
        }
      }
    }
  }

  // --- Set-up: compile R1-R4 for every format and build their pools ------
  std::vector<double> setup_s;
  std::vector<CompiledReg> regs;
  for (int round = 0; round < kSetupRounds; ++round) {
    regs.clear();
    auto start = Clock::now();
    regs = CompileAll(alphabet, spans);
    setup_s.push_back(MsSince(start) / 1000.0);
  }
  SetSetupMetric(setup_s, result);
  for (BulkDoc& doc : docs) doc.reg = &regs[doc.plan];

  // --- Reference verdicts (untimed): fresh sessions, one whole-document
  // Feed. Every generated document is well-formed.
  for (BulkDoc& doc : docs) {
    doc.expected = OfflineVerdict(*doc.reg, doc.bytes);
    if (!doc.expected.ok) ++result->errors.mismatched;
  }

  // One measured operation: lease, feed in 64 KiB chunks, finish, read the
  // verdict, release. Returns the latency (first byte fed to verdict).
  int64_t op_id = 0;
  auto run_op = [&](BulkDoc& doc, std::vector<double>* acquire_us) {
    const int64_t op = op_id++;
    const int32_t root = spans.Begin("doc", op);
    auto start = Clock::now();
    const int32_t acquire = spans.Begin("acquire", op, root);
    PooledStream stream(*doc.reg);
    spans.End(acquire);
    bool ok = true;
    const std::string_view bytes = doc.bytes;
    for (size_t at = 0; ok && at < bytes.size(); at += kChunk) {
      const int32_t feed = spans.Begin("feed", op, root);
      ok = stream.Feed(bytes.substr(at, kChunk));
      spans.End(feed);
    }
    if (ok) {
      const int32_t finish = spans.Begin("finish", op, root);
      stream.Finish();
      spans.End(finish);
    }
    const Verdict verdict = stream.verdict();
    const double latency_ms = MsSince(start);
    const int32_t release = spans.Begin("release", op, root);
    stream.Release();
    spans.End(release);
    spans.End(root);
    if (root >= 0 && acquire_us != nullptr) {
      auto duration_ns = [&](int32_t id) {
        const SpanRecorder::Span& s = spans.spans()[static_cast<size_t>(id)];
        return static_cast<double>(s.end_ns - s.start_ns);
      };
      acquire_us->push_back((duration_ns(acquire) + duration_ns(release)) /
                            1e3);
    }
    ++result->errors.attempted;
    if (verdict != doc.expected) ++result->errors.mismatched;
    return latency_ms;
  };

  // --- Warm-up: one untimed pass fills every pool ------------------------
  const bool traced_run = spans.enabled();
  spans.set_enabled(false);
  for (BulkDoc& doc : docs) run_op(doc, nullptr);

  // --- Measured phase: whole passes over the corpus, each in a fresh
  // seeded order, until the deadline; a pass started before it runs to its
  // end. Every pass holds the same documents, so the passes are the blocks
  // the rates and the median are taken over. The traced run traces every
  // other pass, so its traced and untraced halves replay the same bytes.
  std::vector<size_t> order(docs.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<OpSample> samples;
  std::vector<double> pass_ends;
  std::vector<double> acquire_us;
  double mode_bytes[2] = {0.0, 0.0};
  double mode_ms[2] = {0.0, 0.0};
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(options.seconds));
  for (int pass = 0; Clock::now() < deadline; ++pass) {
    const bool traced = traced_run && pass % 2 == 1;
    spans.set_enabled(traced);
    Shuffle(order, rng);
    const auto pass_start = Clock::now();
    for (size_t i : order) {
      const double latency_ms = run_op(docs[i], &acquire_us);
      const double bytes = static_cast<double>(docs[i].bytes.size());
      samples.push_back({MsSince(t0) / 1000.0, bytes, latency_ms});
      mode_bytes[traced] += bytes;
    }
    mode_ms[traced] += MsSince(pass_start);
    pass_ends.push_back(MsSince(t0) / 1000.0);
  }
  spans.set_enabled(traced_run);

  SetOperationMetrics(samples, pass_ends, result);
  result->end_to_end["peak_rss_mib"] = {SelfPeakRssMib(), "MiB", 1};
  if (!traced_run) return;

  // --- Per-layer metrics (traced run) -------------------------------------
  auto& layers = result->layers;
  SetCompileMetrics(spans, kSetupRounds, result);
  layers["engine.acquire_us_p50"].value = Median(acquire_us);
  const auto summary = spans.Summarize();
  double busy_ns = 0.0;
  for (const char* name : {"feed", "finish"}) {
    auto it = summary.find(name);
    if (it != summary.end()) busy_ns += static_cast<double>(it->second.self_ns);
  }
  layers["engine.feed_busy_share"].value =
      mode_ms[1] > 0 ? busy_ns / 1e6 / mode_ms[1] : 0.0;
  if (mode_bytes[0] > 0 && mode_bytes[1] > 0) {
    layers["trace.overhead_frac"].value = TraceOverheadFrac(
        mode_ms[0] / mode_bytes[0], mode_ms[1] / mode_bytes[1]);
  }

  std::vector<LadderDoc> ladder;
  for (BulkDoc& doc : docs) ladder.push_back({doc.bytes, doc.reg, &doc.expected});
  RunLadder(ladder, kChunk, /*passes=*/2, result);
}

}  // namespace perfbench

#ifndef PERFBENCH_CORPUS_H_
#define PERFBENCH_CORPUS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "automata/alphabet.h"
#include "base/rng.h"
#include "dra/streaming.h"
#include "engine/multi_query.h"
#include "engine/query_plan.h"
#include "engine/session.h"
#include "trace.h"

namespace perfbench {

// Every generated document draws its labels from these letters; the root
// element is always 'a', so the /a/... queries have matches.
inline constexpr std::string_view kLetters = "abcdef";

// The four registrations every workload runs, after the paper's
// Example 2.12 tiers:
//   R1  32 registerless /x//y queries        -> fused product
//   R2  8 registerless + 2 stackless /x/y    -> mixed (markup) / independent
//   R3  /a/b, stackless                       -> fused DRA or generic machine
//   R4  //a/b, not stackless                  -> pooled-stack tier
inline constexpr int kNumRegs = 4;
const std::vector<std::string>& RegQueries(int reg);
const char* RegName(int reg);

const char* FormatName(sst::StreamFormat format);
sst::PlanOptions PlanOptionsFor(sst::StreamFormat format);

// One registration compiled for one format: a single-query plan with its
// SessionPool (R3, R4) or a batch plan with its BatchSessionPool (R1, R2),
// the same split the server makes.
struct CompiledReg {
  int reg = 0;
  sst::StreamFormat format = sst::StreamFormat::kCompactMarkup;
  std::shared_ptr<const sst::QueryPlan> single;
  std::shared_ptr<const sst::MultiQueryPlan> batch;
  std::unique_ptr<sst::SessionPool> single_pool;
  std::unique_ptr<sst::BatchSessionPool> batch_pool;
};

// Compiles `reg` for `format` and builds its pool. The Compile call is
// recorded as a "compile" span.
CompiledReg CompileReg(int reg, sst::StreamFormat format,
                       const sst::Alphabet& alphabet, SpanRecorder& trace);

// What a document's evaluation answered: per-query counts in submission
// order, or the first StreamError (code name and byte offset).
struct Verdict {
  bool ok = false;
  std::vector<int64_t> counts;
  std::string error_code;
  int64_t error_offset = -1;

  friend bool operator==(const Verdict&, const Verdict&) = default;
};

// The verdict of a finished session of any kind (Session, BatchSession,
// IncrementalSession), given its per-query counts.
template <typename S>
Verdict VerdictOf(const S& session, std::vector<int64_t> counts) {
  Verdict v;
  v.ok = !session.failed();
  if (v.ok) {
    v.counts = std::move(counts);
  } else {
    v.error_code = sst::StreamErrorCodeName(session.stream_error().code);
    v.error_offset = session.stream_error().offset;
  }
  return v;
}

// Seeded Fisher-Yates shuffle.
template <typename T>
void Shuffle(std::vector<T>& v, sst::Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.NextBelow(i)]);
  }
}

// A leased per-document stream over a CompiledReg's pool (either kind of
// session behind one surface); returns itself to the pool on destruction.
class PooledStream {
 public:
  explicit PooledStream(CompiledReg& reg);
  ~PooledStream() { Release(); }
  PooledStream(const PooledStream&) = delete;
  PooledStream& operator=(const PooledStream&) = delete;

  bool Feed(std::string_view chunk) {
    return single_ ? single_->Feed(chunk) : batch_->Feed(chunk);
  }
  bool Finish() { return single_ ? single_->Finish() : batch_->Finish(); }
  Verdict verdict() const;
  sst::StreamStats stats() const {
    return single_ ? single_->stats() : batch_->stats();
  }
  // Name of the tier that answered the document: fused_byte, fused_dra,
  // generic or stack for sessions; product_fused, product_lazy, mixed or
  // independent for batch sessions.
  const char* tier_name() const;

  // Returns the session to its pool now (the destructor does otherwise).
  void Release();

 private:
  CompiledReg& reg_;
  std::unique_ptr<sst::Session> single_;
  std::unique_ptr<sst::BatchSession> batch_;
};

// The reference verdict: a fresh, unpooled session fed the whole document
// in one chunk.
Verdict OfflineVerdict(const CompiledReg& reg, std::string_view doc);

// Feeds `doc` to `stream` in `chunk`-byte pieces and finishes it.
void FeedDocument(PooledStream& stream, std::string_view doc, size_t chunk);

// A random tree serialized in `format`, about `bytes` long. Pretty
// documents put every tag on its own line, indented two spaces per level;
// dense ones have no whitespace at all. Labels are uniform over kLetters
// below an 'a' root; depth wanders between about 4 and 16.
std::string GenerateDocument(sst::StreamFormat format, bool pretty,
                             int64_t bytes, sst::Rng& rng);

}  // namespace perfbench

#endif  // PERFBENCH_CORPUS_H_

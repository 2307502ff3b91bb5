#ifndef SST_ENGINE_MULTI_QUERY_H_
#define SST_ENGINE_MULTI_QUERY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dra/multi_runner.h"
#include "engine/plan_cache.h"
#include "engine/query_plan.h"
#include "engine/session.h"

namespace sst {

// Multi-query serving: a batch of N queries answered over each document in
// ONE pass. The batch compiles once into a MultiQueryPlan — per-query
// plans deduplicated through the PlanCache canonical key, the registerless
// ones fused into an output-annotated product automaton, every other one
// riding that scan as a side-car — and any number of concurrent
// BatchSessions stream documents against it, each emitting all N selection
// counts.

// One query of a batch, in any supported front-end syntax.
struct BatchQuery {
  QuerySyntax syntax = QuerySyntax::kXPath;
  std::string text;
};

struct MultiQueryOptions {
  PlanOptions plan;  // encoding/format, shared by the whole batch

  // Eager product bound: if the full reachable product has more states,
  // the batch falls back to the lazy product. The eager tier buys the
  // fused 256-entry byte table (one load per byte for ALL queries), so
  // the cap trades compile time + table memory for scan speed.
  int eager_state_cap = 4096;

  // Lazy materialization bound: states beyond it are never interned and
  // the affected stream demotes to per-query stepping of the product's
  // members (reported as kIndependent) for the rest of its document.
  int lazy_state_cap = 1 << 20;

  friend bool operator==(const MultiQueryOptions&,
                         const MultiQueryOptions&) = default;
};

// The compile-once half of batch evaluation. Immutable after Compile
// (the lazy product is internally synchronized — materialization is a
// cache fill, not a logical mutation), so `shared_ptr<const
// MultiQueryPlan>` is shared across threads exactly like QueryPlan.
//
// Every tier is ONE scan: one StreamingSelector per BatchSession. The
// tier, decided at compile time from the batch's verdicts, names what
// that scan steps:
//   kFusedProduct   every unique query registerless and the reachable
//                   product fit eager_state_cap — plus, on markup-
//                   eligible alphabets, ONE fused byte table for the
//                   whole batch;
//   kLazyProduct    every unique query registerless but the product is
//                   too big to materialize up front — states appear as
//                   documents reach them, shared by all sessions;
//   kMixed          some member is not registerless: the registerless
//                   members form a sub-product (eager within
//                   eager_state_cap, lazy beyond it; with none, the
//                   one-state empty product) and every other
//                   member rides the same scan as a side-car — its fused
//                   restricted DRA when the plan has one, otherwise a
//                   per-session machine from QueryPlan::NewMachine() (the
//                   unfused stackless evaluator, the stack baseline).
// kIndependent is never a plan's tier; a BatchSession reports it as its
// active tier once its lazy (sub-)product demotes to wide mode.
class MultiQueryPlan {
 public:
  struct Stats {
    int num_queries = 0;  // batch size as submitted
    int num_slots = 0;    // unique queries after canonical-key dedup
    MultiTier tier = MultiTier::kFusedProduct;
    bool fused_byte_table = false;  // eager product fused to 256-entry table
    int eager_states = 0;           // eager (sub-)product size
    int lazy_states = 0;            // lazy states materialized so far (live)
    bool lazy_overflowed = false;   // some stream hit lazy_state_cap
    int stackless_members = 0;      // mixed tier: fused-DRA side-cars
    int machine_members = 0;        // mixed tier: generic side-car machines
  };

  // Compiles the batch. Queries are deduplicated by PlanCache canonical
  // key first, so textual variants of one query cost one bitmask slot and
  // one DFA; `cache` (optional) additionally shares the per-query plans
  // with the rest of the server. Never fails: a member with no exact
  // evaluator leaves the plan inexact (exact() false), which callers
  // must reject before opening a BatchSession.
  static std::shared_ptr<const MultiQueryPlan> Compile(
      const std::vector<BatchQuery>& queries, const Alphabet& alphabet,
      const MultiQueryOptions& options, PlanCache* cache = nullptr);

  int num_queries() const { return static_cast<int>(slot_of_.size()); }
  int num_slots() const { return static_cast<int>(slot_plans_.size()); }
  int slot_of(int query) const { return slot_of_[static_cast<size_t>(query)]; }

  const MultiQueryOptions& options() const { return options_; }
  const Alphabet& alphabet() const { return alphabet_; }
  const ScannerTables& scanner_tables() const { return scanner_tables_; }

  // Per-slot compiled plans (index = bitmask bit).
  const std::vector<std::shared_ptr<const QueryPlan>>& slot_plans() const {
    return slot_plans_;
  }

  MultiTier tier() const { return tier_; }

  // True iff every member has an exact streaming evaluator (always, unless
  // options().plan.allow_stack_fallback is false and some member is not
  // stackless). BatchSession requires it.
  bool exact() const { return exact_; }

  // Product artifacts; null outside their tier.
  const TagDfaProduct* eager() const {
    return eager_ ? &*eager_ : nullptr;
  }
  const ByteTagDfaRunner* eager_fused() const { return eager_fused_.get(); }
  // Internally synchronized; safe to step from any number of sessions.
  LazyTagDfaProduct* lazy() const { return lazy_.get(); }
  // Mixed tier: the fused DRA of every DRA side-car, in member order
  // (borrowed from the slot plans); empty outside kMixed.
  const std::vector<const ByteDraRunner*>& mixed_dras() const {
    return mixed_dras_;
  }

  // Mixed tier: fresh per-stream machines for the generic side-cars, in
  // member order (after the DRA side-cars); empty outside kMixed. Each
  // borrows its slot plan, which this plan keeps alive. Requires exact().
  std::vector<std::unique_ptr<StreamMachine>> NewSideCars() const;

  // Expands per-slot counts (product/bitmask order) to per-query counts
  // (submission order); duplicates of one query report the same count.
  std::vector<int64_t> ExpandCounts(
      const std::vector<int64_t>& slot_counts) const;

  // Reorders MultiTagDfaRunner member-order counts (product mask bits,
  // then DRA side-cars, then generic side-cars) into slot order for
  // ExpandCounts. Identity outside kMixed, where member order IS slot
  // order.
  std::vector<int64_t> MemberCountsToSlots(
      const std::vector<int64_t>& member_counts) const;

  // Member index -> submission-order query ids, for fanning the product
  // machine's MatchEvents (whose query_id is a member index, in counts()
  // order: product mask bits, DRA side-cars, generic side-cars) out to
  // the queries as submitted. Textual duplicates of one query all appear
  // under their shared member, so a CountingSink fed through this mapping
  // reports exactly query_matches().
  std::vector<std::vector<int32_t>> MemberQueryIds() const;

  Stats stats() const;

 private:
  MultiQueryPlan() = default;

  MultiQueryOptions options_;
  Alphabet alphabet_;
  ScannerTables scanner_tables_;

  std::vector<int> slot_of_;  // query index -> slot
  std::vector<std::shared_ptr<const QueryPlan>> slot_plans_;
  std::vector<const TagDfa*> components_;  // borrowed from slot_plans_

  MultiTier tier_ = MultiTier::kFusedProduct;
  bool exact_ = true;
  std::optional<TagDfaProduct> eager_;
  std::unique_ptr<ByteTagDfaRunner> eager_fused_;
  std::unique_ptr<LazyTagDfaProduct> lazy_;

  // Member index -> slot: the product members (in mask-bit order), then
  // the DRA side-cars, then the generic side-cars.
  std::vector<int> member_slot_;
  std::vector<const ByteDraRunner*> mixed_dras_;  // borrowed from slot_plans_
  std::vector<int> machine_slot_;  // generic side-car slots, member order
};

// Remaps MatchEvents whose query_id indexes an internal id space (product
// machine members, or a single-slot session's constant 0) onto
// submission-order query ids, duplicating each event for every textual
// duplicate of the query. Events pass through in arrival order with their
// offsets untouched; ids outside the mapping are dropped.
class MatchFanOutSink : public MatchSink {
 public:
  MatchFanOutSink() = default;
  MatchFanOutSink(MatchSink* sink, std::vector<std::vector<int32_t>> ids)
      : sink_(sink), ids_(std::move(ids)) {}

  void OnMatch(const MatchEvent& event) override {
    Fire(event, /*close=*/false);
  }
  void OnSpanClose(const MatchEvent& event) override {
    Fire(event, /*close=*/true);
  }
  bool wants_spans() const override {
    return sink_ != nullptr && sink_->wants_spans();
  }

 private:
  void Fire(const MatchEvent& event, bool close) {
    if (sink_ == nullptr) return;
    const size_t member = static_cast<size_t>(event.query_id);
    if (member >= ids_.size()) return;
    for (int32_t query : ids_[member]) {
      MatchEvent remapped = event;
      remapped.query_id = query;
      if (close) {
        sink_->OnSpanClose(remapped);
      } else {
        sink_->OnMatch(remapped);
      }
    }
  }

  MatchSink* sink_ = nullptr;
  std::vector<std::vector<int32_t>> ids_;
};

// The run-many half: one document stream answering the whole batch with
// ONE scanner + product machine (a MultiTagDfaRunner) on every tier.
// Single-threaded like Session; concurrency comes from many BatchSessions
// sharing the plan (and, with a lazy (sub-)product, the product).
class BatchSession {
 public:
  // `plan` must be exact() — a member with no machine cannot stream.
  explicit BatchSession(std::shared_ptr<const MultiQueryPlan> plan);

  BatchSession(const BatchSession&) = delete;
  BatchSession& operator=(const BatchSession&) = delete;

  const MultiQueryPlan& plan() const { return *plan_; }
  const std::shared_ptr<const MultiQueryPlan>& plan_ptr() const {
    return plan_;
  }

  // Streaming interface (StreamingSelector semantics; fail-fast parity
  // with independent per-query sessions over the same bytes).
  bool Feed(std::string_view chunk);
  bool Finish();
  void Reset();

  // Policy/limits surface of the batch's one scanner. Limits must pass
  // StreamLimits::Validate(); both must be set before the first Feed of a
  // document and survive Reset(), so a pooled session keeps its serving
  // configuration across documents.
  void set_limits(const StreamLimits& limits);
  void set_recovery_policy(RecoveryPolicy policy);

  // Streams every pre-selected node into `sink` as a MatchEvent whose
  // query_id is the submission-order query index, at its earliest certain
  // byte; duplicates of one query each get their own event, so a
  // CountingSink(num_queries()) reports exactly query_matches(). All
  // queries' events interleave in document order, so the whole log is
  // invariant under chunking. Survives Reset() like limits.
  void set_match_sink(MatchSink* sink);

  // Selection counts per submitted query, in submission order.
  std::vector<int64_t> query_matches() const;

  bool failed() const;
  const StreamError& stream_error() const;
  // The scanner's stats; max_stack_depth / underflow_closes come from the
  // stack-baseline side-cars (see ProductTagMachine).
  StreamStats stats() const { return runner_.stats(); }

  // The rung actually executing for THIS stream (a session over a lazy
  // (sub-)product demotes to kIndependent when materialization hits the
  // state cap).
  MultiTier active_tier() const;

  // One-scan whole-document counting (compact markup, single-letter
  // labels, no generic side-car): per-query counts via the fused product
  // byte table or a walk of the product and DRA tables, without touching
  // this session's streaming state.
  bool one_scan_eligible() const;
  std::vector<int64_t> CountSelections(std::string_view bytes) const;

 private:
  std::shared_ptr<const MultiQueryPlan> plan_;
  MultiTagDfaRunner runner_;
  // Member -> query-id remapping in front of the user's sink (stable
  // address: the selector holds a raw pointer to it).
  MatchFanOutSink fan_out_;
};

// Bounded free-list of idle BatchSessions over one shared plan; the batch
// analogue of SessionPool (acquire = free-list pop + Reset).
class BatchSessionPool {
 public:
  explicit BatchSessionPool(std::shared_ptr<const MultiQueryPlan> plan,
                            size_t max_idle = 64);

  std::unique_ptr<BatchSession> Acquire();
  void Release(std::unique_ptr<BatchSession> session);

  const std::shared_ptr<const MultiQueryPlan>& plan() const { return plan_; }
  SessionPool::Stats stats() const;
  size_t idle() const;

 private:
  std::shared_ptr<const MultiQueryPlan> plan_;
  size_t max_idle_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<BatchSession>> idle_;
  SessionPool::Stats stats_;
};

}  // namespace sst

#endif  // SST_ENGINE_MULTI_QUERY_H_

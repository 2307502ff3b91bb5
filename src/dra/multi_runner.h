#ifndef SST_DRA_MULTI_RUNNER_H_
#define SST_DRA_MULTI_RUNNER_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "automata/alphabet.h"
#include "automata/product.h"
#include "automata/selection_mask.h"
#include "dra/byte_dra_runner.h"
#include "dra/byte_runner.h"
#include "dra/machine.h"
#include "dra/product_stepper.h"
#include "dra/stream_error.h"
#include "dra/streaming.h"
#include "dra/tag_dfa.h"

namespace sst {

// Multi-query fused execution: N registerless query automata answered in
// ONE pass over the document. Closure under product (Lemma 2.4) fuses the
// batch into an output-annotated product automaton whose states carry an
// N-bit SelectionMask — the mask of the state reached after a node's
// opening tag answers "which queries select this node?" — so the dominant
// per-query cost (scanning the stream) becomes a per-document cost.
//
// The execution ladder mirrors the single-query degradation ladder:
//   kFusedProduct   eagerly materialized product, fusable into a single
//                   256-entry byte→state table (small batches);
//   kLazyProduct    on-the-fly product shared across sessions — only
//                   states the inputs actually reach materialize;
//   kMixed          any batch with a non-registerless member, still in ONE
//                   scan: the registerless members ride the product (eager
//                   or lazy) while every other member rides alongside as a
//                   side-car — a fused restricted DRA (ByteDraRunner) when
//                   its plan has one, its own StreamMachine otherwise (the
//                   unfused stackless evaluator, the pooled-stack baseline);
//   kIndependent    never chosen for a batch: the active-tier name of a
//                   lazy stream whose product hit its state cap mid-stream
//                   and demoted to per-query (component-wise) stepping.
enum class MultiTier { kFusedProduct, kLazyProduct, kMixed, kIndependent };

const char* MultiTierName(MultiTier tier);

// BFS materialization bounded by `state_cap`; nullopt when the reachable
// product is larger (callers fall back to the lazy product).
std::optional<TagDfaProduct> BuildTagDfaProduct(
    const std::vector<const TagDfa*>& components, int state_cap);

// The product of no automata: one state, arity 0, selecting nothing. A
// batch with no registerless member gets it, so every batch without a
// generic side-car steps the inline ProductStepper.
TagDfaProduct EmptyTagDfaProduct(int num_symbols);

// The shared lazily materialized product (automata/product.h) over
// TagDfas. Thread-safe: any number of streams may step it concurrently.
using LazyTagDfaProduct = LazyPairedProduct<TagDfa>;

// One stream's position in a shared lazy product: a dense product-state id
// while materialization stays within the cap, or — after kOverflow — the
// raw component tuple, stepped one component at a time ("wide mode", the
// kIndependent rung). Wide mode is latched until Reset.
class LazyProductCursor {
 public:
  explicit LazyProductCursor(LazyTagDfaProduct* lazy);

  void Reset();
  void Open(Symbol symbol);
  void Close(Symbol symbol);
  bool Accepting() const { return accepting_; }
  bool wide() const { return wide_; }
  int arity() const { return lazy_->arity(); }

  // counts[i] += 1 for every query whose automaton accepts right now.
  void AccumulateMask(int64_t* counts) const;

  // Appends the index of every query whose automaton accepts right now.
  void AppendSelected(std::vector<int32_t>* out) const;

 private:
  void StepWide(int letter);

  LazyTagDfaProduct* lazy_;
  int id_;
  bool wide_ = false;
  bool accepting_ = false;
  std::vector<int32_t> tuple_;  // wide mode only
};

// A lazy product plus fused-DRA side-cars: the non-eager counterpart of
// ProductStepper, shared by ProductTagMachine's lazy branch and the
// one-scan walk. Per-query counts accumulate per open.
struct LazyStepper {
  LazyStepper(LazyTagDfaProduct* lazy, int64_t* counts, DraSideCars cars);

  LazyProductCursor cursor;
  int64_t* counts;  // product members' counts
  DraSideCars side_cars;

  void Reset();
  void Step(bool open, Symbol symbol);
  void Resample();
  bool accepting() const { return cursor.Accepting() || side_cars.accepting; }
  void AppendSelected(std::vector<int32_t>* out) const;
};

// StreamMachine over the fused product: drives either the eager product
// (through its ProductStepper) or a cursor on the shared lazy product,
// steps every side-car member alongside, and counts per-query selections
// on every opening tag (the multi-query analogue of the selector's single
// matches_ counter). InAcceptingState() is the batch "any query selects"
// disjunction, so the aggregate matches statistic of a StreamingSelector
// running this machine counts nodes selected by at least one query.
class ProductTagMachine final : public StreamMachine {
 public:
  // Exactly one of `eager` / `lazy` is non-null. `dras` adds stackless
  // members stepped as fused restricted DRAs whose full configurations
  // live in this machine; `side_cars` adds members of any other kind as
  // owned per-stream StreamMachines (unfused stackless evaluators, the
  // stack baseline), which see the raw close symbol — term's OnClose(-1)
  // reaches them unmapped. counts()
  // reports members in order: product mask bits, then the DRA members,
  // then the side-car machines. Borrowed pointers must outlive the machine.
  ProductTagMachine(const TagDfaProduct* eager, LazyTagDfaProduct* lazy,
                    std::vector<const ByteDraRunner*> dras = {},
                    std::vector<std::unique_ptr<StreamMachine>> side_cars =
                        {});

  // The steppers point into this machine's own storage.
  ProductTagMachine(const ProductTagMachine&) = delete;
  ProductTagMachine& operator=(const ProductTagMachine&) = delete;

  void Reset() override;
  void OnOpen(Symbol symbol) override;
  void OnClose(Symbol symbol) override;
  bool InAcceptingState() const override;

  // Match-event fan-out (base/match_sink.h): member ids in counts() order.
  void AppendSelectedMembers(std::vector<int32_t>* out) const override;

  // The eager stepper, when no generic side-car needs the virtual path.
  ProductStepper* ExportProductStepper() override {
    return eager_ != nullptr && machines_.empty() ? &stepper_ : nullptr;
  }

  // Stack diagnostics of the side-car machines: the peak is the largest
  // side-car peak, the underflow count the sum over side-cars — what each
  // member would report from its own Session.
  int64_t StackDepthPeak() const override;
  int64_t StackUnderflowCloses() const override;

  int arity() const { return static_cast<int>(counts_.size()); }
  const std::vector<int64_t>& counts() const {
    if (eager_ != nullptr) stepper_.Fold();
    return counts_;
  }
  bool wide() const { return lazy_ && lazy_->cursor.wide(); }
  // True when any member rides outside the product.
  bool has_side_cars() const { return !dras_.empty() || !machines_.empty(); }
  size_t num_generic_side_cars() const { return machines_.size(); }

 private:
  const TagDfaProduct* eager_;
  // Fused-DRA side-cars and their configurations, parallel arrays in
  // member order starting at dra_base_.
  std::vector<const ByteDraRunner*> dras_;
  std::vector<DraConfig> dra_configs_;
  size_t dra_base_ = 0;
  // Generic side-cars, in member order starting at machine_base_.
  std::vector<std::unique_ptr<StreamMachine>> machines_;
  size_t machine_base_ = 0;
  std::vector<int64_t> counts_;
  std::vector<int64_t> hits_;  // eager: the stepper's per-state histogram
  ProductStepper stepper_;     // eager product + DRA side-cars
  // Engaged iff the product is lazy: its cursor + DRA side-cars.
  std::optional<LazyStepper> lazy_;
};

// Multi-query front-end over one shared product: a chunk-capable
// StreamingSelector (any format, full StreamError / recovery-policy
// parity with single-query sessions) around a ProductTagMachine, plus
// one-scan byte-table entry points for compact markup that reuse the
// fused ByteTagDfaRunner machinery (uint16/uint32 compaction, SWAR/SIMD
// whitespace bulk-skip) to emit every query's selection count in a single
// table walk.
//
// The runner holds only per-stream state; the product artifacts are
// shared, immutable (eager) or internally synchronized (lazy), so K
// concurrent streams hold K runners and ONE product.
class MultiTagDfaRunner {
 public:
  // Exactly one of `eager` / `lazy` is non-null; `eager_fused` is
  // the optional fused byte table of the eager product (built by the
  // engine when the alphabet is markup-eligible) and `tables` may be null
  // to build private scanner tables. `mixed_dras` and `side_cars` add the
  // members outside the product (mixed tier; see ProductTagMachine),
  // reported after the product bits in member order. Borrowed pointers
  // must outlive the runner.
  MultiTagDfaRunner(StreamFormat format, const Alphabet* alphabet,
                    const ScannerTables* tables, const TagDfaProduct* eager,
                    const ByteTagDfaRunner* eager_fused,
                    LazyTagDfaProduct* lazy,
                    std::vector<const ByteDraRunner*> mixed_dras = {},
                    std::vector<std::unique_ptr<StreamMachine>> side_cars =
                        {});

  int num_queries() const { return machine_.arity(); }

  // The strongest tier this runner was built with; active_tier() reports
  // the rung actually executing (kIndependent once a lazy stream demoted
  // to wide mode).
  MultiTier tier() const {
    if (machine_.has_side_cars()) return MultiTier::kMixed;
    return eager_ != nullptr ? MultiTier::kFusedProduct
                             : MultiTier::kLazyProduct;
  }
  MultiTier active_tier() const {
    return machine_.wide() ? MultiTier::kIndependent : tier();
  }

  // --- Chunked streaming (any format) -----------------------------------
  bool Feed(std::string_view chunk) { return selector_.Feed(chunk); }
  bool Finish() { return selector_.Finish(); }
  void Reset() { selector_.Reset(); }

  // Per-query selection counts, in batch order.
  const std::vector<int64_t>& query_matches() const {
    return machine_.counts();
  }
  StreamStats stats() const { return selector_.stats(); }
  bool failed() const { return selector_.failed(); }
  const StreamError& stream_error() const {
    return selector_.stream_error();
  }
  // Policy / limits / observability surface of the underlying scanner.
  StreamingSelector& selector() { return selector_; }
  const StreamingSelector& selector() const { return selector_; }

  // --- One-scan byte entry points (compact markup) ----------------------
  // Whether the one-scan APIs below may be called: every label a single
  // lowercase letter, and no generic side-car (a per-stream machine has no
  // byte-table form to walk).
  bool one_scan_eligible() const { return byte_api_ok_; }

  // ByteTagDfaRunner::CountSelections semantics, per query: one table
  // walk over the bytes, whitespace runs bulk-skipped. Like that walk it is
  // the ladder's speed-of-light reference for a batch (the end-to-end
  // benchmark times it through BatchSession::CountSelections); the
  // streaming tiers never call it.
  std::vector<int64_t> CountSelections(std::string_view bytes) const;

 private:
  template <typename T>
  void CountSelectionsFused(const T* table, std::string_view bytes,
                            std::vector<int64_t>* counts) const;
  template <typename Stepper>
  void CountSelectionsWalk(Stepper& stepper, std::string_view bytes) const;

  const TagDfaProduct* eager_;
  const ByteTagDfaRunner* eager_fused_;
  LazyTagDfaProduct* lazy_;
  std::vector<const ByteDraRunner*> mixed_dras_;

  ProductTagMachine machine_;
  std::unique_ptr<ScannerTables> owned_tables_;
  StreamingSelector selector_;

  // byte → symbol for the one-scan markup APIs; -1 when the alphabet is
  // not markup-eligible or the byte is no tag letter.
  std::array<Symbol, 256> byte_symbol_;
  bool byte_api_ok_ = false;
};

}  // namespace sst

#endif  // SST_DRA_MULTI_RUNNER_H_

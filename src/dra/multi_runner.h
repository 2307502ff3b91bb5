#ifndef SST_DRA_MULTI_RUNNER_H_
#define SST_DRA_MULTI_RUNNER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "automata/alphabet.h"
#include "dra/byte_dra_runner.h"
#include "dra/machine.h"
#include "dra/product_stepper.h"
#include "dra/tag_dfa.h"

namespace sst {

// Multi-query fused execution: N registerless query automata answered in
// ONE pass over the document. Closure under product (Lemma 2.4) fuses the
// batch into an output-annotated product automaton whose states carry an
// N-bit SelectionMask — the mask of the state reached after a node's
// opening tag answers "which queries select this node?" — so the dominant
// per-query cost (scanning the stream) becomes a per-document cost.
//
// Every tier is eager: the registerless members fill one or more eager
// products ("lanes"), each fixed when the plan compiles.
//   kFusedProduct   every member registerless: the lanes alone — a single
//                   narrow lane is also fusable into one 256-entry
//                   byte→state table;
//   kMixed          any batch with a non-registerless member, still in ONE
//                   scan: the registerless members ride the lanes while
//                   every other member rides alongside as a side-car — a
//                   fused restricted DRA (ByteDraRunner) when its plan has
//                   one, its own StreamMachine otherwise (the unfused
//                   stackless evaluator, the pooled-stack baseline).
// kLazyProduct and kIndependent name tiers that no longer exist; nothing
// produces them. They stay so that code switching over every tier keeps
// compiling.
enum class MultiTier { kFusedProduct, kLazyProduct, kMixed, kIndependent };

const char* MultiTierName(MultiTier tier);

// BFS materialization bounded by `state_cap`; nullopt when the reachable
// product is larger (the plan then splits the members across lanes).
std::optional<TagDfaProduct> BuildTagDfaProduct(
    const std::vector<const TagDfa*>& components, int state_cap);

// The product of no automata: one state, arity 0, selecting nothing. A
// batch with no registerless member gets it, so every batch without a
// generic side-car steps the inline ProductStepper.
TagDfaProduct EmptyTagDfaProduct(int num_symbols);

// StreamMachine over a batch's lanes: steps every eager product through
// its ProductStepper, steps every side-car member alongside, and counts
// per-query selections on every opening tag (the multi-query analogue of
// the selector's single matches_ counter). InAcceptingState() is the batch
// "any query selects" disjunction, so the aggregate matches statistic of a
// StreamingSelector running this machine counts nodes selected by at
// least one query.
class ProductTagMachine final : public StreamMachine {
 public:
  // `lanes` holds at least one product. `dras` adds stackless members
  // stepped as fused restricted DRAs whose full configurations live in
  // this machine; `side_cars` adds members of any other kind as owned
  // per-stream StreamMachines (unfused stackless evaluators, the stack
  // baseline), which see the raw close symbol — term's OnClose(-1)
  // reaches them unmapped. counts() reports members in order: lane 0's
  // mask bits, then the DRA members, then lanes 1..k-1's mask bits, then
  // the side-car machines — so lane 0's ProductStepper numbers its DRA
  // side-cars from its own arity. Borrowed storage must outlive the
  // machine.
  ProductTagMachine(const std::vector<TagDfaProduct>& lanes,
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

  // Lane 0's stepper, when it is the only lane and no generic side-car
  // needs the virtual path.
  ProductStepper* ExportProductStepper() override {
    return lanes_.size() == 1 && machines_.empty() ? &lanes_[0] : nullptr;
  }

  // Stack diagnostics of the side-car machines: the peak is the largest
  // side-car peak, the underflow count the sum over side-cars — what each
  // member would report from its own Session.
  int64_t StackDepthPeak() const override;
  int64_t StackUnderflowCloses() const override;

  const std::vector<int64_t>& counts() const {
    for (const ProductStepper& lane : lanes_) lane.Fold();
    return counts_;
  }

 private:
  // Fused-DRA side-cars and their configurations, parallel arrays in
  // member order starting at lane 0's arity.
  std::vector<const ByteDraRunner*> dras_;
  std::vector<DraConfig> dra_configs_;
  // Generic side-cars, in member order starting at machine_base_.
  std::vector<std::unique_ptr<StreamMachine>> machines_;
  size_t machine_base_ = 0;
  std::vector<int64_t> counts_;
  std::vector<int64_t> hits_;  // every lane's per-state histogram, in turn
  // One stepper per lane, lane 0 with the DRA side-cars, and the member
  // id each one numbers from.
  std::vector<ProductStepper> lanes_;
  std::vector<int32_t> lane_bases_;
};

}  // namespace sst

#endif  // SST_DRA_MULTI_RUNNER_H_

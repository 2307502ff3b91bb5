#include "dra/multi_runner.h"

#include <algorithm>
#include <utility>

#include "automata/product.h"
#include "base/check.h"

namespace sst {

const char* MultiTierName(MultiTier tier) {
  switch (tier) {
    case MultiTier::kFusedProduct:
      return "fused-product";
    case MultiTier::kLazyProduct:
      return "lazy-product";
    case MultiTier::kMixed:
      return "mixed";
    case MultiTier::kIndependent:
      return "independent";
  }
  return "unknown";
}

std::optional<TagDfaProduct> BuildTagDfaProduct(
    const std::vector<const TagDfa*>& components, int state_cap) {
  std::optional<PairedProductTable> table =
      BuildEagerPairedProduct(components, state_cap);
  if (!table.has_value()) return std::nullopt;

  TagDfaProduct product;
  product.arity = table->arity;
  product.narrow = table->arity <= 64;
  product.masks = std::move(table->masks);
  product.mask_words.reserve(product.masks.size());
  for (const SelectionMask& mask : product.masks) {
    product.mask_words.push_back(mask.word());
  }

  TagDfa& dfa = product.dfa;
  dfa = TagDfa::Create(table->num_states, table->num_symbols);
  dfa.initial = table->initial;
  for (int state = 0; state < table->num_states; ++state) {
    for (Symbol a = 0; a < table->num_symbols; ++a) {
      dfa.SetNextOpen(state, a, table->Next(state, a));
      dfa.SetNextClose(state, a, table->Next(state, table->num_symbols + a));
    }
    dfa.accepting[state] = product.masks[state].Any();
  }
  product.rows = ProductRows::Build(dfa);
  return product;
}

TagDfaProduct EmptyTagDfaProduct(int num_symbols) {
  TagDfaProduct product;
  product.narrow = true;
  product.masks.emplace_back(0);
  product.mask_words.push_back(0);
  product.dfa = TagDfa::Create(1, num_symbols);
  product.rows = ProductRows::Build(product.dfa);
  return product;
}

// --- ProductTagMachine ---------------------------------------------------

ProductTagMachine::ProductTagMachine(
    const std::vector<TagDfaProduct>& lanes,
    std::vector<const ByteDraRunner*> dras,
    std::vector<std::unique_ptr<StreamMachine>> side_cars)
    : dras_(std::move(dras)), machines_(std::move(side_cars)) {
  SST_CHECK(!lanes.empty());
  for (const auto& machine : machines_) SST_CHECK(machine != nullptr);
  dra_configs_.resize(dras_.size());
  size_t members = dras_.size();
  size_t states = 0;
  for (const TagDfaProduct& lane : lanes) {
    members += static_cast<size_t>(lane.arity);
    states += static_cast<size_t>(lane.rows.num_states());
  }
  machine_base_ = members;
  counts_.assign(machine_base_ + machines_.size(), 0);
  hits_.assign(states, 0);
  size_t base = 0;
  int64_t* hits = hits_.data();
  for (size_t i = 0; i < lanes.size(); ++i) {
    DraSideCars cars;
    if (i == 0) {
      cars = {dras_.data(), dra_configs_.data(),
              counts_.data() + lanes[0].arity, dras_.size()};
    }
    lane_bases_.push_back(static_cast<int32_t>(base));
    lanes_.emplace_back(&lanes[i], counts_.data() + base, hits, cars);
    base += static_cast<size_t>(lanes[i].arity) + cars.size;
    hits += lanes[i].rows.num_states();
  }
}

void ProductTagMachine::Reset() {
  for (ProductStepper& lane : lanes_) lane.Reset();
  for (auto& machine : machines_) machine->Reset();
  hits_.assign(hits_.size(), 0);
  counts_.assign(counts_.size(), 0);
}

void ProductTagMachine::OnOpen(Symbol symbol) {
  for (ProductStepper& lane : lanes_) lane.Step(true, symbol);
  for (size_t k = 0; k < machines_.size(); ++k) {
    machines_[k]->OnOpen(symbol);
    counts_[machine_base_ + k] +=
        static_cast<int64_t>(machines_[k]->InAcceptingState());
  }
}

void ProductTagMachine::OnClose(Symbol symbol) {
  // The lanes and the fused DRAs are tables indexed by symbol; term's
  // universal close (-1) steps them as symbol 0, which their term-blind
  // automata ignore. Side-car machines take the raw symbol.
  for (ProductStepper& lane : lanes_) lane.Step(false, symbol);
  for (auto& machine : machines_) machine->OnClose(symbol);
}

bool ProductTagMachine::InAcceptingState() const {
  for (const ProductStepper& lane : lanes_) {
    if (lane.accepting()) return true;
  }
  for (const auto& machine : machines_) {
    if (machine->InAcceptingState()) return true;
  }
  return false;
}

void ProductTagMachine::AppendSelectedMembers(
    std::vector<int32_t>* out) const {
  for (size_t i = 0; i < lanes_.size(); ++i) {
    // A lane numbers its members from 0; shift them to the batch's.
    const size_t first = out->size();
    lanes_[i].AppendSelected(out);
    for (size_t k = first; k < out->size(); ++k) (*out)[k] += lane_bases_[i];
  }
  for (size_t k = 0; k < machines_.size(); ++k) {
    if (machines_[k]->InAcceptingState()) {
      out->push_back(static_cast<int32_t>(machine_base_ + k));
    }
  }
}

int64_t ProductTagMachine::StackDepthPeak() const {
  int64_t peak = 0;
  for (const auto& machine : machines_) {
    peak = std::max(peak, machine->StackDepthPeak());
  }
  return peak;
}

int64_t ProductTagMachine::StackUnderflowCloses() const {
  int64_t total = 0;
  for (const auto& machine : machines_) {
    total += machine->StackUnderflowCloses();
  }
  return total;
}

}  // namespace sst

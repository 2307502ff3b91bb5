#include "dra/multi_runner.h"

#include <algorithm>
#include <utility>

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

// --- LazyProductCursor ---------------------------------------------------

LazyProductCursor::LazyProductCursor(LazyTagDfaProduct* lazy)
    : lazy_(lazy), id_(lazy->initial()) {
  accepting_ = lazy_->AnyAccepting(id_);
}

void LazyProductCursor::Reset() {
  id_ = lazy_->initial();
  wide_ = false;
  accepting_ = lazy_->AnyAccepting(id_);
}

void LazyProductCursor::StepWide(int letter) {
  const std::vector<const TagDfa*>& components = lazy_->components();
  const int k = lazy_->num_symbols();
  bool any = false;
  for (size_t i = 0; i < components.size(); ++i) {
    tuple_[i] = letter < k
                    ? components[i]->NextOpen(tuple_[i], letter)
                    : components[i]->NextClose(tuple_[i], letter - k);
    any |= static_cast<bool>(components[i]->accepting[tuple_[i]]);
  }
  accepting_ = any;
}

void LazyProductCursor::Open(Symbol symbol) {
  if (!wide_) {
    int next = lazy_->NextOpen(id_, symbol);
    if (next != LazyTagDfaProduct::kOverflow) {
      id_ = next;
      accepting_ = lazy_->AnyAccepting(id_);
      return;
    }
    // State cap hit: demote this stream to component-wise stepping from
    // the tuple of the last materialized state (latched until Reset).
    tuple_.resize(static_cast<size_t>(lazy_->arity()));
    lazy_->CopyTuple(id_, tuple_.data());
    wide_ = true;
  }
  StepWide(symbol);
}

void LazyProductCursor::Close(Symbol symbol) {
  Symbol s = symbol < 0 ? 0 : symbol;
  if (!wide_) {
    int next = lazy_->NextClose(id_, s);
    if (next != LazyTagDfaProduct::kOverflow) {
      id_ = next;
      accepting_ = lazy_->AnyAccepting(id_);
      return;
    }
    tuple_.resize(static_cast<size_t>(lazy_->arity()));
    lazy_->CopyTuple(id_, tuple_.data());
    wide_ = true;
  }
  StepWide(lazy_->num_symbols() + s);
}

void LazyProductCursor::AccumulateMask(int64_t* counts) const {
  if (!wide_) {
    lazy_->MaskOf(id_).AccumulateInto(counts);
    return;
  }
  const std::vector<const TagDfa*>& components = lazy_->components();
  for (size_t i = 0; i < components.size(); ++i) {
    if (components[i]->accepting[tuple_[i]]) ++counts[i];
  }
}

void LazyProductCursor::AppendSelected(std::vector<int32_t>* out) const {
  if (!wide_) {
    lazy_->MaskOf(id_).AppendSetBits(out);
    return;
  }
  const std::vector<const TagDfa*>& components = lazy_->components();
  for (size_t i = 0; i < components.size(); ++i) {
    if (components[i]->accepting[tuple_[i]]) {
      out->push_back(static_cast<int32_t>(i));
    }
  }
}

// --- LazyStepper ---------------------------------------------------------

LazyStepper::LazyStepper(LazyTagDfaProduct* lazy, int64_t* counts,
                         DraSideCars cars)
    : cursor(lazy), counts(counts), side_cars(cars) {
  side_cars.Reset();
}

void LazyStepper::Reset() {
  cursor.Reset();
  side_cars.Reset();
}

void LazyStepper::Step(bool open, Symbol symbol) {
  if (open) {
    cursor.Open(symbol);
    // Pre-selection samples directly after opening tags: accumulate the
    // new state's mask into the per-query counts.
    if (cursor.Accepting()) cursor.AccumulateMask(counts);
  } else {
    cursor.Close(symbol);
  }
  side_cars.Step(open, symbol < 0 ? 0 : symbol);
}

void LazyStepper::Resample() {
  if (cursor.Accepting()) cursor.AccumulateMask(counts);
  side_cars.Sample();
}

void LazyStepper::AppendSelected(std::vector<int32_t>* out) const {
  if (cursor.Accepting()) cursor.AppendSelected(out);
  side_cars.AppendSelected(static_cast<int32_t>(cursor.arity()), out);
}

// --- ProductTagMachine ---------------------------------------------------

ProductTagMachine::ProductTagMachine(
    const TagDfaProduct* eager, LazyTagDfaProduct* lazy,
    std::vector<const ByteDraRunner*> dras,
    std::vector<std::unique_ptr<StreamMachine>> side_cars)
    : eager_(eager), dras_(std::move(dras)), machines_(std::move(side_cars)) {
  SST_CHECK_MSG((eager == nullptr) != (lazy == nullptr),
                "exactly one of eager/lazy product");
  dra_base_ = static_cast<size_t>(eager_ != nullptr ? eager_->arity
                                                    : lazy->arity());
  dra_configs_.resize(dras_.size());
  machine_base_ = dra_base_ + dras_.size();
  for (const auto& machine : machines_) SST_CHECK(machine != nullptr);
  counts_.assign(machine_base_ + machines_.size(), 0);
  DraSideCars cars{dras_.data(), dra_configs_.data(),
                   counts_.data() + dra_base_, dras_.size()};
  if (eager_ != nullptr) {
    hits_.assign(static_cast<size_t>(eager_->rows.num_states()), 0);
    stepper_ = ProductStepper(eager_, counts_.data(), hits_.data(), cars);
  } else {
    lazy_.emplace(lazy, counts_.data(), cars);
  }
}

void ProductTagMachine::Reset() {
  if (eager_ != nullptr) {
    stepper_.Reset();
    hits_.assign(hits_.size(), 0);
  } else {
    lazy_->Reset();
  }
  for (auto& machine : machines_) machine->Reset();
  counts_.assign(counts_.size(), 0);
}

void ProductTagMachine::OnOpen(Symbol symbol) {
  if (eager_ != nullptr) {
    stepper_.Step(true, symbol);
  } else {
    lazy_->Step(true, symbol);
  }
  for (size_t k = 0; k < machines_.size(); ++k) {
    machines_[k]->OnOpen(symbol);
    counts_[machine_base_ + k] +=
        static_cast<int64_t>(machines_[k]->InAcceptingState());
  }
}

void ProductTagMachine::OnClose(Symbol symbol) {
  // The product and the fused DRAs are tables indexed by symbol; term's
  // universal close (-1) steps them as symbol 0, which their term-blind
  // automata ignore. Side-car machines take the raw symbol.
  if (eager_ != nullptr) {
    stepper_.Step(false, symbol);
  } else {
    lazy_->Step(false, symbol);
  }
  for (auto& machine : machines_) machine->OnClose(symbol);
}

bool ProductTagMachine::InAcceptingState() const {
  if (eager_ != nullptr ? stepper_.accepting() : lazy_->accepting()) {
    return true;
  }
  for (const auto& machine : machines_) {
    if (machine->InAcceptingState()) return true;
  }
  return false;
}

void ProductTagMachine::AppendSelectedMembers(
    std::vector<int32_t>* out) const {
  if (eager_ != nullptr) {
    stepper_.AppendSelected(out);
  } else {
    lazy_->AppendSelected(out);
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

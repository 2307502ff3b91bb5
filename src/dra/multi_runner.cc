#include "dra/multi_runner.h"

#include <algorithm>
#include <utility>

#include "base/byte_scan.h"
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

// --- ProductTagMachine ---------------------------------------------------

ProductTagMachine::ProductTagMachine(
    const TagDfaProduct* eager, LazyTagDfaProduct* lazy,
    std::vector<const ByteDraRunner*> dras,
    std::vector<std::unique_ptr<StreamMachine>> side_cars)
    : eager_(eager), dras_(std::move(dras)), machines_(std::move(side_cars)) {
  SST_CHECK_MSG(eager == nullptr || lazy == nullptr,
                "at most one of eager/lazy product");
  SST_CHECK_MSG(eager != nullptr || lazy != nullptr || has_side_cars(),
                "a product or at least one side-car member required");
  if (eager_ != nullptr) {
    eager_state_ = eager_->dfa.initial;
    dra_base_ = static_cast<size_t>(eager_->arity);
  } else if (lazy != nullptr) {
    lazy_cursor_.emplace(lazy);
    dra_base_ = static_cast<size_t>(lazy->arity());
  }
  dra_configs_.reserve(dras_.size());
  for (const ByteDraRunner* dra : dras_) {
    dra_configs_.push_back(dra->InitialConfig());
  }
  machine_base_ = dra_base_ + dras_.size();
  for (const auto& machine : machines_) SST_CHECK(machine != nullptr);
  counts_.assign(machine_base_ + machines_.size(), 0);
}

void ProductTagMachine::Reset() {
  if (eager_ != nullptr) {
    eager_state_ = eager_->dfa.initial;
  } else if (lazy_cursor_) {
    lazy_cursor_->Reset();
  }
  for (size_t j = 0; j < dras_.size(); ++j) {
    dra_configs_[j] = dras_[j]->InitialConfig();
  }
  for (auto& machine : machines_) machine->Reset();
  counts_.assign(counts_.size(), 0);
}

void ProductTagMachine::OnOpen(Symbol symbol) {
  if (eager_ != nullptr) {
    eager_state_ = eager_->dfa.NextOpen(eager_state_, symbol);
    // Pre-selection samples directly after opening tags: accumulate the
    // new state's mask into the per-query counts.
    if (eager_->dfa.accepting[eager_state_]) {
      eager_->masks[static_cast<size_t>(eager_state_)].AccumulateInto(
          counts_.data());
    }
  } else if (lazy_cursor_) {
    lazy_cursor_->Open(symbol);
    if (lazy_cursor_->Accepting()) {
      lazy_cursor_->AccumulateMask(counts_.data());
    }
  }
  for (size_t j = 0; j < dras_.size(); ++j) {
    dras_[j]->StepOpen(&dra_configs_[j], symbol);
    counts_[dra_base_ + j] += static_cast<int64_t>(
        dras_[j]->IsAccepting(dra_configs_[j].state));
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
  const Symbol s = symbol < 0 ? 0 : symbol;
  if (eager_ != nullptr) {
    eager_state_ = eager_->dfa.NextClose(eager_state_, s);
  } else if (lazy_cursor_) {
    lazy_cursor_->Close(symbol);
  }
  for (size_t j = 0; j < dras_.size(); ++j) {
    dras_[j]->StepClose(&dra_configs_[j], s);
  }
  for (auto& machine : machines_) machine->OnClose(symbol);
}

bool ProductTagMachine::InAcceptingState() const {
  if (eager_ != nullptr && eager_->dfa.accepting[eager_state_]) return true;
  if (lazy_cursor_ && lazy_cursor_->Accepting()) return true;
  for (size_t j = 0; j < dras_.size(); ++j) {
    if (dras_[j]->IsAccepting(dra_configs_[j].state)) return true;
  }
  for (const auto& machine : machines_) {
    if (machine->InAcceptingState()) return true;
  }
  return false;
}

void ProductTagMachine::AppendSelectedMembers(
    std::vector<int32_t>* out) const {
  if (eager_ != nullptr) {
    if (eager_->dfa.accepting[eager_state_]) {
      eager_->masks[static_cast<size_t>(eager_state_)].AppendSetBits(out);
    }
  } else if (lazy_cursor_) {
    if (lazy_cursor_->Accepting()) lazy_cursor_->AppendSelected(out);
  }
  for (size_t j = 0; j < dras_.size(); ++j) {
    if (dras_[j]->IsAccepting(dra_configs_[j].state)) {
      out->push_back(static_cast<int32_t>(dra_base_ + j));
    }
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

// --- MultiTagDfaRunner ---------------------------------------------------

MultiTagDfaRunner::MultiTagDfaRunner(
    StreamFormat format, const Alphabet* alphabet,
    const ScannerTables* tables, const TagDfaProduct* eager,
    const ByteTagDfaRunner* eager_fused, LazyTagDfaProduct* lazy,
    std::vector<const ByteDraRunner*> mixed_dras,
    std::vector<std::unique_ptr<StreamMachine>> side_cars)
    : eager_(eager),
      eager_fused_(eager_fused),
      lazy_(lazy),
      mixed_dras_(std::move(mixed_dras)),
      machine_(eager, lazy, mixed_dras_, std::move(side_cars)),
      owned_tables_(tables == nullptr
                        ? std::make_unique<ScannerTables>(
                              ScannerTables::Build(format, *alphabet))
                        : nullptr),
      selector_(&machine_, format, alphabet,
                tables != nullptr ? tables : owned_tables_.get(),
                /*fused=*/nullptr) {
  SST_CHECK(eager_fused_ == nullptr || eager_ != nullptr);
  // The one-scan markup APIs need every label to be a single lowercase
  // letter (same eligibility rule as the fused single-query byte table)
  // and every member in table form: a generic side-car has none.
  byte_symbol_.fill(-1);
  byte_api_ok_ = machine_.num_generic_side_cars() == 0;
  for (Symbol s = 0; byte_api_ok_ && s < alphabet->size(); ++s) {
    const std::string& label = alphabet->LabelOf(s);
    if (label.size() != 1 || label[0] < 'a' || label[0] > 'z') {
      byte_api_ok_ = false;
    }
  }
  if (byte_api_ok_) {
    for (Symbol s = 0; s < alphabet->size(); ++s) {
      unsigned char open = static_cast<unsigned char>(alphabet->LabelOf(s)[0]);
      byte_symbol_[open] = s;
      byte_symbol_[open - 'a' + 'A'] = s;
    }
  }
}

template <typename T>
void MultiTagDfaRunner::CountSelectionsFused(
    const T* table, std::string_view bytes,
    std::vector<int64_t>* counts) const {
  const uint64_t* mask_words = eager_->mask_words.data();
  int64_t* out = counts->data();
  int state = eager_fused_->initial_state();
  auto accumulate = [&](unsigned char byte) {
    state = table[static_cast<size_t>(state) * 256 + byte];
    if (byte >= 'a' && byte <= 'z') {
      uint64_t mask = mask_words[state];
      for (; mask != 0; mask &= mask - 1) {
#if defined(__GNUC__) || defined(__clang__)
        ++out[__builtin_ctzll(mask)];
#else
        uint64_t low = mask & (~mask + 1);
        int bit = 0;
        while ((low >> bit) != 1) ++bit;
        ++out[bit];
#endif
      }
    }
  };
  if (eager_fused_->text_run_trivial()) {
    // Structural-index walk: the product table's whitespace rows self-loop
    // and never count (trivial text-run closure, checked at construction),
    // so the stage-1 scan drops every text byte before the table walk.
    ForEachStructural(bytes.data(), bytes.size(), [&](size_t i) {
      accumulate(static_cast<unsigned char>(bytes[i]));
    });
    return;
  }
  // Per-byte fallback for a non-trivial closure (also the reference the
  // parity tests run against): whitespace runs are still jumped with the
  // SWAR/SIMD kernel, but every structural byte costs a table load.
  for (size_t i = 0; i < bytes.size(); ++i) {
    unsigned char byte = static_cast<unsigned char>(bytes[i]);
    if (ByteIsAsciiWs(byte)) {
      i += FindStructural(bytes.data() + i + 1, bytes.size() - i - 1);
      continue;
    }
    accumulate(byte);
  }
}

namespace {

// Product steppers for CountSelectionsWalk, one per product kind, so the
// walk's inner loop carries no per-byte product-kind branch.
struct NoProductStep {
  void Open(Symbol) {}
  void Close(Symbol) {}
  void Sample(int64_t*) const {}
};

struct EagerProductStep {
  const TagDfaProduct* product;
  int state;
  void Open(Symbol s) { state = product->dfa.NextOpen(state, s); }
  void Close(Symbol s) { state = product->dfa.NextClose(state, s); }
  void Sample(int64_t* out) const {
    if (product->dfa.accepting[state]) {
      product->masks[static_cast<size_t>(state)].AccumulateInto(out);
    }
  }
};

struct LazyProductStep {
  LazyProductCursor cursor;
  void Open(Symbol s) { cursor.Open(s); }
  void Close(Symbol s) { cursor.Close(s); }
  void Sample(int64_t* out) const {
    if (cursor.Accepting()) cursor.AccumulateMask(out);
  }
};

}  // namespace

template <typename ProductStep>
void MultiTagDfaRunner::CountSelectionsWalk(
    ProductStep product, std::string_view bytes,
    std::vector<int64_t>* counts) const {
  int64_t* out = counts->data();
  const size_t dra_base = counts->size() - mixed_dras_.size();
  std::vector<DraConfig> configs;
  configs.reserve(mixed_dras_.size());
  for (const ByteDraRunner* dra : mixed_dras_) {
    configs.push_back(dra->InitialConfig());
  }
  // The product and every DRA side-car step only on tag letters, so
  // whitespace is identity on all of them at once and the structural index
  // is sound unconditionally (including across a lazy cursor's mid-scan
  // wide-mode demotion: the latched state rides along through every gap).
  ForEachStructural(bytes.data(), bytes.size(), [&](size_t i) {
    unsigned char byte = static_cast<unsigned char>(bytes[i]);
    if (byte >= 'a' && byte <= 'z') {
      Symbol s = byte_symbol_[byte];
      if (s >= 0) {
        product.Open(s);
        for (size_t j = 0; j < mixed_dras_.size(); ++j) {
          mixed_dras_[j]->StepOpen(&configs[j], s);
        }
      }
      // Unknown lowercase letters self-loop but still sample acceptance
      // (ByteTagDfaRunner parity).
      product.Sample(out);
      for (size_t j = 0; j < mixed_dras_.size(); ++j) {
        out[dra_base + j] += static_cast<int64_t>(
            mixed_dras_[j]->IsAccepting(configs[j].state));
      }
    } else if (byte >= 'A' && byte <= 'Z') {
      Symbol s = byte_symbol_[byte];
      if (s >= 0) {
        product.Close(s);
        for (size_t j = 0; j < mixed_dras_.size(); ++j) {
          mixed_dras_[j]->StepClose(&configs[j], s);
        }
      }
    }
    // All other structural bytes self-loop and never count.
  });
}

std::vector<int64_t> MultiTagDfaRunner::CountSelections(
    std::string_view bytes) const {
  SST_CHECK_MSG(byte_api_ok_,
                "one-scan byte APIs require single-letter labels and no "
                "generic side-car");
  std::vector<int64_t> counts(static_cast<size_t>(num_queries()), 0);
  if (eager_fused_ != nullptr && eager_->narrow && mixed_dras_.empty()) {
    if (eager_fused_->uses_compact_table()) {
      CountSelectionsFused(eager_fused_->table16(), bytes, &counts);
    } else {
      CountSelectionsFused(eager_fused_->table32(), bytes, &counts);
    }
    return counts;
  }
  // Everything else (a mixed batch, the lazy product, an eager product
  // without a byte table or wider than 64 queries) walks the automata
  // directly over the structural index.
  if (eager_ != nullptr) {
    CountSelectionsWalk(EagerProductStep{eager_, eager_->dfa.initial}, bytes,
                        &counts);
  } else if (lazy_ != nullptr) {
    CountSelectionsWalk(LazyProductStep{LazyProductCursor(lazy_)}, bytes,
                        &counts);
  } else {
    CountSelectionsWalk(NoProductStep{}, bytes, &counts);
  }
  return counts;
}

}  // namespace sst

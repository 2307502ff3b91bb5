#ifndef SST_DRA_PRODUCT_STEPPER_H_
#define SST_DRA_PRODUCT_STEPPER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "automata/alphabet.h"
#include "automata/selection_mask.h"
#include "dra/byte_dra_runner.h"
#include "dra/machine.h"
#include "dra/tag_dfa.h"

namespace sst {

// Symbol-keyed transition rows of an eager product automaton: one
// contiguous row of 2K + 1 columns per state — opening symbol a at column
// a, closing symbol a at column K + a, and a no-op column at 2K whose
// entry is the state itself (an unknown opening letter in the one-scan
// walk: no transition, yet acceptance is sampled). The column of a tag
// event is computed arithmetically from (open, symbol), so stepping any
// event is one dependent load.
struct ProductRows {
  int num_symbols = 0;
  int width = 0;  // 2 * num_symbols + 1
  int initial = 0;
  std::vector<int32_t> next;       // num_states * width
  std::vector<uint8_t> accepting;  // per state: some query selects

  static ProductRows Build(const TagDfa& dfa);

  int num_states() const { return static_cast<int>(accepting.size()); }
  int noop_column() const { return 2 * num_symbols; }
};

// Eagerly built product of TagDfas: the product TagDfa (accepting =
// "some query selects"), its symbol-keyed rows, and the per-state
// selection masks, with the masks' fast-path words flattened for
// byte-scan loops when the batch fits in 64 bits. Built once per
// MultiQueryPlan and shared read-only by every stream.
struct TagDfaProduct {
  TagDfa dfa;
  ProductRows rows;
  std::vector<SelectionMask> masks;   // per product state
  std::vector<uint64_t> mask_words;   // masks[s].word(); complete iff narrow
  int arity = 0;
  bool narrow = false;  // arity <= 64: mask_words fully describe the masks
};

// View over the fused-DRA members of a batch: the shared runners, the
// stream's configurations and the members' selection counts, all owned by
// the caller. Stepping is the one implementation every batch path uses
// for its DRA side-cars.
struct DraSideCars {
  const ByteDraRunner* const* runners = nullptr;
  DraConfig* configs = nullptr;
  int64_t* counts = nullptr;  // counts[j]: nodes side-car j selected
  size_t size = 0;

  void Reset() {
    for (size_t j = 0; j < size; ++j) configs[j] = runners[j]->InitialConfig();
  }

  // One tag event for every side-car; `symbol` must be a table symbol
  // (term's universal close arrives as 0, which term-blind DRAs ignore).
  // Counts the accepting side-cars on opens; returns whether any accepts.
  bool Step(bool open, Symbol symbol) {
    bool any = false;
    for (size_t j = 0; j < size; ++j) {
      if (open) {
        runners[j]->StepOpen(&configs[j], symbol);
      } else {
        runners[j]->StepClose(&configs[j], symbol);
      }
      const bool accepting = runners[j]->IsAccepting(configs[j].state);
      counts[j] += static_cast<int64_t>(open && accepting);
      any = any || accepting;
    }
    return any;
  }

  // Samples acceptance with no transition, counting it as an open would.
  bool Sample() {
    bool any = false;
    for (size_t j = 0; j < size; ++j) {
      const bool accepting = runners[j]->IsAccepting(configs[j].state);
      counts[j] += static_cast<int64_t>(accepting);
      any = any || accepting;
    }
    return any;
  }

  bool AnyAccepting() const {
    for (size_t j = 0; j < size; ++j) {
      if (runners[j]->IsAccepting(configs[j].state)) return true;
    }
    return false;
  }

  // Appends base + j for every accepting side-car j.
  void AppendSelected(int32_t base, std::vector<int32_t>* out) const {
    for (size_t j = 0; j < size; ++j) {
      if (runners[j]->IsAccepting(configs[j].state)) {
        out->push_back(base + static_cast<int32_t>(j));
      }
    }
  }
};

// One stream's position in an eager product plus its fused-DRA side-cars,
// stepped without virtual dispatch. It is the single implementation of
// eager product stepping: ProductTagMachine's eager branch calls it, the
// streaming scanner runs a register-resident copy of it (synced through
// StreamMachine::ExportProductStepper), and the one-scan walk drives it
// over raw bytes.
//
// Per-query counts are not accumulated per open. Each open adds one to a
// per-state hit histogram (hits[state] += open); Fold() multiplies the
// histogram through the selection masks into the counts and clears it.
// Owners fold before reading counts; the scanner folds at the end of each
// chunk and before any refused token.
//
// The stepper is a small value: all storage (histogram, counts, side-car
// configurations) is borrowed from its owner, so copies share it.
class ProductStepper {
 public:
  ProductStepper() = default;
  // `counts` holds the product members' counts ([0, arity)); `hits` one
  // entry per product state, zeroed.
  ProductStepper(const TagDfaProduct* product, int64_t* counts,
                 int64_t* hits, DraSideCars side_cars)
      : product_(product),
        next_(product->rows.next.data()),
        accepting_(product->rows.accepting.data()),
        width_(product->rows.width),
        num_symbols_(product->rows.num_symbols),
        counts_(counts),
        hits_(hits),
        side_cars_(side_cars) {
    Reset();
  }

  // Back to the initial state and side-car configurations (the owner
  // zeroes counts and histogram).
  void Reset() {
    state_ = product_->rows.initial;
    side_cars_.Reset();
    side_accepting_ = side_cars_.AnyAccepting();
  }

  // One tag event. Term's universal close (-1) steps column 0, which the
  // term-blind product rows ignore.
  void Step(bool open, Symbol symbol) {
    const Symbol a = symbol < 0 ? 0 : symbol;
    Advance(a + (open ? 0 : num_symbols_), open);
    if (side_cars_.size != 0) side_accepting_ = side_cars_.Step(open, a);
  }

  // No transition, but acceptance is sampled as after an open: the
  // one-scan walk's unknown opening letter.
  void Resample() {
    Advance(product_->rows.noop_column(), true);
    if (side_cars_.size != 0) side_accepting_ = side_cars_.Sample();
  }

  // Some member selects the node just opened.
  bool accepting() const {
    return (accepting_[state_] != 0) | side_accepting_;
  }

  // Members selecting the node just opened: product mask bits, then the
  // side-cars (numbered from the product's arity).
  void AppendSelected(std::vector<int32_t>* out) const {
    if (accepting_[state_] != 0) {
      product_->masks[static_cast<size_t>(state_)].AppendSetBits(out);
    }
    side_cars_.AppendSelected(static_cast<int32_t>(product_->arity), out);
  }

  // Folds the hit histogram into the counts and clears it. Mutates only
  // the borrowed storage, so owners may fold from const accessors.
  void Fold() const {
    const int num_states = static_cast<int>(product_->masks.size());
    for (int state = 0; state < num_states; ++state) {
      const int64_t hits = hits_[state];
      if (hits == 0) continue;
      hits_[state] = 0;
      if (accepting_[state] != 0) {
        product_->masks[static_cast<size_t>(state)].AccumulateInto(counts_,
                                                                   hits);
      }
    }
  }

 private:
  void Advance(int column, bool open) {
    state_ = next_[static_cast<size_t>(state_) * width_ + column];
    hits_[state_] += static_cast<int64_t>(open);
  }

  const TagDfaProduct* product_ = nullptr;
  const int32_t* next_ = nullptr;
  const uint8_t* accepting_ = nullptr;
  size_t width_ = 0;
  int num_symbols_ = 0;
  int64_t* counts_ = nullptr;
  int64_t* hits_ = nullptr;
  DraSideCars side_cars_;
  int state_ = 0;
  bool side_accepting_ = false;
};

}  // namespace sst

#endif  // SST_DRA_PRODUCT_STEPPER_H_

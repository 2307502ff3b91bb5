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
// the caller, plus the batch's sleep state (by value, so a stepper copy
// carries it in registers). Stepping is the one implementation every
// batch path uses for its DRA side-cars.
//
// Sleeping (ByteDraRunner::IsSleepy): a side-car whose state is sleepy
// skips its table step while the depth stays above its gate, and its
// configuration's depth goes stale meanwhile. While every side-car
// sleeps, `slack` is the batch depth minus the highest gate: an open may
// skip, and so may a close that leaves the depth above the gate (slack
// >= 2) — one compare per event, on one register. Otherwise Wake steps
// the side-cars that are awake or woken, resyncing a woken one's depth
// first. SyncDepths() writes the true depth into every configuration
// before they are handed out.
struct DraSideCars {
  const ByteDraRunner* const* runners = nullptr;
  DraConfig* configs = nullptr;
  int64_t* counts = nullptr;  // counts[j]: nodes side-car j selected
  size_t size = 0;
  // Every side-car asleep: slack = depth - gate >= 0 and base = gate.
  // Otherwise slack = kAwake and base = depth.
  static constexpr int64_t kAwake = INT64_MIN / 2;
  int64_t slack = kAwake;
  int64_t base = 0;
  bool accepting = false;  // some side-car accepts (never while all sleep)

  void Reset() {
    for (size_t j = 0; j < size; ++j) configs[j] = runners[j]->InitialConfig();
    Rearm(0);
  }

  // The batch depth.
  int64_t depth() const { return slack >= 0 ? base + slack : base; }

  // Recomputes the sleep state and acceptance from the configurations at
  // batch depth `depth`.
  void Rearm(int64_t depth);

  // One tag event for every side-car; `symbol` must be a table symbol
  // (term's universal close arrives as 0, which term-blind DRAs ignore).
  // Counts the accepting side-cars on opens. Skipping leaves `accepting`
  // false, as it already is while every side-car sleeps.
  void Step(bool open, Symbol symbol) {
    if (slack + 2 * static_cast<int64_t>(open) > 1) {
      slack += open ? 1 : -1;
      return;
    }
    Wake(open, symbol);
  }

  // The scalars a scan loop keeps of the side-cars: 16 bytes, returned in
  // registers.
  struct Armed {
    int64_t slack;
    bool accepting;
  };
  // Step's awake path: steps every side-car that is awake or woken by the
  // event, in place, and returns the re-armed scalars. Out of line, so the
  // scan loops carry only the compare above.
  Armed Wake(bool open, Symbol symbol);

  // Counts the accepting side-cars as an open would, with no transition.
  void Sample() {
    for (size_t j = 0; j < size; ++j) {
      counts[j] += static_cast<int64_t>(
          runners[j]->IsAccepting(configs[j].state));
    }
  }

  void SyncDepths() const {
    const int64_t now = depth();
    for (size_t j = 0; j < size; ++j) configs[j].depth = now;
  }

  // Appends first + j for every accepting side-car j.
  void AppendSelected(int32_t first, std::vector<int32_t>* out) const {
    for (size_t j = 0; j < size; ++j) {
      if (runners[j]->IsAccepting(configs[j].state)) {
        out->push_back(first + static_cast<int32_t>(j));
      }
    }
  }
};

template <bool kSideCars>
struct ProductLoopStepper;

// One stream's position in an eager product plus its fused-DRA side-cars,
// stepped without virtual dispatch. It is the single implementation of
// eager product stepping: ProductTagMachine steps one per lane, the
// streaming scanner runs a ProductLoopStepper over it (synced through
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
  }

  // One tag event. Term's universal close (-1) steps column 0, which the
  // term-blind product rows ignore.
  void Step(bool open, Symbol symbol) {
    const Symbol a = symbol < 0 ? 0 : symbol;
    Advance(a + (open ? 0 : num_symbols_), open);
    if (has_side_cars()) side_cars_.Step(open, a);
  }
  bool has_side_cars() const { return side_cars_.size != 0; }

  // No transition, but acceptance is sampled as after an open: the
  // one-scan walk's unknown opening letter.
  void Resample() {
    Advance(product_->rows.noop_column(), true);
    side_cars_.Sample();
  }

  // Some member selects the node just opened.
  bool accepting() const {
    return (accepting_[state_] != 0) | side_cars_.accepting;
  }

  // Members selecting the node just opened: product mask bits, then the
  // side-cars (numbered from the product's arity).
  void AppendSelected(std::vector<int32_t>* out) const {
    AppendSelectedAt(state_, out);
  }

  // Folds the hit histogram into the counts and clears it, and brings the
  // side-car configurations' depths up to date. Mutates only the borrowed
  // storage, so owners may fold from const accessors.
  void Fold() const {
    side_cars_.SyncDepths();
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
  template <bool>
  friend struct ProductLoopStepper;

  void Advance(int column, bool open) {
    state_ = next_[static_cast<size_t>(state_) * width_ + column];
    hits_[state_] += static_cast<int64_t>(open);
  }

  void AppendSelectedAt(int state, std::vector<int32_t>* out) const {
    if (accepting_[state] != 0) {
      product_->masks[static_cast<size_t>(state)].AppendSetBits(out);
    }
    side_cars_.AppendSelected(static_cast<int32_t>(product_->arity), out);
  }

  // The side-cars' awake path from a scan loop's slack.
  DraSideCars::Armed WakeSideCars(int64_t slack, bool open, Symbol symbol) {
    side_cars_.slack = slack;
    return side_cars_.Wake(open, symbol);
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
};

// The copy of a ProductStepper a scan loop carries (the streaming
// scanner's batch stepper): only the scalars every event touches — the
// product's rows, width and symbol count, the histogram, the state, and
// the side-cars' slack and acceptance. The side-car runners,
// configurations, counts and base stay in the ProductStepper it points
// at, and their awake path runs out of line. Load/Store sync it with that
// stepper; Store also folds the hit histogram, so the machine's counts are
// exact at every chunk end and before any refused token. kSideCars false
// (a batch without side-cars) carries no side-car code at all.
template <bool kSideCars>
struct ProductLoopStepper {
  static constexpr bool kSingleMember = false;
  ProductStepper* home;
  const int32_t* next = nullptr;
  const uint8_t* accepting = nullptr;
  size_t width = 0;
  int num_symbols = 0;
  int state = 0;
  int64_t* hits = nullptr;
  int64_t slack = 0;
  bool side_accepting = false;

  void Load() {
    next = home->next_;
    accepting = home->accepting_;
    width = home->width_;
    num_symbols = home->num_symbols_;
    state = home->state_;
    hits = home->hits_;
    slack = home->side_cars_.slack;
    side_accepting = home->side_cars_.accepting;
  }
  void Store() {
    home->state_ = state;
    home->side_cars_.slack = slack;
    home->side_cars_.accepting = side_accepting;
    home->Fold();
  }
  void Step(bool open, Symbol symbol, unsigned char, int64_t) {
    // Polarity is data, never a jump: a close's column sits num_symbols
    // past its open's, and the side-cars' slack moves by 2 * open - 1.
    const Symbol a = symbol < 0 ? 0 : symbol;
    const int64_t opened = static_cast<int64_t>(open);
    state = next[static_cast<size_t>(state) * width + a +
                 (num_symbols & (static_cast<int>(opened) - 1))];
    hits[state] += opened;
    if constexpr (kSideCars) {
      if (slack + 2 * opened > 1) {
        slack += 2 * opened - 1;
      } else {
        const DraSideCars::Armed armed = home->WakeSideCars(slack, open, a);
        slack = armed.slack;
        side_accepting = armed.accepting;
      }
    }
  }
  bool Hit(bool open) const {
    return open & ((accepting[state] != 0) | side_accepting);
  }
  void AppendSelected(std::vector<int32_t>* out) const {
    home->AppendSelectedAt(state, out);
  }
};
// The scan-loop register budget (dra/streaming.h, EXPERIMENTS.md E24).
static_assert(sizeof(ProductLoopStepper<true>) <= 64,
              "scan-loop register budget");

}  // namespace sst

#endif  // SST_DRA_PRODUCT_STEPPER_H_

#ifndef SST_EVAL_STACK_EVALUATOR_H_
#define SST_EVAL_STACK_EVALUATOR_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "automata/dfa.h"
#include "base/check.h"
#include "base/pooled_stack.h"
#include "dra/machine.h"

namespace sst {

// The classical pushdown baseline: simulate the DFA of L along the current
// root-to-node path, pushing the state at every opening tag and popping at
// every closing tag. Realizes QL for *every* regular L, at the cost of
// Θ(depth) memory — exactly the cost the paper's stackless model avoids.
// Works unchanged for the term encoding (the closing label is ignored).
//
// Used throughout the test suite as the correctness oracle for the
// registerless and stackless constructions, and in benchmarks as the
// baseline. It is also the third rung of the robustness degradation
// ladder (DESIGN.md "Robustness & recovery"): because it keeps the DFA
// state per open level, it tolerates event streams the stackless tiers
// cannot even express recovery for — a close with nothing open is simply
// ignored (and counted in underflow_closes() for diagnosis) instead of
// corrupting the state.
//
// The per-level states live on a refcounted pooled persistent stack
// (base/pooled_stack.h) rather than a std::vector: chunked nodes come
// from a slab-backed free list (zero steady-state heap allocation —
// asserted by the operator-new counter test), and the checkpoint protocol
// snapshots the whole Θ(depth) configuration in O(1) by retaining the top
// chunk and recording the live index. Checkpoints of one document share
// every common stack suffix structurally, which is what makes
// depth-indexed checkpointing affordable on the one tier whose
// configuration is not O(1).
class StackQueryEvaluator final : public StreamMachine {
 public:
  explicit StackQueryEvaluator(const Dfa* dfa) {
    const size_t k = static_cast<size_t>(dfa->num_symbols);
    rows_.resize(static_cast<size_t>(dfa->num_states) * k);
    accepting_.assign(rows_.size(), 0);
    for (int q = 0; q < dfa->num_states; ++q) {
      for (Symbol a = 0; a < dfa->num_symbols; ++a) {
        rows_[q * k + static_cast<size_t>(a)] =
            static_cast<int>(dfa->Next(q, a) * k);
      }
      accepting_[q * k] = dfa->accepting[q] ? 1 : 0;
    }
    initial_ = static_cast<int>(dfa->initial * k);
    state_ = initial_;
  }

  void Reset() override {
    // A pooled Session returned to SessionPool must not pin stack nodes
    // across leases: drop the live chain AND every snapshot a checkpoint
    // still retains back into the free list (slabs are kept for reuse).
    stack_.Clear();
    for (Snapshot& snap : saved_) {
      stack_.Release(snap);
      snap = Snapshot{};
    }
    saved_.clear();
    free_slots_.clear();
    state_ = initial_;
    max_stack_depth_ = 0;
    underflow_closes_ = 0;
  }

  void OnOpen(Symbol symbol) override {
    stack_.Push(state_);
    if (stack_.size() > max_stack_depth_) max_stack_depth_ = stack_.size();
    state_ = rows_[static_cast<size_t>(state_ + symbol)];
  }

  void OnClose(Symbol /*symbol*/) override {
    if (stack_.empty()) {
      ++underflow_closes_;  // invalid stream; stay put
      return;
    }
    state_ = stack_.top();
    stack_.Pop();
  }

  bool InAcceptingState() const override { return accepting_[state_] != 0; }

  // Scanners step this machine inline, through a StackStepper.
  StackQueryEvaluator* ExportStackEvaluator() override { return this; }

  // Checkpoint protocol: {state, snapshot slot, underflow count, chain
  // size}. The slot indexes a retained (chunk, index) snapshot in the node
  // pool — the O(1) capture of the Θ(depth) chain; the size rides in the
  // config so unequal depths reject in O(1). Peak depth does not
  // round-trip (it is a diagnostic of the run, not of the configuration);
  // RestoreConfig re-bases it at the restored depth, mirroring what the
  // incremental scanner does with its own segment peaks.
  bool SaveConfig(std::vector<int64_t>* out) override {
    Snapshot snap = stack_.TakeSnapshot();
    size_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
      saved_[slot] = snap;
    } else {
      slot = saved_.size();
      saved_.push_back(snap);
    }
    out->clear();
    out->push_back(state_);
    out->push_back(static_cast<int64_t>(slot));
    out->push_back(static_cast<int64_t>(underflow_closes_));
    out->push_back(static_cast<int64_t>(stack_.size()));
    return true;
  }

  bool RestoreConfig(const std::vector<int64_t>& config) override {
    if (config.size() != 4) return false;
    const size_t slot = static_cast<size_t>(config[1]);
    if (slot >= saved_.size()) return false;
    stack_.Restore(saved_[slot], static_cast<uint64_t>(config[3]));
    state_ = static_cast<int>(config[0]);
    underflow_closes_ = static_cast<size_t>(config[2]);
    max_stack_depth_ = stack_.size();
    return true;
  }

  bool ConfigEqualsCurrent(const std::vector<int64_t>& config) const override {
    if (config.size() != 4) return false;
    const size_t slot = static_cast<size_t>(config[1]);
    if (slot >= saved_.size()) return false;
    // The underflow counter is a diagnostic, not part of the future-
    // determining configuration; counts are spliced separately. Unequal
    // depths reject on the size word — O(1), no chain walk.
    return config[0] == state_ &&
           static_cast<uint64_t>(config[3]) == stack_.size() &&
           stack_.EqualsSnapshot(saved_[slot]);
  }

  void ReleaseConfig(const std::vector<int64_t>& config) override {
    if (config.size() != 4) return;
    const size_t slot = static_cast<size_t>(config[1]);
    if (slot >= saved_.size()) return;
    stack_.Release(saved_[slot]);
    saved_[slot] = Snapshot{};
    free_slots_.push_back(slot);
  }

  int64_t StackDepthPeak() const override {
    return static_cast<int64_t>(max_stack_depth_);
  }
  int64_t StackUnderflowCloses() const override {
    return static_cast<int64_t>(underflow_closes_);
  }

  // Peak auxiliary memory, in stacked states (benchmark counter).
  size_t max_stack_depth() const {
    return static_cast<size_t>(max_stack_depth_);
  }

  // Current nesting depth as seen by the evaluator.
  size_t depth() const { return static_cast<size_t>(stack_.size()); }

  // Close events ignored because nothing was open — nonzero means the
  // upstream scanner fed an unbalanced stream.
  size_t underflow_closes() const { return underflow_closes_; }

  // Pool observability for the steady-state allocation tests.
  size_t pool_slabs() const { return stack_.slabs(); }
  size_t live_checkpoints() const {
    return saved_.size() - free_slots_.size();
  }

 private:
  friend struct StackStepper;
  using Snapshot = PooledStack<int>::Snapshot;
  using Cursor = PooledStack<int>::Cursor;

  // A StackStepper's push or pop that the head chunk cannot take in place
  // (chunk boundary, shared head chunk, underflow), through the stack's
  // member path; returns the cursor to continue from.
  __attribute__((noinline)) Cursor PushAt(Cursor cursor, int value) {
    stack_.Sync(cursor);
    stack_.Push(value);
    return stack_.cursor();
  }
  __attribute__((noinline)) Cursor PopAt(Cursor cursor) {
    stack_.Sync(cursor);
    if (stack_.empty()) {
      ++underflow_closes_;
    } else {
      stack_.Pop();
    }
    return stack_.cursor();
  }

  // The DFA with every state written as its row offset (state *
  // num_symbols), here and on the stack, so a transition is one add and
  // one load: rows_[state_ + symbol] is the next state's offset, and
  // accepting_ is indexed by offset too.
  std::vector<int> rows_;
  std::vector<uint8_t> accepting_;
  int initial_ = 0;
  PooledStack<int> stack_;
  int state_ = 0;
  uint64_t max_stack_depth_ = 0;
  size_t underflow_closes_ = 0;

  // Retained checkpoint snapshots, indexed by the slot stored in the
  // config words. Freed slots are recycled so steady-state save/release
  // cycles stop allocating once the registry has warmed up.
  std::vector<Snapshot> saved_;
  std::vector<size_t> free_slots_;
};

// The stack tier's scan-loop stepper (StreamingSelector): the DFA state
// (as its row offset), the rows and the one-byte acceptance row, and a
// cursor on the head chunk of the pooled stack stay in registers, so a
// push or pop inside the head chunk is a store or load plus an index
// bump. A chunk boundary, a shared (snapshotted) head chunk and underflow
// take the stack's member path out of line, and checkpoints keep their
// O(1) snapshots. No second depth is tracked per event: under the
// selector the stack depth is the framing depth, so Store folds the
// selector's peak depth (`*peak`, current whenever Store runs) into the
// evaluator's.
struct StackStepper {
  static constexpr bool kSingleMember = true;
  StackQueryEvaluator* home;
  const int64_t* peak;
  const int* rows = home->rows_.data();
  const uint8_t* accepting = home->accepting_.data();
  int state = 0;
  PooledStack<int>::Cursor cursor{};

  void Load() {
    state = home->state_;
    cursor = home->stack_.cursor();
  }
  void Store() {
    home->state_ = state;
    home->stack_.Sync(cursor);
    home->max_stack_depth_ =
        std::max(home->max_stack_depth_, static_cast<uint64_t>(*peak));
  }
  void Step(bool open, Symbol symbol, unsigned char, int64_t) {
    if (open) {
      if (cursor.len < cursor.limit) {
        cursor.values[cursor.len++] = state;
      } else {
        cursor = home->PushAt(cursor, state);
      }
      state = rows[static_cast<size_t>(state + symbol)];
    } else if (cursor.len > 1) {
      state = cursor.values[--cursor.len];
    } else {
      if (cursor.len == 1) state = cursor.values[0];
      cursor = home->PopAt(cursor);
    }
  }
  bool Hit(bool open) const { return open & (accepting[state] != 0); }
  void AppendSelected(std::vector<int32_t>* out) const { out->push_back(0); }
};
// The scan-loop register budget (dra/streaming.h, EXPERIMENTS.md E24).
static_assert(sizeof(StackStepper) <= 56, "scan-loop register budget");

}  // namespace sst

#endif  // SST_EVAL_STACK_EVALUATOR_H_

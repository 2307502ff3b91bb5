#ifndef SST_DRA_BYTE_RUNNER_H_
#define SST_DRA_BYTE_RUNNER_H_

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "automata/alphabet.h"
#include "automata/dfa.h"
#include "base/match_sink.h"
#include "dra/stream_error.h"
#include "dra/tag_dfa.h"

namespace sst {

// Byte-level evaluation over the compact markup serialization ('a'..'z'
// opening tags, 'A'..'Z' closing tags). These runners are the library's
// answer to the paper's Section 4.3 outlook: a registerless evaluator is a
// single fused 256-way transition table — one dependent load per input
// byte, no branches, no external memory — which is exactly the shape that
// SIMD/vectorization research targets, while the stack baseline must touch
// O(depth) memory.

// Fused byte-table runner for a TagDfa. The table maps (state, byte) to the
// next state; a parallel bitset marks states that pre-select on the byte
// just consumed (only meaningful after opening bytes). Besides the batch
// entry points, the runner exposes incremental stepping so streaming
// scanners (StreamingSelector) can drive it chunk by chunk.
//
// Storage is uint16_t when the machine has fewer than 65536 states (the
// overwhelmingly common case — halves the cache footprint of the hot
// table) and int32_t otherwise. Batch loops dispatch on the width once per
// call; the incremental Next() pays one well-predicted branch per event.
class ByteTagDfaRunner {
 public:
  // Positional convention: symbol s opens as byte 'a' + s and closes as
  // 'A' + s (requires at most 26 symbols).
  explicit ByteTagDfaRunner(const TagDfa& dfa);

  // Label-driven convention: each symbol of `dfa` opens as its single
  // lowercase-letter label in `alphabet` and closes as the uppercase form.
  // Every symbol in [0, dfa.num_symbols) must have such a label.
  ByteTagDfaRunner(const TagDfa& dfa, const Alphabet& alphabet);

  // Streams the bytes; returns the number of pre-selected nodes (accepting
  // states entered on opening bytes 'a'..'z'; all other bytes self-loop and
  // never count). Runs over the structural index when the text-run closure
  // allows (see below): the SIMD stage-1 scan classifies 64 bytes at a
  // time and the table walk touches only structural bytes, advancing each
  // whitespace gap in O(1) with the per-state closure.
  int64_t CountSelections(std::string_view bytes) const;

  // The per-byte reference loop (one table load per input byte, no
  // structural index). This is both the fallback for tables whose text-run
  // closure is not exact and the oracle the parity tests diff the indexed
  // paths against.
  int64_t CountSelectionsPerByte(std::string_view bytes) const;

  // CountSelections with byte-span position tracking: every pre-selected
  // node is pushed into `sink` as a MatchEvent (query_id 0) at its
  // earliest certain offset — just past the opening letter — and its span
  // completes at the matching closing letter (tracked with a depth
  // counter; the pending buffer is bounded by `max_pending`, overflow and
  // end-of-input spans report end_offset -1). Runs over the structural
  // index when the text-run closure is trivial and falls back to the
  // per-byte oracle loop otherwise; CollectMatchesPerByte is that oracle,
  // exposed for the differential tests. Both produce the same events at
  // the same offsets in the same order, and the same count as
  // CountSelections. Framing is not validated (CountSelections
  // semantics): unmatched closes at depth 0 are ignored.
  int64_t CollectMatches(std::string_view bytes, MatchSink* sink,
                         int64_t max_pending = MatchRecorder::kUnlimited)
      const;
  int64_t CollectMatchesPerByte(std::string_view bytes, MatchSink* sink,
                                int64_t max_pending =
                                    MatchRecorder::kUnlimited) const;

  // Final-state acceptance after the whole stream.
  bool Accepts(std::string_view bytes) const;

  // State reached from the initial state after the whole stream;
  // FinalStatePerByte is its per-byte oracle (no structural index).
  int FinalState(std::string_view bytes) const;
  int FinalStatePerByte(std::string_view bytes) const;

  // Text-run closure (computed from the table at construction, not
  // assumed): for each state q, the fixpoint state text_fixpoint(q) that a
  // run of non-structural (whitespace) bytes converges to, and the
  // per-byte selection coefficient text_coeff(q) such a run accrues. The
  // closure is *exact* when every state steps uniformly across the six
  // whitespace bytes and the step is idempotent — then a gap of g > 0 text
  // bytes is equivalent to: count += coeff(q) + (g-1)*coeff(fix(q));
  // q = fix(q). It is *trivial* when additionally fix(q) == q and the
  // coefficient is zero for every q — then gaps need no work at all. The
  // tables this runner builds are trivial by construction (non-letter
  // bytes self-loop and only 'a'..'z' samples acceptance); the flags keep
  // that a checked property rather than a silent assumption, and the
  // indexed fast paths gate on them with the per-byte loop as fallback.
  bool text_run_trivial() const { return text_run_trivial_; }
  bool text_run_exact() const { return text_run_exact_; }
  int text_fixpoint(int state) const { return text_fix_[state]; }
  int text_coeff(int state) const { return text_coeff_[state]; }

  // Incremental stepping for chunked scanners.
  int initial_state() const { return initial_; }
  int Next(int state, unsigned char byte) const { return Step(state, byte); }
  bool IsAccepting(int state) const { return accepting_[state] != 0; }

  // Symbol of an opening ('a'..'z') or closing ('A'..'Z') letter under this
  // runner's construction convention; -1 for any byte that is neither.
  Symbol byte_symbol(unsigned char byte) const { return byte_symbol_[byte]; }

  int num_states() const { return num_states_; }

  // Raw storage access for the multi-query one-scan loop: exactly one of
  // table16()/table32() is non-null, matching uses_compact_table(). Rows
  // are 256 entries wide.
  bool uses_compact_table() const { return !table16_.empty(); }
  const uint16_t* table16() const {
    return table16_.empty() ? nullptr : table16_.data();
  }
  const int32_t* table32() const {
    return table32_.empty() ? nullptr : table32_.data();
  }

 private:
  void BuildTable(const TagDfa& dfa, const Symbol* byte_symbol);
  void ComputeTextClosure();

  int Step(int state, unsigned char byte) const {
    size_t index = static_cast<size_t>(state) * 256 + byte;
    return table16_.empty() ? table32_[index] : table16_[index];
  }

  template <typename T>
  void FillTable(std::vector<T>* table, const TagDfa& dfa,
                 const Symbol* byte_symbol);
  template <typename T>
  int64_t CountSelectionsImpl(const T* table, std::string_view bytes) const;
  template <typename T>
  int64_t CountSelectionsIndexed(const T* table, std::string_view bytes) const;
  template <typename T>
  int64_t CollectMatchesImpl(const T* table, std::string_view bytes,
                             MatchRecorder* recorder, bool indexed) const;
  template <typename T>
  int FinalStateImpl(const T* table, std::string_view bytes) const;

  int num_states_;
  int initial_;
  std::vector<uint16_t> table16_;  // num_states * 256 when < 65536 states
  std::vector<int32_t> table32_;   // num_states * 256 otherwise
  std::vector<uint8_t> accepting_;
  // Text-run closure, indexed by state (see the accessors above).
  std::vector<int32_t> text_fix_;
  std::vector<int32_t> text_coeff_;
  bool text_run_trivial_ = false;
  bool text_run_exact_ = false;
  // byte → symbol of the construction convention; -1 for bytes that are
  // not a known opening/closing letter. QueryPlan and StreamingSelector
  // read it (byte_symbol()) to cross-check their own letter tables.
  std::array<Symbol, 256> byte_symbol_;
};

// Byte-level pushdown baseline: simulate the DFA of L with an explicit
// state stack (push on open, pop on close).
class ByteStackRunner {
 public:
  explicit ByteStackRunner(const Dfa& dfa);

  // Streams the bytes; returns the number of pre-selected nodes, or -1 when
  // the input is unbalanced (a closing tag with no matching opener — the
  // runner cannot recover the state it never pushed). Bytes outside
  // 'a'..'z' / 'A'..'Z' are ignored; excess *opening* tags are fine (a
  // prefix of a valid document is still countable).
  int64_t CountSelections(std::string_view bytes);

  size_t max_stack_depth() const { return max_stack_depth_; }

 private:
  int num_states_;
  int initial_;
  std::vector<int> open_table_;  // num_states * 26
  std::vector<uint8_t> accepting_;
  std::vector<int> stack_;
  size_t max_stack_depth_ = 0;
};

}  // namespace sst

#endif  // SST_DRA_BYTE_RUNNER_H_

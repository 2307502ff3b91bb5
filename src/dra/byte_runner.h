#ifndef SST_DRA_BYTE_RUNNER_H_
#define SST_DRA_BYTE_RUNNER_H_

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "automata/alphabet.h"
#include "automata/dfa.h"
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
// just consumed (only meaningful after opening bytes). Streaming scanners
// (StreamingSelector's FusedStepper, the batch product loop) read the raw
// table and step it themselves; the runner's own whole-buffer walks are
// references only (see CountSelections and CountSelectionsPerByte).
//
// Every byte that is not a known tag letter self-loops in every row. In
// particular each whitespace byte leaves every state unchanged and never
// counts, so a scan may skip whitespace runs wholesale; the constructor
// checks this for the six ASCII whitespace bytes.
//
// Storage is uint16_t when the machine has fewer than 65536 states (the
// overwhelmingly common case — halves the cache footprint of the hot
// table) and int32_t otherwise; exactly one of table16()/table32() is set.
class ByteTagDfaRunner {
 public:
  // Positional convention: symbol s opens as byte 'a' + s and closes as
  // 'A' + s (requires at most 26 symbols).
  explicit ByteTagDfaRunner(const TagDfa& dfa);

  // Label-driven convention: each symbol of `dfa` opens as its single
  // lowercase-letter label in `alphabet` and closes as the uppercase form.
  // Every symbol in [0, dfa.num_symbols) must have such a label
  // (Alphabet::CompactLabels).
  ByteTagDfaRunner(const TagDfa& dfa, const Alphabet& alphabet);

  // Streams the bytes over the SIMD structural index; returns the number
  // of pre-selected nodes (accepting states entered on opening bytes
  // 'a'..'z'; all other bytes self-loop and never count). No framing is
  // validated. This is the degradation ladder's speed-of-light rung: the
  // end-to-end benchmark times it as the fused single-query walk that the
  // streaming tiers are measured against. The engine never calls it.
  int64_t CountSelections(std::string_view bytes) const;

  // The per-byte reference loop (one table load per input byte, no
  // structural index): the oracle the parity tests diff CountSelections
  // and the streaming tiers against.
  int64_t CountSelectionsPerByte(std::string_view bytes) const;

  int initial_state() const { return initial_; }
  bool IsAccepting(int state) const { return accepting_[state] != 0; }
  // One byte per state, nonzero where IsAccepting.
  const uint8_t* accepting() const { return accepting_.data(); }

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

  int num_states_;
  int initial_;
  std::vector<uint16_t> table16_;  // num_states * 256 when < 65536 states
  std::vector<int32_t> table32_;   // num_states * 256 otherwise
  std::vector<uint8_t> accepting_;
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

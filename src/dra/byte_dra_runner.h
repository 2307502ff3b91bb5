#ifndef SST_DRA_BYTE_DRA_RUNNER_H_
#define SST_DRA_BYTE_DRA_RUNNER_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "automata/alphabet.h"
#include "dra/dra.h"
#include "dra/machine.h"
#include "dra/stream_error.h"

namespace sst {

// Fused execution of a *restricted* DRA: the stackless analogue of
// ByteTagDfaRunner, closing the gap between the paper's Lemma 3.8
// evaluators and the Section 4.3 byte-table regime. The depth counter, the
// <= Dra::kMaxRegisters depth registers, and the 3^r comparison code are
// all resolved inside the scan loop — no virtual dispatch, no per-event
// heap traffic. The symbol-level stepping API (StepOpen/StepClose, the
// sleepy bits) serves every stream format; the two whole-buffer walks
// (CountSelections, CountSelectionsPerByte) read the compact markup
// serialization ('a'..'z' opening tags, 'A'..'Z' closing tags) and need
// single-lowercase-letter labels (compact_labels()).
//
// Restrictedness (Section 2.2) is what makes the fusion cheap. In a
// restricted DRA every transition reloads each register reading strictly
// greater than the new depth, so by induction every reachable
// configuration satisfies "all registers <= depth" — on ANY byte
// sequence, not just well-formed ones. Hence:
//   * opening tags raise the depth above every register: the comparison
//     code is identically 0 (all kLess). The open half of the table is
//     stored with the code dimension collapsed away — the "comparison
//     outcome precomputed per byte class".
//   * closing tags lower the depth by one, so each register digit is
//     computed branch-free as (reg >= depth) + (reg > depth) after the
//     decrement (kGreater can only mean reg == depth + 1).
//
// The (state, open/close, symbol, code) -> action table is flattened to
// the same compact storage ByteTagDfaRunner uses: uint16_t next-state
// entries when the DRA has fewer than 65536 states (int32_t otherwise),
// plus a parallel uint16_t load-mask array (<= kMaxRegisters bits) applied
// with a ctz walk. Rows are laid out open-major:
//   open:  [state * num_symbols + symbol]                      (code == 0)
//   close: [(state * num_symbols + symbol) * 3^r + code]
//
// Sleeping states (DESIGN.md "Sleeping DRA members"). A state is *sleepy*
// iff it is non-accepting and every code-0 action — open or close, any
// symbol — is a load-free self-loop. Opens always read code 0, and so does
// a close whose new depth is above every register; so while the depth
// stays above Gate(config), the highest register, a sleepy configuration
// provably cannot change but for its depth, and steppers skip the table.
class ByteDraRunner {
 public:
  // Label-driven convention, matching ByteTagDfaRunner: each symbol of
  // `dra` opens as its single lowercase-letter label in `alphabet` and
  // closes as the uppercase form; with any other label the whole-buffer
  // walks are unavailable (compact_labels() false) and only symbol-level
  // stepping remains. Requires IsRestricted(*dra); `dra` is
  // borrowed and must outlive the runner.
  ByteDraRunner(const Dra* dra, const Alphabet& alphabet);

  // True when every label is a single lowercase letter
  // (Alphabet::CompactLabels): the whole-buffer walks may be called.
  bool compact_labels() const { return compact_labels_; }

  // Streams the bytes; returns the number of pre-selected nodes (acceptance
  // sampled after every opening byte 'a'..'z'). Bytes that are no known tag
  // letter leave the configuration untouched; unknown *lowercase* letters
  // still sample acceptance — ByteTagDfaRunner parity. Runs over the SIMD
  // structural index: whitespace never indexes the table, so skipping it is
  // sound for every DRA. Like ByteTagDfaRunner::CountSelections this is
  // the degradation ladder's speed-of-light rung, timed by the end-to-end
  // benchmark; the engine never calls it.
  int64_t CountSelections(std::string_view bytes) const;

  // Per-byte reference loop (no structural index): the oracle the parity
  // tests diff CountSelections against.
  int64_t CountSelectionsPerByte(std::string_view bytes) const;

  // The configuration a stream starts in. The config is the caller's
  // per-stream state; the runner itself stays immutable and shareable.
  DraConfig InitialConfig() const;
  bool IsAccepting(int state) const { return accepting_[state] != 0; }

  // Symbol-level stepping for event-driven callers (the streaming
  // scanner's stepper, the mixed multi-query tier). The symbol must be in
  // [0, num_symbols).
  void StepOpen(DraConfig* config, Symbol symbol) const {
    ++config->depth;
    // Restricted invariant: every register <= old depth < new depth, so
    // the comparison code is 0 and the open row needs no code dimension.
    size_t index =
        static_cast<size_t>(config->state) * num_symbols_ + symbol;
    ApplyLoads(config, open_load_[index]);
    config->state = open_next16_.empty()
                        ? open_next32_[index]
                        : open_next16_[index];
  }
  // The symbol must be in [0, num_symbols): term's universal close steps
  // column 0, which a term-blind DRA reads like any other.
  void StepClose(DraConfig* config, Symbol symbol) const {
    const int64_t depth = --config->depth;
    int code = 0;
    for (int r = 0; r < num_registers_; ++r) {
      const int64_t reg = config->registers[static_cast<size_t>(r)];
      // Branch-free digit: kLess=0, kEqual=1, kGreater=2. Restrictedness
      // bounds every register by depth + 1, so the two comparisons cover
      // all reachable cases.
      code += (static_cast<int>(reg >= depth) + static_cast<int>(reg > depth)) *
              pow3_[static_cast<size_t>(r)];
    }
    size_t index =
        (static_cast<size_t>(config->state) * num_symbols_ + symbol) *
            num_codes_ +
        code;
    ApplyLoads(config, close_load_[index]);
    config->state = close_next16_.empty()
                        ? close_next32_[index]
                        : close_next16_[index];
  }

  // Sleeping: true iff `state` is sleepy (see the class comment).
  bool IsSleepy(int state) const { return sleepy_[state] != 0; }
  // The depth a sleepy configuration must stay above: its highest
  // register, 0 with none. Stale registers (above the live chain) are
  // at most the depth too, so counting them only wakes a stepper earlier.
  int64_t Gate(const DraConfig& config) const {
    int64_t gate = 0;
    for (int r = 0; r < num_registers_; ++r) {
      gate = std::max(gate, config.registers[static_cast<size_t>(r)]);
    }
    return gate;
  }

  // What a scan-loop stepper keeps of a configuration between table steps:
  // 16 bytes, so the out-of-line step below returns it in registers.
  struct Armed {
    int64_t gate;
    bool asleep;
    bool accepting;
  };
  Armed Arm(const DraConfig& config) const {
    return {Gate(config), IsSleepy(config.state), IsAccepting(config.state)};
  }
  // One table step of `config` from batch depth `depth` (the config's own
  // depth may be stale while it slept); term's universal close (-1) steps
  // column 0. Out of line, so a scan loop carries only the sleep compare.
  Armed StepAwake(DraConfig* config, int64_t depth, bool open,
                  Symbol symbol) const;

  // Symbol of an opening ('a'..'z') or closing ('A'..'Z') letter under the
  // label convention; -1 for any byte that is neither.
  Symbol byte_symbol(unsigned char byte) const { return byte_symbol_[byte]; }

  int num_states() const { return num_states_; }
  int num_registers() const { return num_registers_; }
  bool uses_compact_table() const { return !open_next16_.empty(); }
  const Dra* dra() const { return dra_; }

 private:
  template <typename T>
  void FillTables(std::vector<T>* open_next, std::vector<T>* close_next);

  // One byte of the whole-buffer walks: a known tag letter steps the
  // configuration; returns 1 when an opening byte samples acceptance —
  // including unknown lowercase letters, which step nothing but still
  // sample (parity with ByteTagDfaRunner's self-loop rows).
  int StepByte(DraConfig* config, unsigned char byte) const {
    const Symbol s = byte_symbol_[byte];
    if (byte >= 'a' && byte <= 'z') {
      if (s >= 0) StepOpen(config, s);
      return accepting_[config->state];
    }
    if (s >= 0) StepClose(config, s);
    return 0;
  }

  void ApplyLoads(DraConfig* config, uint16_t load_mask) const {
    for (uint32_t mask = load_mask; mask != 0; mask &= mask - 1) {
#if defined(__GNUC__) || defined(__clang__)
      config->registers[static_cast<size_t>(__builtin_ctz(mask))] =
          config->depth;
#else
      uint32_t low = mask & (~mask + 1);
      int bit = 0;
      while ((low >> bit) != 1) ++bit;
      config->registers[static_cast<size_t>(bit)] = config->depth;
#endif
    }
  }

  const Dra* dra_;
  int num_states_;
  int num_symbols_;
  int num_registers_;
  int num_codes_;  // 3^num_registers_
  std::array<int, Dra::kMaxRegisters> pow3_{};

  // Open rows: num_states * num_symbols (code dimension collapsed to 0).
  // Close rows: num_states * num_symbols * num_codes. Exactly one of the
  // 16/32-bit pairs is populated, matching uses_compact_table().
  std::vector<uint16_t> open_next16_;
  std::vector<int32_t> open_next32_;
  std::vector<uint16_t> open_load_;
  std::vector<uint16_t> close_next16_;
  std::vector<int32_t> close_next32_;
  std::vector<uint16_t> close_load_;
  std::vector<uint8_t> accepting_;
  std::vector<uint8_t> sleepy_;
  bool compact_labels_ = false;
  std::array<Symbol, 256> byte_symbol_;
};

}  // namespace sst

#endif  // SST_DRA_BYTE_DRA_RUNNER_H_

#include "dra/byte_runner.h"

#include <array>

#include "base/byte_scan.h"
#include "base/check.h"

namespace sst {

ByteTagDfaRunner::ByteTagDfaRunner(const TagDfa& dfa)
    : num_states_(dfa.num_states), initial_(dfa.initial) {
  SST_CHECK_MSG(dfa.num_symbols <= 26, "compact markup allows 26 symbols");
  std::array<Symbol, 256> byte_symbol;
  byte_symbol.fill(-1);
  for (Symbol a = 0; a < dfa.num_symbols; ++a) byte_symbol['a' + a] = a;
  BuildTable(dfa, byte_symbol.data());
}

ByteTagDfaRunner::ByteTagDfaRunner(const TagDfa& dfa, const Alphabet& alphabet)
    : num_states_(dfa.num_states), initial_(dfa.initial) {
  std::array<Symbol, 256> byte_symbol = alphabet.ByteSymbolTable();
  for (Symbol a = 0; a < dfa.num_symbols; ++a) {
    const std::string& label = alphabet.LabelOf(a);
    SST_CHECK_MSG(
        label.size() == 1 && label[0] >= 'a' && label[0] <= 'z',
        "compact markup requires single lowercase-letter labels");
  }
  // Keep only lowercase-letter entries: other single-byte labels (digits,
  // punctuation) have no uppercase closing form in compact markup.
  for (int byte = 0; byte < 256; ++byte) {
    if (byte < 'a' || byte > 'z') byte_symbol[byte] = -1;
  }
  BuildTable(dfa, byte_symbol.data());
}

template <typename T>
void ByteTagDfaRunner::FillTable(std::vector<T>* table, const TagDfa& dfa,
                                 const Symbol* byte_symbol) {
  table->assign(static_cast<size_t>(num_states_) * 256, 0);
  for (int q = 0; q < num_states_; ++q) {
    accepting_[q] = dfa.accepting[q] ? 1 : 0;
    T* row = table->data() + static_cast<size_t>(q) * 256;
    for (int byte = 0; byte < 256; ++byte) {
      // Unknown bytes self-loop (they cannot occur in valid input).
      row[byte] = static_cast<T>(q);
    }
    for (int byte = 'a'; byte <= 'z'; ++byte) {
      Symbol a = byte_symbol[byte];
      if (a < 0 || a >= dfa.num_symbols) continue;
      row[byte] = static_cast<T>(dfa.NextOpen(q, a));
      row[byte - 'a' + 'A'] = static_cast<T>(dfa.NextClose(q, a));
    }
  }
}

void ByteTagDfaRunner::BuildTable(const TagDfa& dfa,
                                  const Symbol* byte_symbol) {
  accepting_.assign(num_states_, 0);
  byte_symbol_.fill(-1);
  for (int byte = 'a'; byte <= 'z'; ++byte) {
    Symbol a = byte_symbol[byte];
    if (a < 0 || a >= dfa.num_symbols) continue;
    byte_symbol_[byte] = a;
    byte_symbol_[byte - 'a' + 'A'] = a;
  }
  if (num_states_ < 65536) {
    FillTable(&table16_, dfa, byte_symbol);
  } else {
    FillTable(&table32_, dfa, byte_symbol);
  }
  ComputeTextClosure();
}

void ByteTagDfaRunner::ComputeTextClosure() {
  static constexpr unsigned char kWsProbe[] = {' ', '\t', '\n',
                                               '\v', '\f', '\r'};
  text_fix_.assign(static_cast<size_t>(num_states_), 0);
  text_coeff_.assign(static_cast<size_t>(num_states_), 0);
  bool uniform = true;
  text_run_trivial_ = true;
  for (int q = 0; q < num_states_; ++q) {
    const int next = Step(q, kWsProbe[0]);
    // Per-byte selection coefficient of a text byte entered from q: the
    // sampling predicate counts only opening bytes 'a'..'z', which no
    // whitespace byte is, so this is derived as zero — derived, not
    // assumed, so a change to either the table fill or the sampling rule
    // trips the closure flags instead of silently corrupting gap math.
    const int coeff = static_cast<int>((kWsProbe[0] >= 'a') &
                                       (kWsProbe[0] <= 'z') &
                                       accepting_[static_cast<size_t>(next)]);
    for (unsigned char w : kWsProbe) {
      const int step = Step(q, w);
      const int c = static_cast<int>((w >= 'a') & (w <= 'z') &
                                     accepting_[static_cast<size_t>(step)]);
      if (step != next || c != coeff) uniform = false;
    }
    text_fix_[static_cast<size_t>(q)] = next;
    text_coeff_[static_cast<size_t>(q)] = coeff;
    if (next != q || coeff != 0) text_run_trivial_ = false;
  }
  bool idempotent = true;
  for (int q = 0; q < num_states_; ++q) {
    const int f = text_fix_[static_cast<size_t>(q)];
    if (text_fix_[static_cast<size_t>(f)] != f) idempotent = false;
  }
  text_run_exact_ = uniform && idempotent;
  if (!text_run_exact_) text_run_trivial_ = false;
}

template <typename T>
int64_t ByteTagDfaRunner::CountSelectionsImpl(const T* table,
                                              std::string_view bytes) const {
  int state = initial_;
  int64_t selected = 0;
  for (unsigned char byte : bytes) {
    state = table[static_cast<size_t>(state) * 256 + byte];
    // Pre-selection samples only after opening tags: exactly the lowercase
    // letters. Anything else ('{', '|', bytes >= 0x7B, ...) self-loops and
    // must not count even when the looped state is accepting.
    selected += static_cast<int64_t>((byte >= 'a') & (byte <= 'z') &
                                     accepting_[state]);
  }
  return selected;
}

int64_t ByteTagDfaRunner::CountSelectionsPerByte(
    std::string_view bytes) const {
  return uses_compact_table() ? CountSelectionsImpl(table16_.data(), bytes)
                              : CountSelectionsImpl(table32_.data(), bytes);
}

template <typename T>
int64_t ByteTagDfaRunner::CountSelectionsIndexed(const T* table,
                                                 std::string_view bytes) const {
  int state = initial_;
  int64_t selected = 0;
  if (text_run_trivial_) {
    // Whitespace gaps are full no-ops: the stage-1 index walks straight to
    // the structural bytes and the automaton never sees the rest.
    ForEachStructural(bytes.data(), bytes.size(), [&](size_t i) {
      unsigned char byte = static_cast<unsigned char>(bytes[i]);
      state = table[static_cast<size_t>(state) * 256 + byte];
      selected += static_cast<int64_t>((byte >= 'a') & (byte <= 'z') &
                                       accepting_[state]);
    });
    return selected;
  }
  // Exact but non-trivial closure: each gap of g text bytes collapses to
  // one fixpoint step and a multiplied coefficient.
  size_t prev = static_cast<size_t>(-1);
  ForEachStructural(bytes.data(), bytes.size(), [&](size_t i) {
    size_t gap = i - prev - 1;
    if (gap > 0) {
      selected += text_coeff_[state];
      state = text_fix_[state];
      selected += static_cast<int64_t>(gap - 1) * text_coeff_[state];
    }
    prev = i;
    unsigned char byte = static_cast<unsigned char>(bytes[i]);
    state = table[static_cast<size_t>(state) * 256 + byte];
    selected += static_cast<int64_t>((byte >= 'a') & (byte <= 'z') &
                                     accepting_[state]);
  });
  size_t tail = bytes.size() - prev - 1;
  if (tail > 0) {
    selected += text_coeff_[state];
    state = text_fix_[state];
    selected += static_cast<int64_t>(tail - 1) * text_coeff_[state];
  }
  return selected;
}

int64_t ByteTagDfaRunner::CountSelections(std::string_view bytes) const {
  if (!text_run_exact_) return CountSelectionsPerByte(bytes);
  return uses_compact_table() ? CountSelectionsIndexed(table16_.data(), bytes)
                              : CountSelectionsIndexed(table32_.data(), bytes);
}

template <typename T>
int64_t ByteTagDfaRunner::CollectMatchesImpl(const T* table,
                                             std::string_view bytes,
                                             MatchRecorder* recorder,
                                             bool indexed) const {
  int state = initial_;
  int64_t depth = 0;
  int64_t selected = 0;
  // Span bookkeeping rides the same fused walk as selection counting: a
  // depth counter frames opens/closes (no validation — CountSelections
  // semantics), matches arm a pending span at the opening letter and the
  // close at the same depth completes it.
  auto step = [&](size_t i) {
    unsigned char byte = static_cast<unsigned char>(bytes[i]);
    state = table[static_cast<size_t>(state) * 256 + byte];
    if (byte >= 'a' && byte <= 'z') {
      ++depth;
      if (accepting_[state]) {
        ++selected;
        recorder->OnMatch(0, depth, static_cast<int64_t>(i),
                          static_cast<int64_t>(i) + 1);
      }
    } else if (byte >= 'A' && byte <= 'Z') {
      if (depth > 0) {
        recorder->OnClose(depth, static_cast<int64_t>(i) + 1);
        --depth;
      }
    }
  };
  if (indexed) {
    // Sound only under a trivial text-run closure (the gate in
    // CollectMatches): whitespace gaps touch neither the state nor the
    // framing, so skipping them changes no event and no offset.
    ForEachStructural(bytes.data(), bytes.size(), step);
  } else {
    for (size_t i = 0; i < bytes.size(); ++i) step(i);
  }
  // Spans still open at end of input have no close in the bytes: report
  // them truncated (end_offset -1), never drop them.
  recorder->FlushTruncated();
  return selected;
}

int64_t ByteTagDfaRunner::CollectMatches(std::string_view bytes,
                                         MatchSink* sink,
                                         int64_t max_pending) const {
  MatchRecorder recorder;
  recorder.set_sink(sink);
  recorder.set_max_pending(max_pending);
  const bool indexed = text_run_trivial_;
  return uses_compact_table()
             ? CollectMatchesImpl(table16_.data(), bytes, &recorder, indexed)
             : CollectMatchesImpl(table32_.data(), bytes, &recorder, indexed);
}

int64_t ByteTagDfaRunner::CollectMatchesPerByte(std::string_view bytes,
                                                MatchSink* sink,
                                                int64_t max_pending) const {
  MatchRecorder recorder;
  recorder.set_sink(sink);
  recorder.set_max_pending(max_pending);
  return uses_compact_table()
             ? CollectMatchesImpl(table16_.data(), bytes, &recorder, false)
             : CollectMatchesImpl(table32_.data(), bytes, &recorder, false);
}

template <typename T>
int ByteTagDfaRunner::FinalStateImpl(const T* table,
                                     std::string_view bytes) const {
  int state = initial_;
  for (unsigned char byte : bytes) {
    state = table[static_cast<size_t>(state) * 256 + byte];
  }
  return state;
}

int ByteTagDfaRunner::FinalStatePerByte(std::string_view bytes) const {
  return uses_compact_table() ? FinalStateImpl(table16_.data(), bytes)
                              : FinalStateImpl(table32_.data(), bytes);
}

int ByteTagDfaRunner::FinalState(std::string_view bytes) const {
  if (!text_run_exact_) return FinalStatePerByte(bytes);
  int state = initial_;
  size_t prev = static_cast<size_t>(-1);
  if (text_run_trivial_) {
    // Gaps are identity on the state; only structural bytes step.
    if (uses_compact_table()) {
      const uint16_t* table = table16_.data();
      ForEachStructural(bytes.data(), bytes.size(), [&](size_t i) {
        state = table[static_cast<size_t>(state) * 256 +
                      static_cast<unsigned char>(bytes[i])];
      });
    } else {
      const int32_t* table = table32_.data();
      ForEachStructural(bytes.data(), bytes.size(), [&](size_t i) {
        state = table[static_cast<size_t>(state) * 256 +
                      static_cast<unsigned char>(bytes[i])];
      });
    }
    return state;
  }
  ForEachStructural(bytes.data(), bytes.size(), [&](size_t i) {
    if (i - prev - 1 > 0) state = text_fix_[state];
    prev = i;
    state = Step(state, static_cast<unsigned char>(bytes[i]));
  });
  if (bytes.size() - prev - 1 > 0) state = text_fix_[state];
  return state;
}

bool ByteTagDfaRunner::Accepts(std::string_view bytes) const {
  return accepting_[FinalState(bytes)] != 0;
}

ByteStackRunner::ByteStackRunner(const Dfa& dfa)
    : num_states_(dfa.num_states), initial_(dfa.initial) {
  SST_CHECK_MSG(dfa.num_symbols <= 26, "compact markup allows 26 symbols");
  open_table_.assign(static_cast<size_t>(num_states_) * 26, 0);
  accepting_.assign(num_states_, 0);
  for (int q = 0; q < num_states_; ++q) {
    accepting_[q] = dfa.accepting[q] ? 1 : 0;
    for (Symbol a = 0; a < dfa.num_symbols; ++a) {
      open_table_[static_cast<size_t>(q) * 26 + a] = dfa.Next(q, a);
    }
  }
}

int64_t ByteStackRunner::CountSelections(std::string_view bytes) {
  stack_.clear();
  int state = initial_;
  int64_t selected = 0;
  for (unsigned char byte : bytes) {
    if (byte >= 'a' && byte <= 'z') {
      stack_.push_back(state);
      if (stack_.size() > max_stack_depth_) max_stack_depth_ = stack_.size();
      state = open_table_[static_cast<size_t>(state) * 26 + (byte - 'a')];
      selected += accepting_[state];
    } else if (byte >= 'A' && byte <= 'Z') {
      if (stack_.empty()) return -1;  // unbalanced: close without open
      state = stack_.back();
      stack_.pop_back();
    }
  }
  return selected;
}

}  // namespace sst

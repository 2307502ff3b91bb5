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
  SST_CHECK_MSG(alphabet.CompactLabels(dfa.num_symbols),
                "compact markup requires single lowercase-letter labels");
  std::array<Symbol, 256> byte_symbol = alphabet.ByteSymbolTable();
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
  // Scans skip the bytes the structural index drops (see the class
  // comment); that is sound only while they self-loop in every row.
  for (int byte = 0; byte < 256; ++byte) {
    if (!ByteIsAsciiWs(static_cast<unsigned char>(byte))) continue;
    for (int q = 0; q < num_states_; ++q) {
      SST_CHECK_MSG(Step(q, static_cast<unsigned char>(byte)) == q,
                    "whitespace must self-loop in the fused table");
    }
  }
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
  // Whitespace self-loops, so the stage-1 index walks straight to the
  // structural bytes and the table never sees the rest.
  ForEachStructural(bytes.data(), bytes.size(), [&](size_t i) {
    unsigned char byte = static_cast<unsigned char>(bytes[i]);
    state = table[static_cast<size_t>(state) * 256 + byte];
    selected += static_cast<int64_t>((byte >= 'a') & (byte <= 'z') &
                                     accepting_[state]);
  });
  return selected;
}

int64_t ByteTagDfaRunner::CountSelections(std::string_view bytes) const {
  return uses_compact_table() ? CountSelectionsIndexed(table16_.data(), bytes)
                              : CountSelectionsIndexed(table32_.data(), bytes);
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

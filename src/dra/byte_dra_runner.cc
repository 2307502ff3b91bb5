#include "dra/byte_dra_runner.h"

#include "base/byte_scan.h"
#include "base/check.h"

namespace sst {

namespace {

constexpr const char* kNotCompact =
    "byte-level DRA entry points require single lowercase-letter labels";

}  // namespace

ByteDraRunner::ByteDraRunner(const Dra* dra, const Alphabet& alphabet)
    : dra_(dra),
      num_states_(dra->num_states),
      num_symbols_(dra->num_symbols),
      num_registers_(dra->num_registers),
      num_codes_(dra->NumCmpCodes()) {
  SST_CHECK_MSG(IsRestricted(*dra),
                "fused byte execution requires a restricted DRA");
  SST_CHECK(num_registers_ <= Dra::kMaxRegisters);
  for (int r = 0, p = 1; r < num_registers_; ++r, p *= 3) {
    pow3_[static_cast<size_t>(r)] = p;
  }
  byte_symbol_.fill(-1);
  compact_labels_ = alphabet.CompactLabels(num_symbols_);
  for (Symbol a = 0; compact_labels_ && a < num_symbols_; ++a) {
    const unsigned char letter =
        static_cast<unsigned char>(alphabet.LabelOf(a)[0]);
    byte_symbol_[letter] = a;
    byte_symbol_[letter - 'a' + 'A'] = a;
  }
  accepting_.assign(num_states_, 0);
  sleepy_.assign(num_states_, 0);
  for (int q = 0; q < num_states_; ++q) {
    accepting_[q] = dra->accepting[q] ? 1 : 0;
    bool sleepy = !dra->accepting[q];
    for (int close = 0; sleepy && close < 2; ++close) {
      for (Symbol a = 0; sleepy && a < num_symbols_; ++a) {
        const Dra::Action& action = dra->At(q, close != 0, a, 0);
        sleepy = action.load_mask == 0 && action.next == q;
      }
    }
    sleepy_[q] = sleepy ? 1 : 0;
  }
  if (num_states_ < 65536) {
    FillTables(&open_next16_, &close_next16_);
  } else {
    FillTables(&open_next32_, &close_next32_);
  }
}

__attribute__((noinline)) ByteDraRunner::Armed ByteDraRunner::StepAwake(
    DraConfig* config, int64_t depth, bool open, Symbol symbol) const {
  config->depth = depth;
  if (open) {
    StepOpen(config, symbol);
  } else {
    StepClose(config, symbol < 0 ? 0 : symbol);
  }
  return Arm(*config);
}

template <typename T>
void ByteDraRunner::FillTables(std::vector<T>* open_next,
                               std::vector<T>* close_next) {
  const size_t open_rows =
      static_cast<size_t>(num_states_) * static_cast<size_t>(num_symbols_);
  open_next->assign(open_rows, 0);
  open_load_.assign(open_rows, 0);
  close_next->assign(open_rows * static_cast<size_t>(num_codes_), 0);
  close_load_.assign(open_rows * static_cast<size_t>(num_codes_), 0);
  for (int q = 0; q < num_states_; ++q) {
    for (Symbol a = 0; a < num_symbols_; ++a) {
      const size_t open_index =
          static_cast<size_t>(q) * num_symbols_ + a;
      // Restricted invariant: the comparison vector on opening tags is
      // all-kLess (code 0); the other 3^r - 1 rows of the explicit table
      // are unreachable and simply dropped.
      const Dra::Action& open = dra_->At(q, /*is_close=*/false, a, 0);
      (*open_next)[open_index] = static_cast<T>(open.next);
      open_load_[open_index] = static_cast<uint16_t>(open.load_mask);
      for (int code = 0; code < num_codes_; ++code) {
        const Dra::Action& close = dra_->At(q, /*is_close=*/true, a, code);
        const size_t close_index = open_index * num_codes_ + code;
        (*close_next)[close_index] = static_cast<T>(close.next);
        close_load_[close_index] = static_cast<uint16_t>(close.load_mask);
      }
    }
  }
}

DraConfig ByteDraRunner::InitialConfig() const {
  DraConfig config;
  config.state = dra_->initial;
  return config;
}

int64_t ByteDraRunner::CountSelectionsPerByte(std::string_view bytes) const {
  SST_CHECK_MSG(compact_labels_, kNotCompact);
  DraConfig config = InitialConfig();
  int64_t selected = 0;
  for (unsigned char byte : bytes) selected += StepByte(&config, byte);
  return selected;
}

int64_t ByteDraRunner::CountSelections(std::string_view bytes) const {
  SST_CHECK_MSG(compact_labels_, kNotCompact);
  DraConfig config = InitialConfig();
  int64_t selected = 0;
  // Structural-index walk: whitespace gaps leave the configuration and the
  // count untouched, so the automaton only ever sees structural bytes.
  ForEachStructural(bytes.data(), bytes.size(), [&](size_t i) {
    selected += StepByte(&config, static_cast<unsigned char>(bytes[i]));
  });
  return selected;
}

}  // namespace sst

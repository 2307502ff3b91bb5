#include "dra/dra.h"

#include <algorithm>
#include <utility>

#include "base/check.h"

namespace sst {

namespace {

int Pow3(int n) {
  int r = 1;
  for (int i = 0; i < n; ++i) r *= 3;
  return r;
}

}  // namespace

Dra Dra::Create(int num_states, int num_symbols, int num_registers) {
  SST_CHECK(num_registers >= 0 && num_registers <= kMaxRegisters);
  Dra dra;
  dra.num_states = num_states;
  dra.num_symbols = num_symbols;
  dra.num_registers = num_registers;
  dra.accepting.assign(num_states, false);
  dra.table.assign(static_cast<size_t>(num_states) * 2 * num_symbols *
                       Pow3(num_registers),
                   Action{});
  return dra;
}

int Dra::NumCmpCodes() const { return Pow3(num_registers); }

int Dra::CmpDigit(int cmp_code, int reg) {
  for (int i = 0; i < reg; ++i) cmp_code /= 3;
  return cmp_code % 3;
}

int Dra::WithCmpDigit(int cmp_code, int reg, int digit) {
  int place = 1;
  for (int i = 0; i < reg; ++i) place *= 3;
  int old = (cmp_code / place) % 3;
  return cmp_code + (digit - old) * place;
}

size_t Dra::Index(int state, bool is_close, Symbol symbol,
                  int cmp_code) const {
  return ((static_cast<size_t>(state) * 2 + (is_close ? 1 : 0)) *
              num_symbols +
          symbol) *
             NumCmpCodes() +
         cmp_code;
}

void Dra::SetAction(int state, bool is_close, Symbol symbol,
                    const std::vector<int>& cmp_pattern, uint32_t load_mask,
                    int next) {
  SST_CHECK(static_cast<int>(cmp_pattern.size()) == num_registers);
  for (int code = 0; code < NumCmpCodes(); ++code) {
    bool matches = true;
    for (int r = 0; r < num_registers && matches; ++r) {
      if (cmp_pattern[r] >= 0 && CmpDigit(code, r) != cmp_pattern[r]) {
        matches = false;
      }
    }
    if (matches) At(state, is_close, symbol, code) = Action{load_mask, next};
  }
}

bool IsRestricted(const Dra& dra) {
  for (int q = 0; q < dra.num_states; ++q) {
    for (int close = 0; close < 2; ++close) {
      for (Symbol a = 0; a < dra.num_symbols; ++a) {
        for (int code = 0; code < dra.NumCmpCodes(); ++code) {
          const Dra::Action& action = dra.At(q, close != 0, a, code);
          for (int r = 0; r < dra.num_registers; ++r) {
            if (Dra::CmpDigit(code, r) == Dra::kGreater &&
                (action.load_mask & (uint32_t{1} << r)) == 0) {
              return false;
            }
          }
        }
      }
    }
  }
  return true;
}

namespace {

template <typename AcceptFn>
Dra ProductDra(const Dra& a, const Dra& b, AcceptFn want) {
  SST_CHECK(a.num_symbols == b.num_symbols);
  const int ra = a.num_registers;
  const int rb = b.num_registers;
  SST_CHECK(ra + rb <= Dra::kMaxRegisters);
  Dra result = Dra::Create(a.num_states * b.num_states, a.num_symbols,
                           ra + rb);
  auto pack = [&](int p, int q) { return p * b.num_states + q; };
  result.initial = pack(a.initial, b.initial);
  const int codes_a = a.NumCmpCodes();
  const int codes_b = b.NumCmpCodes();
  for (int p = 0; p < a.num_states; ++p) {
    for (int q = 0; q < b.num_states; ++q) {
      int pq = pack(p, q);
      result.accepting[pq] = want(a.accepting[p], b.accepting[q]);
      for (int close = 0; close < 2; ++close) {
        for (Symbol s = 0; s < a.num_symbols; ++s) {
          for (int ca = 0; ca < codes_a; ++ca) {
            for (int cb = 0; cb < codes_b; ++cb) {
              // Combined code: a's registers are the low digits.
              int code = ca + cb * codes_a;
              const Dra::Action& act_a = a.At(p, close != 0, s, ca);
              const Dra::Action& act_b = b.At(q, close != 0, s, cb);
              uint32_t mask = act_a.load_mask |
                              (act_b.load_mask << ra);
              result.At(pq, close != 0, s, code) =
                  Dra::Action{mask, pack(act_a.next, act_b.next)};
            }
          }
        }
      }
    }
  }
  return result;
}

}  // namespace

Dra DraIntersection(const Dra& a, const Dra& b) {
  return ProductDra(a, b, [](bool x, bool y) { return x && y; });
}

Dra DraUnion(const Dra& a, const Dra& b) {
  return ProductDra(a, b, [](bool x, bool y) { return x || y; });
}

Dra DraComplement(const Dra& a) {
  Dra result = a;
  for (int q = 0; q < result.num_states; ++q) {
    result.accepting[q] = !result.accepting[q];
  }
  return result;
}

Dra DraFromTagDfa(const TagDfa& dfa) {
  Dra dra = Dra::Create(dfa.num_states, dfa.num_symbols, 0);
  dra.initial = dfa.initial;
  for (int q = 0; q < dfa.num_states; ++q) {
    dra.accepting[q] = dfa.accepting[q];
    for (Symbol a = 0; a < dfa.num_symbols; ++a) {
      dra.At(q, false, a, 0) = Dra::Action{0, dfa.NextOpen(q, a)};
      dra.At(q, true, a, 0) = Dra::Action{0, dfa.NextClose(q, a)};
    }
  }
  return dra;
}

DraRunner::DraRunner(const Dra* dra) : dra_(dra) { Reset(); }

void DraRunner::Reset() {
  state_ = dra_->initial;
  depth_ = 0;
  registers_.assign(dra_->num_registers, 0);
}

DraConfig DraRunner::ExportedDraConfig() const {
  DraConfig config;
  config.state = state_;
  config.depth = depth_;
  for (int r = 0; r < dra_->num_registers; ++r) {
    config.registers[static_cast<size_t>(r)] = registers_[r];
  }
  return config;
}

void DraRunner::SyncExportedDraConfig(const DraConfig& config) {
  state_ = config.state;
  depth_ = config.depth;
  for (int r = 0; r < dra_->num_registers; ++r) {
    registers_[r] = config.registers[static_cast<size_t>(r)];
  }
}

bool DraRunner::SaveConfig(std::vector<int64_t>* out) {
  out->clear();
  out->push_back(state_);
  out->push_back(depth_);
  out->insert(out->end(), registers_.begin(), registers_.end());
  return true;
}

bool DraRunner::RestoreConfig(const std::vector<int64_t>& config) {
  if (config.size() != 2 + registers_.size()) return false;
  state_ = static_cast<int>(config[0]);
  depth_ = config[1];
  std::copy(config.begin() + 2, config.end(), registers_.begin());
  return true;
}

bool DraRunner::ConfigEqualsCurrent(const std::vector<int64_t>& config) const {
  if (config.size() != 2 + registers_.size()) return false;
  if (config[0] != state_ || config[1] != depth_) return false;
  return std::equal(config.begin() + 2, config.end(), registers_.begin());
}

void DraRunner::Step(Symbol symbol, bool is_close) {
  depth_ += is_close ? -1 : 1;
  int code = 0;
  int place = 1;
  for (int r = 0; r < dra_->num_registers; ++r) {
    int digit = registers_[r] < depth_   ? Dra::kLess
                : registers_[r] == depth_ ? Dra::kEqual
                                          : Dra::kGreater;
    code += digit * place;
    place *= 3;
  }
  // Term's universal close (-1) reads column 0, as every fused stepper
  // does; a term-blind DRA's close columns all agree.
  const Dra::Action& action =
      dra_->At(state_, is_close, symbol < 0 ? 0 : symbol, code);
  for (int r = 0; r < dra_->num_registers; ++r) {
    if (action.load_mask & (uint32_t{1} << r)) registers_[r] = depth_;
  }
  state_ = action.next;
}

}  // namespace sst

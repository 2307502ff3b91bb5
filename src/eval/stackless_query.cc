#include "eval/stackless_query.h"

#include <algorithm>
#include <map>
#include <utility>

#include "automata/relations.h"
#include "base/check.h"

namespace sst {

namespace {

// Builds the backtrack table shared by the interpreter and the
// materializer. Non-blind: revert[p * k + a]; blind: revert[p].
std::vector<int> BuildRevertTable(const Dfa& dfa, const SccInfo& scc,
                                  bool blind) {
  const int n = dfa.num_states;
  const int k = dfa.num_symbols;
  std::vector<int> revert(static_cast<size_t>(n) * (blind ? 1 : k), -1);
  for (int p = 0; p < n; ++p) {
    int component = scc.component_of[p];
    const std::vector<int>& members = scc.members[component];
    if (blind) {
      for (int candidate : members) {  // members are sorted ascending
        bool ok = false;
        for (Symbol a = 0; a < k && !ok; ++a) {
          int succ = dfa.Next(candidate, a);
          ok = scc.component_of[succ] == component &&
               AlmostEquivalentStates(dfa, succ, p);
        }
        if (ok) {
          revert[p] = candidate;
          break;
        }
      }
    } else {
      for (Symbol a = 0; a < k; ++a) {
        for (int candidate : members) {
          int succ = dfa.Next(candidate, a);
          if (scc.component_of[succ] == component &&
              AlmostEquivalentStates(dfa, succ, p)) {
            revert[static_cast<size_t>(p) * k + a] = candidate;
            break;
          }
        }
      }
    }
  }
  return revert;
}

}  // namespace

StacklessBlueprint StacklessBlueprint::Build(const Dfa& minimal_dfa,
                                             bool blind) {
  StacklessBlueprint blueprint;
  blueprint.dfa = minimal_dfa;
  blueprint.blind = blind;
  blueprint.scc = ComputeScc(blueprint.dfa);
  blueprint.revert = BuildRevertTable(blueprint.dfa, blueprint.scc, blind);
  blueprint.max_chain = std::max(0, LongestChainLength(blueprint.scc) - 1);
  return blueprint;
}

StacklessQueryEvaluator::StacklessQueryEvaluator(const Dfa& minimal_dfa,
                                                 bool blind)
    : owned_blueprint_(std::make_unique<StacklessBlueprint>(
          StacklessBlueprint::Build(minimal_dfa, blind))),
      blueprint_(owned_blueprint_.get()) {
  Reset();
}

StacklessQueryEvaluator::StacklessQueryEvaluator(
    const StacklessBlueprint* blueprint)
    : blueprint_(blueprint) {
  chain_scc_.reserve(blueprint_->max_chain);
  chain_witness_.reserve(blueprint_->max_chain);
  chain_depth_.reserve(blueprint_->max_chain);
  Reset();
}

void StacklessQueryEvaluator::Reset() {
  dead_ = false;
  witness_ = blueprint_->dfa.initial;
  current_scc_ = blueprint_->scc.component_of[witness_];
  depth_ = 0;
  chain_scc_.clear();
  chain_witness_.clear();
  chain_depth_.clear();
}

void StacklessQueryEvaluator::OnOpen(Symbol symbol) {
  ++depth_;
  if (dead_) return;
  int next = blueprint_->dfa.Next(witness_, symbol);
  int next_scc = blueprint_->scc.component_of[next];
  if (next_scc != current_scc_) {
    chain_scc_.push_back(current_scc_);
    chain_witness_.push_back(witness_);
    chain_depth_.push_back(depth_);
    current_scc_ = next_scc;
  }
  witness_ = next;
}

void StacklessQueryEvaluator::OnClose(Symbol symbol) {
  --depth_;
  if (dead_) return;
  if (!chain_depth_.empty() && depth_ < chain_depth_.back()) {
    // The previous state of the simulated run belongs to the remembered
    // SCC; revert to its witness and free the register.
    current_scc_ = chain_scc_.back();
    witness_ = chain_witness_.back();
    chain_scc_.pop_back();
    chain_witness_.pop_back();
    chain_depth_.pop_back();
    return;
  }
  int target = Revert(witness_, blueprint_->blind ? 0 : symbol);
  if (target < 0) {
    dead_ = true;
    return;
  }
  witness_ = target;
}

bool StacklessQueryEvaluator::InAcceptingState() const {
  return !dead_ && blueprint_->dfa.accepting[witness_];
}

bool StacklessQueryEvaluator::SaveConfig(std::vector<int64_t>* out) {
  out->clear();
  out->push_back(dead_ ? 1 : 0);
  out->push_back(witness_);
  out->push_back(current_scc_);
  out->push_back(depth_);
  out->push_back(static_cast<int64_t>(chain_scc_.size()));
  for (size_t i = 0; i < chain_scc_.size(); ++i) {
    out->push_back(chain_scc_[i]);
    out->push_back(chain_witness_[i]);
    out->push_back(chain_depth_[i]);
  }
  return true;
}

bool StacklessQueryEvaluator::RestoreConfig(
    const std::vector<int64_t>& config) {
  if (config.size() < 5) return false;
  const size_t chain = static_cast<size_t>(config[4]);
  if (config.size() != 5 + 3 * chain) return false;
  dead_ = config[0] != 0;
  witness_ = static_cast<int>(config[1]);
  current_scc_ = static_cast<int>(config[2]);
  depth_ = config[3];
  chain_scc_.resize(chain);
  chain_witness_.resize(chain);
  chain_depth_.resize(chain);
  for (size_t i = 0; i < chain; ++i) {
    chain_scc_[i] = static_cast<int>(config[5 + 3 * i]);
    chain_witness_[i] = static_cast<int>(config[5 + 3 * i + 1]);
    chain_depth_[i] = config[5 + 3 * i + 2];
  }
  return true;
}

bool StacklessQueryEvaluator::ConfigEqualsCurrent(
    const std::vector<int64_t>& config) const {
  if (config.size() != 5 + 3 * chain_scc_.size()) return false;
  if ((config[0] != 0) != dead_ || config[1] != witness_ ||
      config[2] != current_scc_ || config[3] != depth_ ||
      config[4] != static_cast<int64_t>(chain_scc_.size())) {
    return false;
  }
  for (size_t i = 0; i < chain_scc_.size(); ++i) {
    if (config[5 + 3 * i] != chain_scc_[i] ||
        config[5 + 3 * i + 1] != chain_witness_[i] ||
        config[5 + 3 * i + 2] != chain_depth_[i]) {
      return false;
    }
  }
  return true;
}

namespace {

// Control state of the materialized machine.
struct ControlState {
  bool dead = false;
  int witness = 0;
  int current_scc = 0;
  // Parallel chains, bottom..top.
  std::vector<int> chain_scc;
  std::vector<int> chain_witness;

  std::vector<int> Key() const {
    std::vector<int> key;
    key.push_back(dead ? 1 : 0);
    key.push_back(witness);
    key.push_back(current_scc);
    for (size_t i = 0; i < chain_scc.size(); ++i) {
      key.push_back(chain_scc[i]);
      key.push_back(chain_witness[i]);
    }
    return key;
  }
};

}  // namespace

std::optional<Dra> MaterializeStacklessQueryDra(const Dfa& minimal_dfa,
                                                bool blind, int max_states) {
  StacklessQueryEvaluator spec(minimal_dfa, blind);
  const Dfa& dfa = spec.dfa();
  const SccInfo& scc = spec.scc();
  const int num_registers = spec.num_registers();
  if (num_registers > Dra::kMaxRegisters) return std::nullopt;

  std::map<std::vector<int>, int> id;
  std::vector<ControlState> states;
  auto intern = [&](const ControlState& s) {
    auto [it, inserted] = id.emplace(s.Key(), static_cast<int>(states.size()));
    if (inserted) states.push_back(s);
    return it->second;
  };

  ControlState start;
  start.witness = dfa.initial;
  start.current_scc = scc.component_of[dfa.initial];
  ControlState dead_state;
  dead_state.dead = true;
  const int start_id = intern(start);
  const int dead_id = intern(dead_state);

  const int num_symbols = dfa.num_symbols;
  int num_codes = 1;
  for (int i = 0; i < num_registers; ++i) num_codes *= 3;
  // Restrictedness (Section 2.2): every action reloads the registers that
  // read strictly greater than the current depth. In reachable
  // configurations chain depths increase bottom-to-top and the machine
  // pops as soon as the top exceeds the depth, so the only register this
  // can hit is a just-freed top (whose value is never read again) or
  // registers in unreachable comparison codes — either way the simulation
  // is unaffected. greater[code] is that reload set.
  std::vector<uint32_t> greater(static_cast<size_t>(num_codes), 0);
  for (int code = 0; code < num_codes; ++code) {
    for (int r = 0; r < num_registers; ++r) {
      if (Dra::CmpDigit(code, r) == Dra::kGreater) {
        greater[static_cast<size_t>(code)] |= uint32_t{1} << r;
      }
    }
  }

  // The successor depends on the comparison code only through the top
  // live register's digit, which decides a close's pop: each (state,
  // polarity, symbol) interns at most two successors, and the 3^r code
  // columns are filled from them. Code 0 (no pop) interns first, exactly
  // as a per-code walk would, so state ids follow the same BFS order.
  std::vector<Dra::Action> table;  // filled in state order
  for (size_t index = 0; index < states.size(); ++index) {
    if (static_cast<int>(states.size()) > max_states) return std::nullopt;
    // Copy: `states` may grow (and reallocate) during interning below.
    const ControlState current = states[index];
    const int live = static_cast<int>(current.chain_scc.size());
    for (int close = 0; close < 2; ++close) {
      for (Symbol a = 0; a < num_symbols; ++a) {
        int stay = dead_id;
        uint32_t stay_loads = 0;
        int pop = -1;
        if (current.dead) {
          // stay dead
        } else if (close == 0) {
          ControlState next = current;
          const int succ = dfa.Next(current.witness, a);
          const int succ_scc = scc.component_of[succ];
          if (succ_scc != current.current_scc) {
            next.chain_scc.push_back(current.current_scc);
            next.chain_witness.push_back(current.witness);
            next.current_scc = succ_scc;
            stay_loads = uint32_t{1} << live;
          }
          next.witness = succ;
          stay = intern(next);
        } else {
          const int target = spec.Revert(current.witness, blind ? 0 : a);
          if (target >= 0) {
            ControlState next = current;
            next.witness = target;
            stay = intern(next);
          }
          if (live > 0) {
            ControlState next = current;
            next.current_scc = next.chain_scc.back();
            next.witness = next.chain_witness.back();
            next.chain_scc.pop_back();
            next.chain_witness.pop_back();
            pop = intern(next);
          }
        }
        const uint32_t top_bit = live > 0 ? uint32_t{1} << (live - 1) : 0;
        for (int code = 0; code < num_codes; ++code) {
          const uint32_t loads = greater[static_cast<size_t>(code)];
          const bool pops = pop >= 0 && (loads & top_bit) != 0;
          table.push_back(
              Dra::Action{pops ? loads : stay_loads | loads, pops ? pop : stay});
        }
      }
    }
  }

  Dra dra = Dra::Create(static_cast<int>(states.size()), num_symbols,
                        num_registers);
  dra.initial = start_id;
  dra.table = std::move(table);
  SST_CHECK(dra.table.size() == static_cast<size_t>(dra.num_states) * 2 *
                                    num_symbols * num_codes);
  for (size_t i = 0; i < states.size(); ++i) {
    dra.accepting[i] = !states[i].dead && dfa.accepting[states[i].witness];
  }
  return dra;
}

}  // namespace sst

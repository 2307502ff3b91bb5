#include "dra/product_stepper.h"

#include <algorithm>

namespace sst {

void DraSideCars::Rearm(int64_t depth) {
  bool all_asleep = true;
  int64_t gate = 0;
  accepting = false;
  for (size_t j = 0; j < size; ++j) {
    all_asleep = all_asleep && runners[j]->IsSleepy(configs[j].state);
    gate = std::max(gate, runners[j]->Gate(configs[j]));
    accepting = accepting || runners[j]->IsAccepting(configs[j].state);
  }
  slack = all_asleep ? depth - gate : kAwake;
  base = all_asleep ? gate : depth;
}

__attribute__((noinline)) DraSideCars::Armed DraSideCars::Wake(
    bool open, Symbol symbol) {
  const int64_t now = depth();
  const int64_t next = now + (open ? 1 : -1);
  for (size_t j = 0; j < size; ++j) {
    const ByteDraRunner& runner = *runners[j];
    DraConfig& config = configs[j];
    if (!runner.IsSleepy(config.state) ||
        (!open && next <= runner.Gate(config))) {
      // Awake, or woken by this close: a sleeping side-car's depth is
      // stale, so resync it before the step.
      config.depth = now;
      if (open) {
        runner.StepOpen(&config, symbol);
      } else {
        runner.StepClose(&config, symbol);
      }
      counts[j] += static_cast<int64_t>(
          open && runner.IsAccepting(config.state));
    }
  }
  Rearm(next);
  return {slack, accepting};
}

ProductRows ProductRows::Build(const TagDfa& dfa) {
  ProductRows rows;
  rows.num_symbols = dfa.num_symbols;
  rows.width = 2 * dfa.num_symbols + 1;
  rows.initial = dfa.initial;
  rows.next.resize(static_cast<size_t>(dfa.num_states) * rows.width);
  rows.accepting.resize(static_cast<size_t>(dfa.num_states));
  for (int state = 0; state < dfa.num_states; ++state) {
    int32_t* row = rows.next.data() + static_cast<size_t>(state) * rows.width;
    for (Symbol a = 0; a < dfa.num_symbols; ++a) {
      row[a] = dfa.NextOpen(state, a);
      row[dfa.num_symbols + a] = dfa.NextClose(state, a);
    }
    row[rows.noop_column()] = state;
    rows.accepting[static_cast<size_t>(state)] = dfa.accepting[state] ? 1 : 0;
  }
  return rows;
}

}  // namespace sst

#include "dra/product_stepper.h"

namespace sst {

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

#ifndef SST_AUTOMATA_PRODUCT_H_
#define SST_AUTOMATA_PRODUCT_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "automata/selection_mask.h"
#include "base/check.h"

namespace sst {

// Output-annotated N-ary product of deterministic automata over a paired
// tag alphabet (one opening and one closing letter per symbol — the shape
// of the paper's TagDfa). Closure of registerless queries under product
// (Lemma 2.4) means a batch of N query automata fuses into ONE automaton
// whose states carry an N-bit SelectionMask: bit i of the mask of the
// state reached after a node's opening tag answers "does query i select
// this node?", so all N queries are answered in a single pass.
//
// The component type A must expose the TagDfa field/method surface:
// num_states, num_symbols, initial, NextOpen(q, a), NextClose(q, a) and
// accepting[q]. Everything here is generic over that concept so the
// construction lives with the rest of the automata algebra; dra
// instantiates it for TagDfa.
//
// The construction is BuildEagerPairedProduct: a bounded BFS
// materialization of every reachable product state up front. The table
// can be fused into a single 256-entry byte table. It returns nullopt
// when the reachable product exceeds the state cap, and the caller splits
// the batch into smaller products.

// Flat transition table of an eagerly built product. Letters are indexed
// open-first: letter a in [0, num_symbols) is the opening tag of symbol a,
// letter num_symbols + a its closing tag.
struct PairedProductTable {
  int arity = 0;        // number of component automata (mask width)
  int num_states = 0;   // reachable product states
  int num_symbols = 0;  // |Γ| shared by all components
  int initial = 0;
  std::vector<int32_t> next;        // num_states * 2 * num_symbols
  std::vector<SelectionMask> masks;  // per state: accepting components
  std::vector<int32_t> tuples;      // num_states * arity component states

  int Next(int state, int letter) const {
    return next[static_cast<size_t>(state) * 2 * num_symbols + letter];
  }
};

namespace product_internal {

struct TupleHash {
  size_t operator()(const std::vector<int32_t>& tuple) const {
    size_t hash = 14695981039346656037ull;
    for (int32_t value : tuple) {
      hash ^= static_cast<uint32_t>(value);
      hash *= 1099511628211ull;
    }
    return hash;
  }
};

template <typename A>
SelectionMask MaskOfTuple(const std::vector<const A*>& components,
                          const int32_t* tuple) {
  SelectionMask mask(static_cast<int>(components.size()));
  for (size_t i = 0; i < components.size(); ++i) {
    if (components[i]->accepting[tuple[i]]) mask.Set(static_cast<int>(i));
  }
  return mask;
}

}  // namespace product_internal

// BFS over the reachable product; nullopt once more than `state_cap`
// states materialize. All components must share num_symbols.
template <typename A>
std::optional<PairedProductTable> BuildEagerPairedProduct(
    const std::vector<const A*>& components, int state_cap) {
  SST_CHECK(!components.empty());
  const int arity = static_cast<int>(components.size());
  const int num_symbols = components[0]->num_symbols;
  for (const A* component : components) {
    SST_CHECK_MSG(component->num_symbols == num_symbols,
                  "product components must share one tag alphabet");
  }
  const int width = 2 * num_symbols;

  PairedProductTable table;
  table.arity = arity;
  table.num_symbols = num_symbols;
  table.initial = 0;

  std::unordered_map<std::vector<int32_t>, int, product_internal::TupleHash>
      index;
  std::vector<int32_t> tuple(static_cast<size_t>(arity));
  for (int i = 0; i < arity; ++i) tuple[i] = components[i]->initial;
  index.emplace(tuple, 0);
  table.tuples.insert(table.tuples.end(), tuple.begin(), tuple.end());
  table.masks.push_back(
      product_internal::MaskOfTuple(components, tuple.data()));
  table.num_states = 1;

  for (int state = 0; state < table.num_states; ++state) {
    table.next.resize(static_cast<size_t>(state + 1) * width);
    for (int letter = 0; letter < width; ++letter) {
      const int32_t* from =
          table.tuples.data() + static_cast<size_t>(state) * arity;
      for (int i = 0; i < arity; ++i) {
        tuple[i] = letter < num_symbols
                       ? components[i]->NextOpen(from[i], letter)
                       : components[i]->NextClose(from[i],
                                                  letter - num_symbols);
      }
      auto [it, inserted] = index.emplace(tuple, table.num_states);
      if (inserted) {
        if (table.num_states >= state_cap) return std::nullopt;
        table.tuples.insert(table.tuples.end(), tuple.begin(), tuple.end());
        table.masks.push_back(
            product_internal::MaskOfTuple(components, tuple.data()));
        ++table.num_states;
      }
      table.next[static_cast<size_t>(state) * width + letter] = it->second;
    }
  }
  return table;
}

}  // namespace sst

#endif  // SST_AUTOMATA_PRODUCT_H_

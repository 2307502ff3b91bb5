#ifndef SST_AUTOMATA_SELECTION_MASK_H_
#define SST_AUTOMATA_SELECTION_MASK_H_

#include <cstdint>
#include <vector>

namespace sst {

// N-bit selection bitmask annotating a product-automaton state: bit i is
// set iff component automaton i is in an accepting state. Batches of up to
// 64 queries — the overwhelmingly common case — live in a single inline
// uint64_t with no heap storage (word() exposes it so hot loops can strip
// the abstraction entirely); larger batches spill the bits past 63 into a
// dynamically sized tail. All operations branch once on which layout is
// active.
class SelectionMask {
 public:
  SelectionMask() = default;

  // A mask of `num_bits` zero bits. Allocates only when num_bits > 64.
  explicit SelectionMask(int num_bits)
      : extra_(num_bits > 64 ? (static_cast<size_t>(num_bits) + 63) / 64 - 1
                             : 0) {}

  void Set(int bit) {
    if (bit < 64) {
      bits_ |= uint64_t{1} << bit;
    } else {
      extra_[static_cast<size_t>(bit) / 64 - 1] |=
          uint64_t{1} << (static_cast<size_t>(bit) % 64);
    }
  }

  bool Test(int bit) const {
    if (bit < 64) return (bits_ >> bit) & 1;
    size_t slot = static_cast<size_t>(bit) / 64 - 1;
    if (slot >= extra_.size()) return false;
    return (extra_[slot] >> (static_cast<size_t>(bit) % 64)) & 1;
  }

  bool Any() const {
    if (bits_ != 0) return true;
    for (uint64_t word : extra_) {
      if (word != 0) return true;
    }
    return false;
  }

  int Count() const {
    int count = Popcount(bits_);
    for (uint64_t word : extra_) count += Popcount(word);
    return count;
  }

  // The fast-path word (bits 0..63). Masks of at most 64 bits are fully
  // described by it, which lets byte-scan loops precompute a flat
  // vector<uint64_t> and never touch the tail.
  uint64_t word() const { return bits_; }
  bool narrow() const { return extra_.empty(); }

  // counts[i] += times for every set bit i — the accumulation step of
  // multi-query selection counting (`times` nodes selected by this mask).
  void AccumulateInto(int64_t* counts, int64_t times = 1) const {
    AccumulateWord(bits_, 0, times, counts);
    for (size_t slot = 0; slot < extra_.size(); ++slot) {
      AccumulateWord(extra_[slot], (static_cast<int>(slot) + 1) * 64, times,
                     counts);
    }
  }

  // Appends every set bit index, ascending — the per-node fan-out step of
  // multi-query match-event emission (one MatchEvent per selecting query).
  void AppendSetBits(std::vector<int32_t>* out) const {
    AppendWord(bits_, 0, out);
    for (size_t slot = 0; slot < extra_.size(); ++slot) {
      AppendWord(extra_[slot], (static_cast<int>(slot) + 1) * 64, out);
    }
  }

  friend bool operator==(const SelectionMask&, const SelectionMask&) = default;

 private:
  static int Popcount(uint64_t word) {
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_popcountll(word);
#else
    int count = 0;
    for (; word != 0; word &= word - 1) ++count;
    return count;
#endif
  }

  static int CountTrailingZeros(uint64_t word) {
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_ctzll(word);
#else
    int bit = 0;
    while (((word >> bit) & 1) == 0) ++bit;
    return bit;
#endif
  }

  static void AccumulateWord(uint64_t word, int base, int64_t times,
                             int64_t* counts) {
    for (; word != 0; word &= word - 1) {
      counts[base + CountTrailingZeros(word)] += times;
    }
  }

  static void AppendWord(uint64_t word, int base, std::vector<int32_t>* out) {
    for (; word != 0; word &= word - 1) {
      out->push_back(static_cast<int32_t>(base + CountTrailingZeros(word)));
    }
  }

  uint64_t bits_ = 0;           // bits 0..63 (the only storage when N <= 64)
  std::vector<uint64_t> extra_;  // bits 64.. for wide batches; usually empty
};

}  // namespace sst

#endif  // SST_AUTOMATA_SELECTION_MASK_H_

#ifndef SST_AUTOMATA_ALPHABET_H_
#define SST_AUTOMATA_ALPHABET_H_

#include <array>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace sst {

// Symbols are dense non-negative integers in [0, size()). The Alphabet maps
// human-readable labels (XML element names, JSON keys, single letters) to
// symbols and back. Automata only carry the alphabet size; labels are needed
// at parse/print boundaries.
using Symbol = int;

class Alphabet {
 public:
  Alphabet() = default;

  // Convenience: one symbol per character of `letters`, in order.
  // E.g. Alphabet::FromLetters("abc") gives a=0, b=1, c=2.
  static Alphabet FromLetters(std::string_view letters);

  // Returns the symbol for `label`, interning it if new.
  Symbol Intern(std::string_view label);

  // Returns the symbol for `label`, or -1 if unknown.
  Symbol Find(std::string_view label) const;

  // Byte→symbol export for table-driven byte scanners: entry b is the
  // symbol whose label is exactly the one-byte string {b}, or -1 if no
  // such label is interned. Hot loops precompute this once instead of
  // calling Find per input byte.
  std::array<Symbol, 256> ByteSymbolTable() const;

  // True when each of the first `count` symbols (every symbol by default)
  // is labelled by one lowercase letter 'a'..'z': the compact markup
  // serialization that the fused byte tables key by the raw byte opens
  // such a symbol as its letter and closes it as the uppercase form.
  // False when `count` exceeds size().
  bool CompactLabels(int count = -1) const;

  const std::string& LabelOf(Symbol s) const { return labels_[s]; }
  int size() const { return static_cast<int>(labels_.size()); }

 private:
  std::vector<std::string> labels_;
  std::unordered_map<std::string, Symbol> index_;
};

// A word over an alphabet.
using Word = std::vector<Symbol>;

// Converts a string of single-character labels to a word; every character
// must already be present in the alphabet.
Word WordFromString(const Alphabet& alphabet, std::string_view text);

// Inverse of WordFromString for single-character labels (multi-character
// labels are wrapped in angle brackets).
std::string WordToString(const Alphabet& alphabet, const Word& word);

}  // namespace sst

#endif  // SST_AUTOMATA_ALPHABET_H_

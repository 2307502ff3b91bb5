#include "automata/alphabet.h"

#include "base/check.h"

namespace sst {

Alphabet Alphabet::FromLetters(std::string_view letters) {
  Alphabet result;
  for (char c : letters) result.Intern(std::string_view(&c, 1));
  return result;
}

Symbol Alphabet::Intern(std::string_view label) {
  auto it = index_.find(std::string(label));
  if (it != index_.end()) return it->second;
  Symbol s = static_cast<Symbol>(labels_.size());
  labels_.emplace_back(label);
  index_.emplace(labels_.back(), s);
  return s;
}

Symbol Alphabet::Find(std::string_view label) const {
  auto it = index_.find(std::string(label));
  return it == index_.end() ? -1 : it->second;
}

std::array<Symbol, 256> Alphabet::ByteSymbolTable() const {
  std::array<Symbol, 256> table;
  table.fill(-1);
  for (Symbol s = 0; s < size(); ++s) {
    const std::string& label = labels_[s];
    if (label.size() == 1) {
      table[static_cast<unsigned char>(label[0])] = s;
    }
  }
  return table;
}

bool Alphabet::CompactLabels(int count) const {
  if (count < 0) count = size();
  if (count > size()) return false;
  for (Symbol s = 0; s < count; ++s) {
    const std::string& label = labels_[s];
    if (label.size() != 1 || label[0] < 'a' || label[0] > 'z') return false;
  }
  return true;
}

Word WordFromString(const Alphabet& alphabet, std::string_view text) {
  Word word;
  word.reserve(text.size());
  for (char c : text) {
    Symbol s = alphabet.Find(std::string_view(&c, 1));
    SST_CHECK_MSG(s >= 0, "unknown letter in word");
    word.push_back(s);
  }
  return word;
}

std::string WordToString(const Alphabet& alphabet, const Word& word) {
  std::string out;
  for (Symbol s : word) {
    const std::string& label = alphabet.LabelOf(s);
    if (label.size() == 1) {
      out += label;
    } else {
      out += '<';
      out += label;
      out += '>';
    }
  }
  return out;
}

}  // namespace sst

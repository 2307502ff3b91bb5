#ifndef SST_QUERY_RPQ_H_
#define SST_QUERY_RPQ_H_

#include <string>
#include <string_view>

#include "automata/alphabet.h"
#include "automata/dfa.h"
#include "automata/regex.h"

namespace sst {

// A regular path query (Section 2.3): the unary query Q_L selecting every
// node whose root-to-node label word lies in the regular language L. This
// is the user-facing query object; classification and evaluator compilation
// live in core/stackless.h.
struct Rpq {
  std::string source;   // original expression, for diagnostics
  Alphabet alphabet;    // document vocabulary (fixes the wildcard)
  RegexPtr regex;
  Dfa minimal_dfa;      // minimal complete DFA of L

  // L given as a regex over the alphabet (see automata/regex.h syntax).
  static Rpq FromRegex(std::string_view pattern, const Alphabet& alphabet);

  // Vertical XPath subset: steps `/label` (child axis) and `//label`
  // (descendant axis), with `*` as the label wildcard. Examples
  // (Example 2.12):  /a//b   /a/b   //a//b   //a/b .
  // The alphabet must contain every label that can occur in documents
  // (needed to expand `//` and `*`).
  static Rpq FromXPath(std::string_view expression, const Alphabet& alphabet);

  // FromXPath's own grammar check, which does not abort: nullptr when
  // FromXPath accepts `expression` — `('/' '/'? label)+`, every label
  // other than `*` in `alphabet` — and otherwise what is wrong with it.
  // FromXPath aborts on what this reports, so a caller fed untrusted
  // queries checks first.
  static const char* CheckXPath(std::string_view expression,
                                const Alphabet& alphabet);

  // JSONPath subset: `$` followed by steps `.name` / `..name`, with `*`
  // wildcards. Examples (Example 2.12): $.a..b  $.a.b  $..a..b  $..a.b .
  static Rpq FromJsonPath(std::string_view expression,
                          const Alphabet& alphabet);
};

}  // namespace sst

#endif  // SST_QUERY_RPQ_H_

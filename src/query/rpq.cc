#include "query/rpq.h"

#include <cctype>
#include <vector>

#include "automata/minimize.h"
#include "base/check.h"

namespace sst {

namespace {

struct Step {
  bool descendant = false;  // // or .. axis
  std::string label;        // "*" for the wildcard
};

RegexPtr StepsToRegex(const std::vector<Step>& steps,
                      const Alphabet& alphabet) {
  RegexPtr regex = Regex::Epsilon();
  for (const Step& step : steps) {
    if (step.descendant) {
      regex = Regex::Concat(std::move(regex), Regex::Star(Regex::Any()));
    }
    RegexPtr label;
    if (step.label == "*") {
      label = Regex::Any();
    } else {
      Symbol symbol = alphabet.Find(step.label);
      SST_CHECK_MSG(symbol >= 0, "query label not in document alphabet");
      label = Regex::Sym(symbol);
    }
    regex = Regex::Concat(std::move(regex), std::move(label));
  }
  return regex;
}

bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
         c == '-' || c == '*';
}

// Parses `expression` into `steps`; returns nullptr, or the defect that
// stopped it.
const char* ParseXPathSteps(std::string_view expression,
                            const Alphabet& alphabet,
                            std::vector<Step>* steps) {
  if (expression.empty() || expression[0] != '/') {
    return "XPath expression must start with / or //";
  }
  size_t i = 0;
  while (i < expression.size()) {
    if (expression[i] != '/') return "expected / between XPath steps";
    Step step;
    ++i;
    if (i < expression.size() && expression[i] == '/') {
      step.descendant = true;
      ++i;
    }
    size_t start = i;
    while (i < expression.size() && IsNameChar(expression[i])) ++i;
    if (i == start) return "empty step label in XPath expression";
    step.label = std::string(expression.substr(start, i - start));
    if (step.label != "*" && alphabet.Find(step.label) < 0) {
      return "query label not in document alphabet";
    }
    steps->push_back(std::move(step));
  }
  return nullptr;
}

std::vector<Step> ParseJsonPathSteps(std::string_view expression) {
  std::vector<Step> steps;
  SST_CHECK_MSG(!expression.empty() && expression[0] == '$',
                "JSONPath expression must start with $");
  size_t i = 1;
  while (i < expression.size()) {
    SST_CHECK_MSG(expression[i] == '.', "expected . in JSONPath expression");
    Step step;
    ++i;
    if (i < expression.size() && expression[i] == '.') {
      step.descendant = true;
      ++i;
    }
    size_t start = i;
    while (i < expression.size() && IsNameChar(expression[i])) ++i;
    SST_CHECK_MSG(i > start, "empty step name in JSONPath expression");
    step.label = std::string(expression.substr(start, i - start));
    steps.push_back(std::move(step));
  }
  SST_CHECK_MSG(!steps.empty(), "JSONPath expression selects nothing");
  return steps;
}

Rpq FromSteps(std::string_view source, const std::vector<Step>& steps,
              const Alphabet& alphabet) {
  Rpq rpq;
  rpq.source = std::string(source);
  rpq.alphabet = alphabet;
  rpq.regex = StepsToRegex(steps, alphabet);
  rpq.minimal_dfa = RegexToMinimalDfa(*rpq.regex, alphabet.size());
  return rpq;
}

}  // namespace

Rpq Rpq::FromRegex(std::string_view pattern, const Alphabet& alphabet) {
  Rpq rpq;
  rpq.source = std::string(pattern);
  rpq.alphabet = alphabet;
  rpq.regex = ParseRegex(pattern, alphabet);
  rpq.minimal_dfa = RegexToMinimalDfa(*rpq.regex, alphabet.size());
  return rpq;
}

Rpq Rpq::FromXPath(std::string_view expression, const Alphabet& alphabet) {
  std::vector<Step> steps;
  const char* defect = ParseXPathSteps(expression, alphabet, &steps);
  SST_CHECK_MSG(defect == nullptr, defect);
  return FromSteps(expression, steps, alphabet);
}

const char* Rpq::CheckXPath(std::string_view expression,
                            const Alphabet& alphabet) {
  std::vector<Step> steps;
  return ParseXPathSteps(expression, alphabet, &steps);
}

Rpq Rpq::FromJsonPath(std::string_view expression, const Alphabet& alphabet) {
  return FromSteps(expression, ParseJsonPathSteps(expression), alphabet);
}

}  // namespace sst

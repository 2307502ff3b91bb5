#include "core/stackless.h"

#include <utility>

#include "base/check.h"
#include "eval/adapters.h"
#include "eval/al_recognizer.h"
#include "eval/el_synopsis.h"
#include "eval/registerless_query.h"
#include "eval/stack_evaluator.h"
#include "eval/stackless_query.h"
#include "fooling/fooling.h"

namespace sst {

namespace {

// Materialization budget for explicit recognizer automata; beyond this the
// constructions run as interpreters.
constexpr int kMaterializeBudget = 1 << 16;

// StreamMachine wrappers that own the automata they run.
class OwningTagDfaMachine final : public StreamMachine {
 public:
  explicit OwningTagDfaMachine(TagDfa dfa)
      : dfa_(std::move(dfa)), inner_(&dfa_) {}

  void Reset() override { inner_.Reset(); }
  void OnOpen(Symbol symbol) override { inner_.OnOpen(symbol); }
  void OnClose(Symbol symbol) override { inner_.OnClose(symbol); }
  bool InAcceptingState() const override { return inner_.InAcceptingState(); }

  const TagDfa* ExportTagDfa() const override { return &dfa_; }
  int ExportedState() const override { return inner_.ExportedState(); }
  void SyncExportedState(int state) override {
    inner_.SyncExportedState(state);
  }

 private:
  TagDfa dfa_;
  TagDfaMachine inner_;
};

class OwningStackMachine final : public StreamMachine {
 public:
  explicit OwningStackMachine(Dfa dfa)
      : dfa_(std::move(dfa)), inner_(&dfa_) {}

  void Reset() override { inner_.Reset(); }
  void OnOpen(Symbol symbol) override { inner_.OnOpen(symbol); }
  void OnClose(Symbol symbol) override { inner_.OnClose(symbol); }
  bool InAcceptingState() const override { return inner_.InAcceptingState(); }

 private:
  Dfa dfa_;
  StackQueryEvaluator inner_;
};

// The query machine an ExistsAdapter/ForallAdapter wraps: the stackless
// evaluator or the stack baseline (the registerless tier materializes its
// recognizer directly).
std::unique_ptr<StreamMachine> MakeQueryMachine(const Dfa& minimal,
                                                EvaluatorKind kind,
                                                bool blind) {
  if (kind == EvaluatorKind::kStackless) {
    return std::make_unique<StacklessQueryEvaluator>(minimal, blind);
  }
  SST_CHECK(kind == EvaluatorKind::kStackBaseline);
  return std::make_unique<OwningStackMachine>(minimal);
}

}  // namespace

Classification ClassifyQuery(const Rpq& rpq) {
  return Classify(rpq.minimal_dfa);
}

CompiledQuery CompileQuery(const Rpq& rpq, StreamEncoding encoding,
                           bool allow_stack_fallback) {
  // Facade-as-adapter: compile an engine QueryPlan (the shared immutable
  // artifact) and hand back one per-stream machine over it. The plan rides
  // along in the result so callers can open more streams over the same
  // compilation (engine/session.h).
  PlanOptions options;
  options.encoding = encoding;
  options.format = StreamFormat::kCompactMarkup;
  options.allow_stack_fallback = allow_stack_fallback;
  CompiledQuery result;
  result.plan = QueryPlan::Compile(rpq, options);
  result.classification = result.plan->classification();
  result.kind = result.plan->kind();
  if (!result.plan->exact()) {
    return result;  // exact = false, machine = nullptr
  }
  result.machine = result.plan->NewMachine();
  result.exact = true;
  return result;
}

CompiledQuery CompileExists(const Rpq& rpq, StreamEncoding encoding,
                            bool allow_stack_fallback) {
  const bool term = encoding == StreamEncoding::kTerm;
  CompiledQuery result;
  result.classification = ClassifyQuery(rpq);
  const Classification& c = result.classification;
  bool registerless = term ? c.blind_e_flat : c.e_flat;
  bool stackless = term ? c.blind_har : c.har;
  if (registerless) {
    result.kind = EvaluatorKind::kRegisterless;
    // Prefer the explicit table automaton (fast, branch-light); fall back
    // to the synopsis interpreter when the state space is too large.
    std::optional<TagDfa> materialized =
        MaterializeElRecognizer(rpq.minimal_dfa, term, kMaterializeBudget);
    if (materialized.has_value()) {
      result.machine =
          std::make_unique<OwningTagDfaMachine>(std::move(*materialized));
    } else {
      result.machine =
          std::make_unique<ElSynopsisRecognizer>(rpq.minimal_dfa, term);
    }
  } else if (stackless) {
    result.kind = EvaluatorKind::kStackless;
    result.machine = std::make_unique<ExistsAdapter>(
        MakeQueryMachine(rpq.minimal_dfa, EvaluatorKind::kStackless, term));
  } else if (allow_stack_fallback) {
    result.kind = EvaluatorKind::kStackBaseline;
    result.machine = std::make_unique<ExistsAdapter>(MakeQueryMachine(
        rpq.minimal_dfa, EvaluatorKind::kStackBaseline, term));
  } else {
    return result;
  }
  result.exact = true;
  return result;
}

CompiledQuery CompileForall(const Rpq& rpq, StreamEncoding encoding,
                            bool allow_stack_fallback) {
  const bool term = encoding == StreamEncoding::kTerm;
  CompiledQuery result;
  result.classification = ClassifyQuery(rpq);
  const Classification& c = result.classification;
  bool registerless = term ? c.blind_a_flat : c.a_flat;
  bool stackless = term ? c.blind_har : c.har;
  if (registerless) {
    result.kind = EvaluatorKind::kRegisterless;
    std::optional<TagDfa> materialized =
        MaterializeForallRecognizer(rpq.minimal_dfa, term,
                                    kMaterializeBudget);
    if (materialized.has_value()) {
      result.machine =
          std::make_unique<OwningTagDfaMachine>(std::move(*materialized));
    } else {
      result.machine = BuildForallRecognizer(rpq.minimal_dfa, term);
    }
  } else if (stackless) {
    result.kind = EvaluatorKind::kStackless;
    result.machine = std::make_unique<ForallAdapter>(
        MakeQueryMachine(rpq.minimal_dfa, EvaluatorKind::kStackless, term));
  } else if (allow_stack_fallback) {
    result.kind = EvaluatorKind::kStackBaseline;
    result.machine = std::make_unique<ForallAdapter>(MakeQueryMachine(
        rpq.minimal_dfa, EvaluatorKind::kStackBaseline, term));
  } else {
    return result;
  }
  result.exact = true;
  return result;
}

QueryLimitsReport ExplainQueryLimits(const Rpq& rpq) {
  QueryLimitsReport report;
  report.classification = ClassifyQuery(rpq);
  const Classification& c = report.classification;
  report.registerless = c.QueryRegisterless();
  report.stackless = c.QueryStackless();
  const Dfa& dfa = rpq.minimal_dfa;
  if (report.registerless) {
    report.summary =
        "The language is almost-reversible: a plain finite automaton "
        "evaluates the query over the markup encoding (Theorem 3.2).";
    return report;
  }
  if (!report.stackless) {
    report.summary =
        "The language is not hierarchically almost-reversible: no "
        "depth-register automaton realizes the query (Theorem 3.1). The "
        "attached trees differ on 'some branch matches' yet the Lemma 3.8 "
        "machine, run as a recognizer, returns the same verdict on both "
        "(Fig 5 / Lemma 3.16).";
    ExistsAdapter victim(
        std::make_unique<StacklessQueryEvaluator>(dfa, /*blind=*/false));
    if (std::optional<FoolingPair> pair = FoolExistsRecognizer(
            dfa, &victim, /*use_har_gadget=*/true, /*max_exponent=*/8);
        pair.has_value()) {
      report.certificate_in_el = std::move(pair->in_el);
      report.certificate_out_el = std::move(pair->out_el);
    }
    return report;
  }
  report.summary =
      "The language is HAR but not almost-reversible: a depth-register "
      "automaton evaluates the query, but no plain finite automaton does "
      "(Theorems 3.1 and 3.2).";
  if (!c.e_flat) {
    // Certificate against the finite-state tier (Lemma 3.12).
    TagDfa evaluator = BuildRegisterlessQueryAutomaton(dfa, /*blind=*/false);
    auto inner = std::make_unique<TagDfaMachine>(&evaluator);
    ExistsAdapter victim(std::move(inner));
    if (std::optional<FoolingPair> pair = FoolExistsRecognizer(
            dfa, &victim, /*use_har_gadget=*/false, /*max_exponent=*/16);
        pair.has_value()) {
      report.certificate_in_el = std::move(pair->in_el);
      report.certificate_out_el = std::move(pair->out_el);
    }
  }
  return report;
}

std::vector<int> SelectWithMachine(const CompiledQuery& compiled,
                                   const Tree& tree,
                                   StreamEncoding encoding) {
  std::vector<bool> selected =
      RunQueryOnTree(compiled.machine.get(), tree,
                     encoding == StreamEncoding::kTerm);
  std::vector<int> ids;
  for (int id = 0; id < tree.size(); ++id) {
    if (selected[id]) ids.push_back(id);
  }
  return ids;
}

}  // namespace sst

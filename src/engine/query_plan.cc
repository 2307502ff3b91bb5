#include "engine/query_plan.h"

#include <algorithm>
#include <utility>

#include "base/check.h"
#include "eval/registerless_query.h"
#include "eval/stack_evaluator.h"

namespace sst {

namespace {

// Budgets for materializing a stackless query into an explicit DRA at
// plan-compile time. The state budget caps the BFS frontier; the table
// budget caps the transient explicit table (2 × symbols × 3^chain entries
// per state), which dominates memory when the register chain is long.
constexpr int kDraStateBudget = 4096;
constexpr int64_t kDraTableBudget = int64_t{1} << 22;

}  // namespace

const char* EvaluatorKindName(EvaluatorKind kind) {
  switch (kind) {
    case EvaluatorKind::kRegisterless:
      return "registerless (finite automaton)";
    case EvaluatorKind::kStackless:
      return "stackless (depth-register automaton)";
    case EvaluatorKind::kStackBaseline:
      return "stack baseline (pushdown)";
  }
  return "unknown";
}

std::shared_ptr<const QueryPlan> QueryPlan::Compile(
    const Rpq& rpq, const PlanOptions& options) {
  auto plan = std::shared_ptr<QueryPlan>(new QueryPlan());
  plan->options_ = options;
  plan->source_ = rpq.source;
  plan->alphabet_ = rpq.alphabet;
  plan->minimal_dfa_ = rpq.minimal_dfa;
  plan->classification_ = Classify(rpq.minimal_dfa);
  plan->scanner_tables_ =
      ScannerTables::Build(options.format, plan->alphabet_);

  const Classification& c = plan->classification_;
  const bool term = options.encoding == StreamEncoding::kTerm;
  const bool registerless =
      term ? c.blind_almost_reversible : c.almost_reversible;
  const bool stackless = term ? c.blind_har : c.har;
  if (registerless) {
    plan->kind_ = EvaluatorKind::kRegisterless;
    plan->tag_dfa_ =
        BuildRegisterlessQueryAutomaton(plan->minimal_dfa_, term);
    if (FusedByteTableEligible(options.format, *plan->tag_dfa_,
                               plan->alphabet_)) {
      plan->fused_ = std::make_unique<ByteTagDfaRunner>(*plan->tag_dfa_,
                                                        plan->alphabet_);
    }
  } else if (stackless) {
    plan->kind_ = EvaluatorKind::kStackless;
    plan->stackless_ = StacklessBlueprint::Build(plan->minimal_dfa_, term);
    // Stackless fused rung: materialize the Lemma 3.8 machine into an
    // explicit restricted DRA, when the table fits the budget. The budget
    // is resolved *before* materializing — the blueprint's register bound
    // (max_chain) fixes the per-state table cost, so the state cap is
    // shrunk until the transient table is bounded too. Every format gets
    // one: the steppers are symbol-keyed, and the term encoding's
    // universal close reads column 0 of the blind (Thm B.2) machine, whose
    // close columns all agree.
    if (plan->minimal_dfa_.num_symbols == plan->alphabet_.size() &&
        plan->stackless_->max_chain <= Dra::kMaxRegisters) {
      int64_t codes = 1;
      for (int i = 0; i < plan->stackless_->max_chain; ++i) codes *= 3;
      const int64_t per_state =
          2 * static_cast<int64_t>(plan->minimal_dfa_.num_symbols) * codes;
      const int64_t max_states =
          std::min<int64_t>(kDraStateBudget, kDraTableBudget / per_state);
      if (max_states >= 2) {
        plan->stackless_dra_ = MaterializeStacklessQueryDra(
            plan->minimal_dfa_, term, static_cast<int>(max_states));
      }
      if (plan->stackless_dra_) {
        plan->fused_dra_ = std::make_unique<ByteDraRunner>(
            &*plan->stackless_dra_, plan->alphabet_);
      }
    }
  } else if (options.allow_stack_fallback) {
    plan->kind_ = EvaluatorKind::kStackBaseline;
  } else {
    return plan;  // exact_ = false; classification still available
  }
  plan->exact_ = true;
  return plan;
}

std::unique_ptr<StreamMachine> QueryPlan::NewMachine() const {
  if (!exact_) return nullptr;
  switch (kind_) {
    case EvaluatorKind::kRegisterless:
      return std::make_unique<TagDfaMachine>(&*tag_dfa_);
    case EvaluatorKind::kStackless:
      // With the fused rung present, instantiate the machine as a DRA
      // runner over the materialized automaton: it exports the (state,
      // depth, registers) configuration the fused scanner syncs around
      // each chunk and every refused token, and steps the *same*
      // automaton on that token — the two cannot diverge.
      if (fused_dra_) return std::make_unique<DraRunner>(&*stackless_dra_);
      return std::make_unique<StacklessQueryEvaluator>(&*stackless_);
    case EvaluatorKind::kStackBaseline:
      return std::make_unique<StackQueryEvaluator>(&minimal_dfa_);
  }
  return nullptr;
}

}  // namespace sst

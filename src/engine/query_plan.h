#ifndef SST_ENGINE_QUERY_PLAN_H_
#define SST_ENGINE_QUERY_PLAN_H_

#include <memory>
#include <optional>
#include <string>

#include "automata/dfa.h"
#include "classes/syntactic_classes.h"
#include "dra/byte_dra_runner.h"
#include "dra/byte_runner.h"
#include "dra/dra.h"
#include "dra/machine.h"
#include "dra/streaming.h"
#include "dra/tag_dfa.h"
#include "eval/stackless_query.h"
#include "query/rpq.h"

namespace sst {

// Which serialization of trees the query is answered over; fixes which of
// the paper's characterization theorems applies (markup: Thms 3.1/3.2;
// term: Thms B.1/B.2).
enum class StreamEncoding { kMarkup, kTerm };

enum class EvaluatorKind {
  kRegisterless,   // plain DFA over the tag stream (Lemma 3.5 / 3.11)
  kStackless,      // depth-register automaton (Lemma 3.8)
  kStackBaseline,  // classical pushdown evaluation (always applicable)
};

const char* EvaluatorKindName(EvaluatorKind kind);

// Everything that fixes the compiled artifact besides the query text.
// Part of the PlanCache key.
struct PlanOptions {
  StreamEncoding encoding = StreamEncoding::kMarkup;
  StreamFormat format = StreamFormat::kCompactMarkup;
  bool allow_stack_fallback = true;

  friend bool operator==(const PlanOptions&, const PlanOptions&) = default;
};

// The compile-once half of query evaluation: every artifact the paper's
// constructions derive at *query analysis* time — classification verdicts
// (Section 3 / Appendix B), the registerless TagDfa (Lemma 3.5), the
// stackless blueprint (Lemma 3.8: SCC chains + backtrack table), the fused
// byte→state table (Section 4.3), and the scanner's per-byte tables —
// built exactly once per (RPQ, options) and shared read-only by any number
// of concurrent per-stream Sessions. Nothing in a QueryPlan mutates after
// Compile returns, which is what makes `shared_ptr<const QueryPlan>`
// safely shareable across threads with no per-stream table copies.
//
// The degradation ladder (DESIGN.md "Robustness & recovery") is encoded in
// which artifacts are present:
//   fused byte table  ->  fused DRA table  ->  generic machine  ->  stack
// fused() non-null means the registerless byte-table rung exists (compact
// markup only); fused_dra() non-null the stackless one (Lemma 3.8
// materialized into a restricted DRA and flattened to table form, on
// every format — at most one of the two is present); kind() names the
// strongest machine tier NewMachine() instantiates; minimal_dfa() always
// supports the pushdown baseline.
class QueryPlan {
 public:
  // Classifies the query and builds every immutable table of the
  // strongest evaluation tier the characterization admits. Never fails:
  // when no streaming evaluator exists and options.allow_stack_fallback
  // is false, the plan is inexact (exact() == false, NewMachine() ==
  // nullptr) but still carries the classification verdicts.
  static std::shared_ptr<const QueryPlan> Compile(const Rpq& rpq,
                                                  const PlanOptions& options);

  // --- Compile-time verdicts -------------------------------------------
  const PlanOptions& options() const { return options_; }
  const Classification& classification() const { return classification_; }
  EvaluatorKind kind() const { return kind_; }
  bool exact() const { return exact_; }
  const std::string& source() const { return source_; }

  // --- Shared immutable artifacts --------------------------------------
  // The plan owns a copy of the query's alphabet and minimal DFA, so it
  // is self-contained (the Rpq it was compiled from may be destroyed).
  const Alphabet& alphabet() const { return alphabet_; }
  const Dfa& minimal_dfa() const { return minimal_dfa_; }

  // Registerless tier (kind() == kRegisterless): the Lemma 3.5 TagDfa;
  // null otherwise.
  const TagDfa* tag_dfa() const { return tag_dfa_ ? &*tag_dfa_ : nullptr; }

  // Stackless tier (kind() == kStackless): the Lemma 3.8 blueprint; null
  // otherwise.
  const StacklessBlueprint* stackless() const {
    return stackless_ ? &*stackless_ : nullptr;
  }

  // Fused byte→state table (registerless tier, compact markup,
  // single-lowercase-letter labels); null when the fast rung of the
  // degradation ladder does not exist for this plan.
  const ByteTagDfaRunner* fused() const { return fused_.get(); }

  // Stackless fused tier (kind() == kStackless, materialization within
  // budget), on every format: the Lemma 3.8 machine materialized into an
  // explicit restricted DRA — the blind (Thm B.2) machine under the term
  // encoding — plus its fused table. Both null when the stackless query
  // runs on the generic machine tier only. stackless_dra() is non-null iff
  // fused_dra() is. The runner's byte-level entry points additionally need
  // single-lowercase-letter labels (ByteDraRunner::compact_labels()).
  const Dra* stackless_dra() const {
    return stackless_dra_ ? &*stackless_dra_ : nullptr;
  }
  const ByteDraRunner* fused_dra() const { return fused_dra_.get(); }

  // Per-byte scanner classification for options().format.
  const ScannerTables& scanner_tables() const { return scanner_tables_; }

  // --- Per-session instantiation ---------------------------------------
  // A fresh mutable machine borrowing this plan's tables: TagDfaMachine
  // over tag_dfa(), DraRunner over stackless_dra() (when the fused DRA
  // rung exists — it exports the configuration the fused scanner syncs)
  // or StacklessQueryEvaluator over stackless() otherwise, or
  // StackQueryEvaluator over minimal_dfa(). O(registers) construction
  // cost, no table building; the machine must not outlive the plan (hold
  // the shared_ptr — engine/session.h does). Null iff !exact().
  std::unique_ptr<StreamMachine> NewMachine() const;

 private:
  QueryPlan() = default;

  PlanOptions options_;
  std::string source_;
  Classification classification_;
  EvaluatorKind kind_ = EvaluatorKind::kStackBaseline;
  bool exact_ = false;

  Alphabet alphabet_;
  Dfa minimal_dfa_;
  std::optional<TagDfa> tag_dfa_;
  std::optional<StacklessBlueprint> stackless_;
  std::unique_ptr<ByteTagDfaRunner> fused_;
  std::optional<Dra> stackless_dra_;
  std::unique_ptr<ByteDraRunner> fused_dra_;
  ScannerTables scanner_tables_;
};

}  // namespace sst

#endif  // SST_ENGINE_QUERY_PLAN_H_

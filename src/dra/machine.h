#ifndef SST_DRA_MACHINE_H_
#define SST_DRA_MACHINE_H_

#include <array>
#include <cstdint>
#include <vector>

#include "automata/alphabet.h"
#include "trees/encoding.h"
#include "trees/tree.h"

namespace sst {

struct TagDfa;
struct Dra;
class ProductStepper;
class StackQueryEvaluator;

// Full configuration of a depth-register automaton (Definition 2.1):
// control state, depth counter, register values. This is the unit the
// stackless fused fast path syncs between a DRA-backed StreamMachine and
// the byte-level ByteDraRunner around each chunk, mirroring the
// registerless ExportedState()/SyncExportedState(int) protocol below.
// The register array is fixed-size (registers past num_registers are
// ignored) so a config is copyable with no heap traffic per chunk.
struct DraConfig {
  static constexpr int kMaxRegisters = 10;  // = Dra::kMaxRegisters

  int state = 0;
  int64_t depth = 0;
  std::array<int64_t, kMaxRegisters> registers{};
};

// Common interface of all streaming evaluators: explicit DRAs, registerless
// automata, and the constructed evaluators of Section 3. A machine consumes
// tag events; after any event its acceptance bit can be sampled.
//
// Query semantics (Section 2.3): a node is *pre-selected* iff the machine is
// in an accepting state directly after its opening tag. Recognition
// semantics (Section 2.2): the machine accepts the tree iff it is in an
// accepting state after the full encoding.
//
// Machines for the term encoding must not depend on the `symbol` argument of
// OnClose (the term encoding has a universal closing tag); such machines
// accept -1 there.
class StreamMachine {
 public:
  virtual ~StreamMachine() = default;

  virtual void Reset() = 0;
  virtual void OnOpen(Symbol symbol) = 0;
  virtual void OnClose(Symbol symbol) = 0;
  virtual bool InAcceptingState() const = 0;

  // Match-event fan-out: appends the ids of the members whose verdict is
  // "selected" for the node just opened. Called by scanners only when the
  // machine (or its fused stand-in) reports acceptance, so single-query
  // machines keep the default — member 0 — which is deliberately
  // state-independent: the fused tiers sample acceptance from the byte
  // table without syncing the machine mid-chunk, and the default must stay
  // correct there. Multi-query machines (ProductTagMachine) override this
  // to enumerate the accepting members of the product mask; a scanner
  // running their exported stepper enumerates through the stepper and
  // stores it before any virtual call, so their state is in sync here.
  virtual void AppendSelectedMembers(std::vector<int32_t>* out) const {
    out->push_back(0);
  }

  // Registerless fast-path export (Section 4.3): machines that are (wrappers
  // of) a plain TagDfa may expose the automaton plus get/set access to their
  // current state. Byte-level scanners then run a fused byte→state
  // transition table with no virtual dispatch per event and sync the state
  // back after each chunk. Machines without such a representation keep the
  // defaults (no export; state calls ignored).
  virtual const TagDfa* ExportTagDfa() const { return nullptr; }
  virtual int ExportedState() const { return 0; }
  virtual void SyncExportedState(int /*state*/) {}

  // Stackless fast-path export: machines that are (wrappers of) an explicit
  // restricted DRA expose the automaton plus get/set access to their full
  // configuration (state, depth, registers). Byte-level scanners then
  // resolve the depth counter, the registers, and the 3^r comparison code
  // inside the fused scan loop (ByteDraRunner) and sync the configuration
  // back after each chunk. A machine exports at most one of
  // ExportTagDfa()/ExportDra().
  virtual const Dra* ExportDra() const { return nullptr; }
  virtual DraConfig ExportedDraConfig() const { return {}; }
  virtual void SyncExportedDraConfig(const DraConfig& /*config*/) {}

  // Batch export: a multi-query machine whose every member is an eager
  // product bit or a fused DRA exposes the ProductStepper it steps itself
  // with. Scanners then run a register-resident copy of it with no virtual
  // dispatch per event, copy it back around every event they hand to the
  // virtual interface, and fold its hit histogram at the end of each
  // chunk (dra/product_stepper.h).
  virtual ProductStepper* ExportProductStepper() { return nullptr; }

  // Stack-tier export: the pooled-stack baseline (eval/stack_evaluator.h)
  // exposes itself, and scanners step it through a register-resident
  // StackStepper, storing it back around every event they hand to the
  // virtual interface.
  virtual StackQueryEvaluator* ExportStackEvaluator() { return nullptr; }

  // Checkpoint protocol (incremental re-evaluation, engine/incremental.h):
  // machines that can serialize their full configuration into a flat word
  // vector support suspend/resume at arbitrary event boundaries. The
  // stackless tiers write O(1)-to-O(registers) words — the paper's cheap-
  // snapshot asset; the stack tier stores a handle to a retained head in
  // its pooled persistent stack (eval/stack_evaluator.h), still O(1).
  //
  //   SaveConfig        appends nothing on failure; true and `out`
  //                     overwritten on success. May retain machine-owned
  //                     resources: every saved config must eventually be
  //                     passed to ReleaseConfig or dropped via Reset().
  //   RestoreConfig     adopts a previously saved (not yet released)
  //                     config; the config stays valid and may be restored
  //                     again (repeated edits resume from one checkpoint).
  //   ConfigEqualsCurrent  true iff the machine's live configuration is
  //                     semantically identical to the saved one — the
  //                     convergence test of incremental re-evaluation.
  //                     Diagnostic counters do not participate.
  //   ReleaseConfig     drops one saved config (frees pooled stack nodes
  //                     on the stack tier; no-op for flat configs).
  //
  // The default "unsupported" answers keep exotic machines (products,
  // test doubles) safely on the full-rescan path.
  virtual bool SaveConfig(std::vector<int64_t>* /*out*/) { return false; }
  virtual bool RestoreConfig(const std::vector<int64_t>& /*config*/) {
    return false;
  }
  virtual bool ConfigEqualsCurrent(
      const std::vector<int64_t>& /*config*/) const {
    return false;
  }
  virtual void ReleaseConfig(const std::vector<int64_t>& /*config*/) {}

  // Stack-tier diagnostics, surfaced through StreamStats (and from there
  // the server metrics frame). Zero on the stackless tiers by definition:
  // their whole point is having no stack to peak or underflow.
  virtual int64_t StackDepthPeak() const { return 0; }
  virtual int64_t StackUnderflowCloses() const { return 0; }
};

// Runs the machine over the given encoding and returns, per opening tag in
// stream order (= document order of nodes), whether the node was
// pre-selected. Use RunQueryOnTree to get the answers indexed by node id.
std::vector<bool> RunQuery(StreamMachine* machine, const EventStream& events);

// Streams <tree> through the machine and returns pre-selection per node id
// (directly comparable with SelectNodes ground truth). When `term_encoded`
// is set, closing events carry no label (symbol -1), as under the term
// encoding.
std::vector<bool> RunQueryOnTree(StreamMachine* machine, const Tree& tree,
                                 bool term_encoded = false);

// Runs the machine over the full stream; true iff it ends accepting.
bool RunAcceptor(StreamMachine* machine, const EventStream& events);

}  // namespace sst

#endif  // SST_DRA_MACHINE_H_

#ifndef SST_DRA_STREAMING_H_
#define SST_DRA_STREAMING_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "automata/alphabet.h"
#include "base/match_sink.h"
#include "dra/byte_dra_runner.h"
#include "dra/byte_runner.h"
#include "dra/machine.h"
#include "dra/product_stepper.h"
#include "dra/stream_error.h"

namespace sst {

// Byte serialization consumed by the streaming front-end. (Also aliased as
// StreamingSelector::Format for the pre-engine spelling.)
enum class StreamFormat {
  kCompactMarkup,  // 'a'..'z' opening tags, 'A'..'Z' closing tags
  kXmlLite,        // <name> ... </name>, tags only
  kCompactTerm,    // name{ ... } (JSON-style; universal close)
};

// Precomputed per-byte classification of one (format, alphabet) pair: the
// compile-time half of the scanner. Immutable once built, so one instance
// can be shared read-only by any number of concurrently running
// StreamingSelectors (the engine's QueryPlan owns exactly one); selectors
// constructed standalone build a private copy.
struct ScannerTables {
  // Byte classes; meanings depend on the format the table was built for.
  // Only kOpen is odd, so a markup loop reads the polarity as bit 0.
  enum ByteClass : uint8_t {
    kBad = 0,
    kOpen = 1,        // markup: 'a'..'z'
    kClose = 2,       // markup: 'A'..'Z'
    kWs = 4,          // ASCII whitespace
    kLabel = 6,       // term: label byte (ASCII alnum, '_', '-')
    kCloseBrace = 8,  // term: '}'
  };
  static constexpr int kClassBits = 4;

  // One word per byte: its symbol (-1 where the byte names no label)
  // shifted above its class, so a scan loop reads both with one load.
  std::array<int32_t, 256> byte_entry;

  static ByteClass ClassOf(int32_t entry) {
    return static_cast<ByteClass>(entry & ((1 << kClassBits) - 1));
  }
  static Symbol SymbolOf(int32_t entry) { return entry >> kClassBits; }
  ByteClass byte_class(unsigned char byte) const {
    return ClassOf(byte_entry[byte]);
  }
  Symbol byte_symbol(unsigned char byte) const {
    return SymbolOf(byte_entry[byte]);
  }

  static ScannerTables Build(StreamFormat format, const Alphabet& alphabet);
};

// True when the fused byte→state rung of the degradation ladder can run a
// machine exporting `dfa`: the table is keyed by the raw byte, so the
// format must be compact markup and every symbol the stream can mention a
// single lowercase letter covered by the automaton. The one rule for both
// the plan-level build and a standalone selector's private one.
bool FusedByteTableEligible(StreamFormat format, const TagDfa& dfa,
                            const Alphabet& alphabet);

// The StreamStats counters a StreamingSelector owns — all but the match
// recorder's and the stack tier's. They are part of the selector's run
// state (StreamingSelector::RunState), so Reset, checkpoints and the
// incremental splice handle them as one value.
struct StreamCounters {
  int64_t bytes_fed = 0;      // bytes consumed (whitespace included)
  int64_t chunks_fed = 0;     // Feed calls processed (throughput input that
                              // needs no wall clock: bytes_fed / chunks_fed
                              // is the average chunk the transport delivers)
  int64_t events = 0;         // tag events decoded (opens + closes)
  int64_t max_depth = 0;      // peak element nesting depth
  int64_t matches = 0;        // pre-selected nodes
  int64_t errors_recovered = 0;  // errors absorbed by the recovery policy
  int64_t subtrees_skipped = 0;  // kSkipMalformedSubtree resync regions
  int64_t error_offset = -1;  // byte offset of the first error, -1 if none

  friend bool operator==(const StreamCounters&,
                         const StreamCounters&) = default;
};

// Byte-level observability of one streaming run; see
// StreamingSelector::stats(). All counters reset with Reset().
//
// Every counter except chunks_fed is chunking-invariant: feeding the same
// bytes under any split schedule yields the same values, including
// error_offset and the recovery counters. (chunks_fed measures the split
// schedule itself, so it is the one counter that cannot be.) On a fatal
// error, bytes_fed reports the consumed prefix — exactly error_offset
// bytes — not whatever chunk tail happened to be in flight.
struct StreamStats : StreamCounters {
  int64_t matches_emitted = 0;  // MatchSink OnMatch events (0 with no sink)
  int64_t pending_matches_peak = 0;  // emission-buffer high-water
  int64_t max_stack_depth = 0;   // stack-tier peak stacked states (0 on the
                                 // stackless tiers, whose configs hold none)
  int64_t underflow_closes = 0;  // stack-tier closes ignored with nothing
                                 // open (unbalanced machine-level stream)

  friend bool operator==(const StreamStats&, const StreamStats&) = default;
};

struct SelectorCheckpoint;

// Incremental push-parser driving a StreamMachine: feed arbitrary byte
// chunks (network reads, mmap windows); tag events are decoded on the fly
// and matches are reported as the stream goes by — the intended deployment
// of pre-selection (Section 2.3): once a node is pre-selected, its whole
// subtree can be forwarded downstream with no buffering.
//
// Formats:
//   kCompactMarkup  'a'..'z' opening tags, 'A'..'Z' closing tags;
//   kXmlLite        <name> ... </name>, tags only;
//   kCompactTerm    name{ ... } (JSON-style; drives OnClose with -1).
// Whitespace between tags is ignored (ASCII whitespace only — behavior is
// locale-independent). The parser validates well-formedness (tag balance
// and, for markup formats, label matching) since the paper's weak setting
// assumes it: a violation is reported as a structured StreamError rather
// than silently producing nonsense.
//
// Robustness layer (see DESIGN.md "Robustness & recovery"):
//   * every malformed-input condition produces a StreamError (code + byte
//     offset + depth + expected/got labels), identical under any chunk
//     split of the same bytes;
//   * a RecoveryPolicy selects fail-fast (default), skip-malformed-subtree
//     resynchronization, or auto-close-at-EOF;
//   * StreamLimits guard depth / document size / event count / recovery
//     budget deterministically, with the checks kept off the bulk-skip
//     loops (per-open, per-event, and per-Feed prefix splits);
//   * once an error is fatal, Feed and Finish are no-ops returning false
//     and the first StreamError is preserved verbatim.
//
// The hot loop is table-driven: a 256-entry table of each byte's class
// and symbol is precomputed from the Alphabet at construction, so the
// steady state performs no isspace/hash-lookup calls and no heap
// allocation; whitespace runs are skipped in bulk with the SIMD/SWAR
// kernels of base/byte_scan.h rather than byte by byte, and an XML tag
// that lies wholly inside the chunk is lexed in place (only a tag that
// straddles the chunk end is buffered, in a fixed buffer). Every format's
// clean tokens go through one framing core that keeps depth, counters and
// the label-stack top in registers for the whole chunk and folds every
// well-formedness and limit check into one refusal branch (the limits
// compared once per 64-byte block, the sink's emission mode compiled into
// the run); a refused token takes the exact per-event path (EmitOpen/EmitClose/Recover), so
// errors, offsets, recovery and stats come from one implementation (see
// DESIGN.md "Scan hot loop"). What the core advances per token is a
// stepper: when the machine exports a plain TagDfa (registerless tier)
// and the format is compact markup, a fused ByteTagDfaRunner byte→state
// table (Section 4.3); when it instead exports a restricted DRA
// (stackless tier, Lemma 3.8), on any format, a fused ByteDraRunner that
// resolves depth, registers, and the comparison code inline and skips the
// table while the configuration sleeps (DESIGN.md "Sleeping DRA
// members") — one rung below the registerless table on the ladder, still
// table speed; when it is a batch exporting a ProductStepper, the eager
// product's symbol-keyed rows plus its fused-DRA side-cars, on any format;
// otherwise the virtual machine. Every stepper stays in place through
// recovery: the refused token and the closes resynchronization
// synthesizes run on the machine, which the stepper is synced with around
// them.
//
// Beyond the machine, a run is the open-label stack, the error history and
// one RunState value — counters, depth, the partial token and the recovery
// mode — which Reset, SaveCheckpoint and RestoreCheckpoint assign whole.
class StreamingSelector {
 public:
  using Format = StreamFormat;

  // A multi-byte token that straddles a Feed boundary: an XML-lite tag past
  // its '<' (the name so far buffered), or a term label byte waiting for
  // its '{' (the byte alone buffered). Meaningful only while open: the
  // fields of a closed token may be stale, and a checkpoint stores the
  // default one instead.
  struct PartialToken {
    int64_t start = -1;    // offset of the '<', or of the label byte
    uint32_t len = 0;      // bytes buffered
    bool open = false;
    bool first = false;    // XML-lite: the next byte is the first past '<'
    bool closing = false;  // XML-lite: the tag began with '/'

    friend bool operator==(const PartialToken&, const PartialToken&) = default;
  };

  // The selector's resumable run state, defined once; the open labels, the
  // token's bytes and the error history live beside it. The nodes opened
  // so far and whether the root has opened are derived, not stored: every
  // event moves the depth by one and counts once, and no event precedes
  // the root's open.
  struct RunState {
    StreamCounters counters;
    int64_t depth = 0;
    PartialToken token;
    // Recovery (kSkipMalformedSubtree): while in_skip, input is framing-
    // scanned only; skip_depth counts elements opened inside the skipped
    // region. Resync happens at the close that would return the region to
    // the innermost open element's end.
    bool in_skip = false;
    int64_t skip_depth = 0;

    int64_t nodes() const { return (counters.events + depth) / 2; }
    bool saw_root() const { return counters.events > 0; }
    friend bool operator==(const RunState&, const RunState&) = default;
  };

  // Which rung of the degradation ladder is executing events, fixed at
  // construction. The stack tier (StackQueryEvaluator) — below all of
  // these — is chosen by the caller as the machine itself; the selector
  // reports the rungs it can run: the registerless fused byte table, the
  // stackless fused DRA table, and the generic virtual machine.
  enum class Tier { kFusedByteTable, kFusedDraTable, kGenericMachine };

  // One recovered error: the structured error plus the excised byte range.
  // excise_from is the first damaged byte (the start of the offending
  // token, which for multi-byte tokens — an XML tag, a term label — begins
  // before error.offset); resume_offset is the byte just past the
  // resynchronization token (-1 while the skip is still open at EOF);
  // closed_label is the label of the element whose close was synthesized
  // at resync (-1 for the kAutoClose EOF record, which closes every
  // remaining level). The sanitized document equivalent to the recovered
  // run is
  //   bytes[0, excise_from) + <close of closed_label> + bytes[resume_offset,)
  // which the property tests rebuild and re-parse fail-fast.
  struct RecoveredError {
    StreamError error;
    int64_t excise_from = -1;
    int64_t resume_offset = -1;
    Symbol closed_label = -1;

    friend bool operator==(const RecoveredError&,
                           const RecoveredError&) = default;
  };

  // Longest supported tag label, in bytes (an XML-lite closing tag's '/'
  // does not count towards this).
  static constexpr size_t kMaxTagBytes = 256;

  // Depth up to which the label stack never reallocates in steady state.
  static constexpr size_t kDepthReserve = 1024;

  // Upper bound on stackless fused close-table entries (states × symbols ×
  // 3^registers, ~4 bytes each) a selector will build privately; larger
  // DRAs stay on the generic tier. Plan-level builds apply their own
  // budget before materializing (see engine/query_plan.cc).
  static constexpr int64_t kFusedDraEntryBudget = int64_t{1} << 22;

  // `machine` and `alphabet` must outlive the selector. Labels must be
  // present in the alphabet (the machine's automaton is indexed by it);
  // unknown element names fail the feed. Builds private scanner tables
  // (and, when eligible, a private fused byte table) at construction.
  StreamingSelector(StreamMachine* machine, Format format,
                    const Alphabet* alphabet);

  // Compile-once / run-many form: borrows immutable tables owned by a
  // shared plan instead of building them. `tables` must have been built
  // for exactly this (format, alphabet); `fused` may be null (generic tier
  // only) and otherwise must be the fused byte table of the TagDfa the
  // machine exports (the scanner syncs the exported state around fused
  // chunks); `fused_dra` is the stackless analogue — the fused table of
  // the restricted DRA the machine exports (configuration synced around
  // fused chunks) — and is mutually exclusive with `fused`. No table
  // construction — and no allocation proportional to the automaton —
  // happens on this path; see engine/session.h.
  StreamingSelector(StreamMachine* machine, Format format,
                    const Alphabet* alphabet, const ScannerTables* tables,
                    const ByteTagDfaRunner* fused,
                    const ByteDraRunner* fused_dra = nullptr);

  // Streams match events (byte spans, emitted at the earliest certain
  // offset) into `sink`; see base/match_sink.h for the event model and
  // ordering guarantees. The sink must outlive the selector or be cleared
  // with nullptr; it survives Reset() like the policy and limits, so a
  // pooled session keeps its sink wiring across documents. For multi-query
  // machines, event query_ids are the machine's member indices
  // (StreamMachine::AppendSelectedMembers); single-query machines emit
  // query_id 0. The emission buffer is bounded by
  // StreamLimits::max_pending_matches.
  void set_match_sink(MatchSink* sink) { recorder_.set_sink(sink); }

  // Emission-buffer observability: pending/peak span counts, OnMatch
  // totals, and overflow truncations of the current run.
  const MatchRecorder& match_recorder() const { return recorder_; }

  // Both must be set before the first Feed of a document (they are not
  // consulted retroactively). Limits must pass StreamLimits::Validate() —
  // zero or contradictory guards are a configuration bug, rejected loudly
  // here instead of silently failing every document downstream.
  void set_recovery_policy(RecoveryPolicy policy) { policy_ = policy; }
  void set_limits(const StreamLimits& limits);
  RecoveryPolicy recovery_policy() const { return policy_; }
  const StreamLimits& limits() const { return limits_; }

  // Feeds a chunk; false on fatal malformed input (stream_error() has the
  // structured error, error() a rendered message). Recovered errors keep
  // Feed returning true. After a fatal error every further Feed is a no-op
  // returning false; the original error is preserved.
  bool Feed(std::string_view chunk);

  // Declares end of input; false if the document is incomplete (under
  // kAutoClose, missing closes are synthesized instead and Finish
  // succeeds).
  bool Finish();

  void Reset();

  int64_t nodes() const { return run_.nodes(); }
  int64_t matches() const { return run_.counters.matches; }
  int64_t depth() const { return run_.depth; }
  bool document_complete() const {
    return run_.saw_root() && run_.depth == 0;
  }
  bool machine_accepting() const { return machine_->InAcceptingState(); }

  // True once a fatal (unrecovered) error has been recorded.
  bool failed() const { return failed_; }

  // The first error observed — fatal or recovered; code kNone if the
  // stream has been clean so far. Chunking-invariant.
  const StreamError& stream_error() const { return stream_error_; }

  // Rendered first error ("" while clean). Kept for log-friendliness;
  // structured consumers should use stream_error().
  const std::string& error() const { return error_; }

  // Errors absorbed by the recovery policy, in stream order. After
  // RestoreCheckpoint it holds the entry of the skip open at the
  // checkpoint, if any, then what the run records from there on — the
  // contract the match sink already has, which sees only the events past
  // the restore. A checkpointing caller keeps the history before it.
  const std::vector<RecoveredError>& recovered_errors() const {
    return recovered_errors_;
  }

  // Byte-level counters of the run so far.
  StreamStats stats() const {
    return {run_.counters, recorder_.emitted(), recorder_.peak_pending(),
            machine_->StackDepthPeak(), machine_->StackUnderflowCloses()};
  }

  // --- Checkpoint protocol (incremental re-evaluation) ------------------
  // A SelectorCheckpoint is the selector's complete resumable state at a
  // Feed boundary: machine configuration (via StreamMachine::SaveConfig),
  // validator labels, the RunState (exact prefix counters included), the
  // partial token's bytes, the first error and the entry of an open skip.
  // It stays O(1) in the errors recorded so far. engine/incremental.h
  // records these on a byte grid and resumes/rescans/splices around
  // edits; see DESIGN.md "Incremental re-evaluation".

  // Captures the current state into `out` (overwritten). False — and no
  // resources retained — when the machine does not support the config
  // protocol or when pending match spans exist (checkpointing requires a
  // verdict-only or absent sink). Must not be called after a fatal error.
  // Saved checkpoints pin machine resources (stack-tier nodes) until
  // ReleaseCheckpoint or machine Reset.
  bool SaveCheckpoint(SelectorCheckpoint* out);

  // Adopts a saved (not yet released) checkpoint, clearing any fatal
  // state recorded since; the checkpoint stays valid for further
  // restores. The running max-depth is re-based at the restored depth
  // (see TakeSegmentPeakDepth). False if the machine rejects the config.
  bool RestoreCheckpoint(const SelectorCheckpoint& cp);

  // Drops one saved checkpoint (frees stack-tier nodes; flat-config tiers
  // need no release, but calling this unconditionally is always correct).
  void ReleaseCheckpoint(const SelectorCheckpoint& cp);

  // Convergence test: true iff the live state at the current position is
  // byte-for-byte the state `cp` recorded, modulo a uniform shift of
  // `delta` bytes in every stored absolute offset (the edit's net size
  // change). Counters and error history do not participate — they are
  // prefix aggregates, spliced separately; what must agree is everything
  // that determines the *future* of the run: depth, whether the root has
  // opened, validator labels, the partial token (only while one is open),
  // recovery mode, and the machine configuration.
  bool CheckpointConverged(const SelectorCheckpoint& cp, int64_t delta) const;

  // Returns the peak depth since the last call (or Reset/Restore) and
  // re-bases the running peak at the current depth. Lets a checkpointing
  // caller keep exact per-segment peaks — and thus splice an exact global
  // max_depth — at zero cost to the scan loops. Plain callers that never
  // call this see the usual whole-run peak in stats().
  int64_t TakeSegmentPeakDepth();

  // True when the fused byte→state fast path is active (registerless
  // machine + compact markup + single-letter labels).
  bool using_fused_fast_path() const { return fused_ != nullptr; }
  // True when the fused DRA fast path is active (restricted DRA machine
  // within the table budget, any format).
  bool using_fused_dra_path() const { return fused_dra_ != nullptr; }
  Tier active_tier() const {
    if (using_fused_fast_path()) return Tier::kFusedByteTable;
    if (using_fused_dra_path()) return Tier::kFusedDraTable;
    return Tier::kGenericMachine;
  }

 private:
  // How the offending token participates in skip-mode framing when the
  // error is recovered: an open-like token starts a nested skipped
  // element, a close-like token is itself the resynchronization point,
  // and junk is simply discarded.
  enum class ErrorToken : uint8_t { kJunk, kOpenLike, kCloseLike };

  // How a run reports matches, fixed per Feed from the recorder and
  // compiled into the run, so the per-event path holds no flag and, without
  // a sink, no call. kVerdicts (a verdict-only sink) fires OnMatch and
  // tracks no span; single-member compact-markup runs batch those verdicts
  // (FlushVerdicts). kEvents (a sink that wants spans) also completes a
  // span at every close.
  enum class Emit : uint8_t { kNone, kVerdicts, kEvents };

  // The framing state a scan keeps in locals for the length of a chunk;
  // LoadFrame/CommitFrame move it between the run state and the loop, and
  // every refused token is bracketed by a commit and a reload. It holds
  // counters and limits only: how matches are reported is the run's Emit
  // mode, a template argument, not a flag here. The event limit and the
  // depth cap are compared once per 64-byte block (kBlockEvents): a block
  // that starts with that much headroom under both runs its tokens without
  // those two compares.
  struct Frame {
    int64_t depth;
    int64_t max_depth;
    int64_t events;
    int64_t matches;
    Symbol* labels;     // labels_.data(): the open labels at [1, depth]
    int64_t depth_cap;  // an open at this depth or deeper is refused
    int64_t max_events;

    // True when the next kBlockEvents events can neither reach the event
    // limit nor open at the depth cap.
    bool Roomy() const {
      return (events + kBlockEvents < max_events) &
             (depth + kBlockEvents < depth_cap);
    }
  };
  // Tokens one block can hold: a 64-byte block of markup or term (every
  // token ends on a structural byte of its own), or 192 bytes of XML-lite
  // (a tag is at least three bytes).
  static constexpr int64_t kBlockEvents = 64;

  // Steppers: what the framing core advances per clean token. Load/Store
  // sync a stepper's register copy with the machine around every token the
  // core refuses (the refused token, and any close recovery synthesizes,
  // runs through the virtual interface) and at the end of the scan.
  // Step receives the frame's depth after the event. kSingleMember marks
  // steppers whose acceptance always fans out to member 0 alone, so match
  // emission skips the member enumeration.
  //
  // Register budget (DESIGN.md "Scan hot loop", EXPERIMENTS.md E24 and
  // E28): a stepper carries by value only the scalars it touches per
  // event, keeps everything else behind one pointer, and runs its awake or
  // boundary work out of line, returning at most 16 bytes. A run with no
  // sink calls nothing per event, so the stepper shares the general
  // registers with the frame, the token pointer and the block mask;
  // whatever does not fit is reloaded from the stack. Each stepper's size
  // is bounded by a static_assert, so a field added to one fails to
  // compile instead of silently spilling the scan loop's state; raise a
  // bound only with a per-cell measurement.
  struct VirtualStepper {
    static constexpr bool kSingleMember = false;
    StreamMachine* machine;
    void Load() {}
    void Store() {}
    void Step(bool open, Symbol s, unsigned char, int64_t) {
      if (open) {
        machine->OnOpen(s);
      } else {
        machine->OnClose(s);
      }
    }
    bool Hit(bool open) const { return open && machine->InAcceptingState(); }
    void AppendSelected(std::vector<int32_t>* out) const {
      machine->AppendSelectedMembers(out);
    }
  };
  static_assert(sizeof(VirtualStepper) <= 8, "scan-loop register budget");
  // Keyed by the raw byte: compact markup only. `Entry` is the table's
  // storage (uint16_t below 65536 states, int32_t otherwise), fixed per
  // Feed so the run carries one table pointer and no width branch.
  template <typename Entry>
  struct FusedStepper {
    static constexpr bool kSingleMember = true;
    static constexpr bool kByteKeyed = true;
    StreamMachine* machine;
    const Entry* table;
    const uint8_t* accepting;  // one byte per state
    int state = 0;
    void Load() { state = machine->ExportedState(); }
    void Store() { machine->SyncExportedState(state); }
    void Step(bool, Symbol, unsigned char byte, int64_t) {
      state = table[static_cast<size_t>(state) * 256 + byte];
    }
    bool Hit(bool open) const { return open & (accepting[state] != 0); }
    void AppendSelected(std::vector<int32_t>* out) const { out->push_back(0); }
  };
  static_assert(sizeof(FusedStepper<uint16_t>) <= 32,
                "scan-loop register budget");
  // Stackless fused tier: the stepper keeps only the scalars a sleeping
  // event touches — its wake threshold and acceptance bit — and reads the
  // depth from the frame (the DRA's depth is the framing depth). The DRA
  // configuration sits behind one pointer, in selector-owned storage, and
  // the awake step runs out of line (ByteDraRunner::StepAwake), returning
  // the re-armed scalars in registers. A sleepy configuration skips the
  // table while the depth stays above its gate (ByteDraRunner::IsSleepy);
  // `*config` is current but for its depth.
  struct DraFusedStepper {
    static constexpr bool kSingleMember = true;
    StreamMachine* machine;
    const ByteDraRunner* runner;
    DraConfig* config;
    const int64_t* depth;  // the selector's, current whenever Store runs
    // Events leaving the depth above `threshold` skip the table: the gate
    // while asleep (an open always clears it, since no register exceeds
    // the depth), otherwise kAwake, which no depth clears.
    static constexpr int64_t kAwake = INT64_MAX;
    int64_t threshold = kAwake;
    bool accepting = false;
    void Load() {
      *config = machine->ExportedDraConfig();
      Arm(runner->Arm(*config));
    }
    void Store() {
      config->depth = *depth;
      machine->SyncExportedDraConfig(*config);
    }
    void Arm(ByteDraRunner::Armed armed) {
      threshold = armed.asleep ? armed.gate : kAwake;
      accepting = armed.accepting;
    }
    void Step(bool open, Symbol s, unsigned char, int64_t next) {
      if (next <= threshold) {
        Arm(runner->StepAwake(config, next + (open ? -1 : 1), open, s));
      }
    }
    bool Hit(bool open) const { return open & accepting; }
    void AppendSelected(std::vector<int32_t>* out) const { out->push_back(0); }
  };
  static_assert(sizeof(DraFusedStepper) <= 48, "scan-loop register budget");

  // Verifies (debug builds only) that the shared/owned scanner tables and
  // the fused byte table, built independently from the same Alphabet,
  // agree byte for byte on the letters they classify.
  void CheckTableAgreement() const;

  // Records the first error and marks the stream fatally failed.
  bool FailAt(const StreamError& err);
  // Keeps `err` as the stream's first error unless one is already kept.
  void NoteFirstError(const StreamError& err);
  StreamError MakeError(StreamErrorCode code, int64_t offset,
                        Symbol expected = -1, Symbol got = -1) const;

  // Recovery decision point: under kSkipMalformedSubtree (and within the
  // recovery budget) records the error, enters skip mode, and returns
  // true; otherwise records it fatally and returns false. `excise_from`
  // is the first damaged byte (see RecoveredError). Machine events
  // synthesized here go through the virtual interface, so a stepper's
  // state must be stored into the machine first and loaded back after
  // (Refuse does both).
  bool Recover(const StreamError& err, ErrorToken token, int64_t excise_from);

  // Synthesizes the close of the innermost open element (symbol -1 under
  // the term encoding) and leaves skip mode. `consumed_end` is the offset
  // just past the resync token. False on a fatal guard violation.
  bool ResyncClose(int64_t consumed_end);

  Frame LoadFrame();
  void CommitFrame(const Frame& frame);
  // Delivers `count` batched single-member verdicts: the tokens at
  // `tokens`, in a run over `bytes` that starts at offset `base`.
  static constexpr int64_t kVerdictBatch = 64;
  void FlushVerdicts(const char* const* tokens, int64_t count,
                     const char* bytes, int64_t base);

  // The framing core: applies one clean token (an open or close of
  // `symbol`; -1 for an unknown label) to the frame and the stepper, or
  // returns false — leaving both untouched — when any check refuses it.
  // `start` is the token's first byte, `last` the byte that completes it.
  // kUniversalClose: closes carry no label to match (term encoding).
  // kRoomy: the block's headroom test passed (Frame::Roomy), so the event
  // limit and the depth cap are not compared.
  template <Emit kMode, bool kUniversalClose, bool kRoomy, typename Stepper>
  bool CleanToken(Frame& frame, Stepper& stepper, bool open, Symbol symbol,
                  unsigned char byte, int64_t start, int64_t last);
  template <typename Stepper>
  void EmitMatch(Stepper stepper, int64_t depth, int64_t start,
                 int64_t certainty);

  // Runs `slow` (the exact per-event path for a refused token) with the
  // frame committed and the stepper stored, then reloads both on success.
  // False on a fatal error.
  template <typename Stepper, typename Slow>
  bool Refuse(Frame& frame, Stepper& stepper, Slow slow);
  template <typename Slow>
  bool RunRefused(Slow slow);

  // One chunk on `stepper`, in the selector's format and the recorder's
  // emission mode; false on a fatal error.
  template <typename Stepper>
  bool Scan(Stepper stepper, std::string_view chunk);
  template <Emit kMode, typename Stepper>
  bool ScanFormat(Stepper stepper, std::string_view chunk);
  template <Emit kMode, typename Stepper>
  bool FeedMarkup(std::string_view chunk, Stepper stepper);
  // The clean paths: from chunk index `i`, apply tokens until the chunk
  // ends or one needs the exact path; return where they stopped. Each
  // runs on register copies of the frame and the stepper.
  template <Emit kMode, typename Stepper>
  size_t MarkupRun(std::string_view chunk, size_t i, Frame& frame,
                   Stepper& stepper);
  template <Emit kMode, typename Stepper>
  size_t XmlRun(std::string_view chunk, size_t i, Frame& frame,
                Stepper& stepper);
  // Skip-mode framing from `i`: the index of the close that resyncs the
  // region, or chunk.size().
  size_t MarkupSkip(std::string_view chunk, size_t i);
  template <Emit kMode, typename Stepper>
  bool FeedXml(std::string_view chunk, Stepper stepper);
  template <Emit kMode, typename Stepper>
  bool FeedTerm(std::string_view chunk, Stepper stepper);
  // Term's clean path: an open at each label whose next structural byte
  // is '{', a close at each '}'. It stops at anything else (a label
  // followed by another byte, a stray '{', junk) or a refused token, with
  // a label still waiting for its '{' left as the open partial token.
  template <Emit kMode, typename Stepper>
  size_t TermRun(std::string_view chunk, size_t i, Frame& frame,
                 Stepper& stepper);
  size_t TermSkip(std::string_view chunk, size_t i);

  // The exact per-event path: every check in spec order, then the event.
  bool EmitOpen(Symbol symbol, int64_t offset, int64_t excise_from);
  bool EmitClose(Symbol symbol, int64_t offset, int64_t excise_from);
  // `span_end` is the end offset pending match spans complete with —
  // just past the resync token (kSkipMalformedSubtree) or the EOF offset
  // (kAutoClose); distinct from `offset`, the event-guard coordinate.
  bool EmitSynthClose(int64_t offset, int64_t span_end);

  // Label stack: labels_[1..depth_] are the open labels, bottom to top;
  // slot 0 holds kNoLabel, and the slots above the top are scratch the
  // core may write. PushLabel keeps at least one free slot above the top.
  static constexpr Symbol kNoLabel = -2;  // no symbol, nor unknown (-1)
  void PushLabel(Symbol symbol);

  // Fans the just-opened node's match out per accepting machine member
  // (query_id 0 for single-query machines) into the recorder. Only called
  // when acceptance was sampled true and a sink is installed.
  void RecordMatch(int64_t start, int64_t certainty);

  StreamMachine* machine_;
  Format format_;
  const Alphabet* alphabet_;
  RecoveryPolicy policy_ = RecoveryPolicy::kFailFast;
  StreamLimits limits_;

  // Match-event pipeline: the bounded emission buffer between the scan
  // loops and the installed MatchSink (inactive when no sink is set), plus
  // a reusable scratch vector for the per-member fan-out.
  MatchRecorder recorder_;
  std::vector<int32_t> member_scratch_;

  // Per-byte tables: either borrowed from a shared plan (owned_tables_
  // null) or privately built at construction. tables_ is never null.
  std::unique_ptr<ScannerTables> owned_tables_;
  const ScannerTables* tables_;

  // Compact-markup fused fast path; null when the machine is not
  // registerless (or labels are not single lowercase letters). Borrowed
  // from a shared plan or privately owned, like the scanner tables.
  std::unique_ptr<ByteTagDfaRunner> owned_fused_;
  const ByteTagDfaRunner* fused_ = nullptr;

  // Stackless fused fast path, on any format; null when the machine
  // exports no restricted DRA (or the table would exceed the build
  // budget). Mutually exclusive with fused_; same ownership scheme.
  std::unique_ptr<ByteDraRunner> owned_fused_dra_;
  const ByteDraRunner* fused_dra_ = nullptr;
  // The fused DRA stepper's configuration, synced with the machine around
  // every scan and refused token.
  DraConfig dra_config_;

  // The batch stepper the machine exports (ExportProductStepper), if any.
  ProductStepper* product_ = nullptr;
  // The stack-tier machine (ExportStackEvaluator), if any.
  StackQueryEvaluator* stack_ = nullptr;

  // Well-formedness: the expected closing labels (only the labels, not
  // full automaton states — the library never keeps evaluation state per
  // level, but a *validator* of the input framing needs the open labels).
  // Sized kDepthReserve + 2 up front; see PushLabel.
  std::vector<Symbol> labels_;

  RunState run_;
  // The partial token's bytes (run_.token.len of them) — fixed capacity,
  // no allocation.
  char token_buf_[kMaxTagBytes];
  int64_t chunk_base_ = 0;  // bytes fed before the current chunk

  bool failed_ = false;
  StreamError stream_error_;
  std::string error_;
  std::vector<RecoveredError> recovered_errors_;
};

// Complete resumable state of a StreamingSelector at a Feed boundary; see
// StreamingSelector::SaveCheckpoint. Offsets stored here are absolute
// document positions — reusing a checkpoint recorded after an edit point
// means shifting them by the edit's net byte delta (the engine layer's
// rebase step). A checkpoint never stores recorder state: checkpointing
// is only offered with verdict-only sinks, whose emission buffer is
// always empty. Nor does it store the error history, which grows with the
// document: only what the run's future reads of it.
struct SelectorCheckpoint {
  // Machine configuration (StreamMachine::SaveConfig words; the stack tier
  // stores a retained pool-slot handle — release via ReleaseCheckpoint).
  std::vector<int64_t> machine_config;

  // Well-formedness validator: the open-element labels, bottom to top.
  std::vector<Symbol> open_labels;

  // Exact prefix counters, depth, recovery mode, and the partial token —
  // the default one unless a token is open at the boundary, so states
  // that differ only in a finished token's leftovers compare equal.
  StreamingSelector::RunState run;
  // The open partial token's bytes (run.token.len of them).
  std::string token_bytes;

  // The first error of the prefix, and the entry of the skip open at the
  // boundary (meaningful only while run.in_skip; a default entry
  // otherwise): the resync that ends the skip completes it.
  StreamError stream_error;
  StreamingSelector::RecoveredError open_skip;
};

}  // namespace sst

#endif  // SST_DRA_STREAMING_H_

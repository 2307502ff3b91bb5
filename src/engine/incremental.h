#ifndef SST_ENGINE_INCREMENTAL_H_
#define SST_ENGINE_INCREMENTAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/match_sink.h"
#include "dra/stream_error.h"
#include "dra/streaming.h"
#include "engine/checkpoint.h"
#include "engine/query_plan.h"

namespace sst {

// Configuration of an IncrementalSession.
struct IncrementalOptions {
  // Checkpoint grid: one checkpoint every `checkpoint_interval` document
  // bytes. Smaller intervals mean less rescanning per edit and more
  // retained state; the stackless tiers pay O(1)-O(registers) words per
  // checkpoint, the stack tier one retained pooled node (shared suffixes
  // are structural, so even deep documents stay cheap). An edit also
  // walks every checkpoint past it once, which is what keeps the default
  // from going finer: on a 64 MiB document, 16 KiB halved the median
  // edit against 64 KiB, and 8 KiB raised the tail (EXPERIMENTS.md).
  int64_t checkpoint_interval = int64_t{1} << 14;

  // Forwarded to the selector before the first scan. Splicing suffix
  // aggregates is only sound under unlimited() limits (whether a finite
  // guard fires in the suffix depends on prefix counters an edit shifts);
  // finite limits keep checkpoint resume but downgrade every ApplyEdit to
  // scan-to-end.
  RecoveryPolicy policy = RecoveryPolicy::kFailFast;
  StreamLimits limits;
};

// Incremental re-evaluation over an edited document (ROADMAP item 4): a
// full Scan records periodic checkpoints — the active tier's complete
// configuration plus exact prefix aggregates — and ApplyEdit re-evaluates
// a byte splice by
//   1. resuming from the nearest checkpoint at or before the edit,
//   2. rescanning through the edited region, and
//   3. detecting *convergence*: the post-edit configuration matching the
//      recorded configuration stream at the same depth (checkpoint
//      offsets, shifted by the edit's net byte delta). On convergence the
//      suffix is spliced instead of rescanned.
// When configurations never reconverge (the edit changed the context of
// everything after it) the rescan runs to EOF, which is the full-rescan
// fallback with the prefix before the edit still reused.
//
// A rescan that fails instead (fail-fast met a malformed byte) stops at
// the failure, and the candidates it never reached are *parked*, together
// with the results of the run that recorded them, rather than released.
// Parked checkpoints are never resume points, only convergence
// candidates: every later edit shifts them (one shift for the whole
// parked suffix, since each edit either precedes all of them or drops
// those it overlaps) and drops those before its end, whose suffix bytes
// changed. Once an edit repairs the failure, its rescan
// reaches the parked checkpoints and converges on one exactly as on a
// live one, splicing the parked run's results — so the repair costs one
// interval, not a rescan to the end. Scan and a rescan that reaches the
// end release the parked suffix.
//
// Each checkpoint owns its segment of the stream: the match events and the
// error records up to the next checkpoint, at offsets relative to its own.
// Each recovered error is stored once, in the segment where the run
// recorded it; a skip that ends in a later segment leaves a resync record
// there, which completes the last unresolved entry when the segments are
// flattened. So convergence inside an open skip needs no special case: the
// live run's entry meets the old suffix's resync. A converged splice
// replaces the rescanned segments in place and walks the suffix once with
// integer adds — offset, counters, an open token's start, the running
// peak, each checkpoint's fixed-size first error — so the suffix's events
// and errors are never copied: shifting a checkpoint's offset moves them.
// Copies and allocations are O(rescanned segments + edit size); only that
// pass is O(suffix checkpoints). After each rescan the stream is thinned
// back to the grid: a new checkpoint keeps at least half an interval from
// its neighbours, so the count tracks the document size instead of the
// number of edits.
//
// This cashes in the paper's central asset: a stackless configuration is
// O(1) — state, depth counter, register bank — so checkpoints cost words,
// not stacks. The pushdown fallback joins via the pooled persistent stack
// (eval/stack_evaluator.h): its checkpoint is a retained node pointer,
// O(1) to take, with suffixes shared structurally between checkpoints.
//
// The session never stores document bytes: the caller owns the document
// and passes the post-edit bytes to ApplyEdit (the tree-sitter contract —
// the editor already has the buffer; duplicating 100 MB per session would
// dwarf the state being checkpointed).
//
// Results (matches, match events, first error, recovered errors, stats)
// are byte-identical to a full rescan of the edited document — the
// property suite asserts this across formats, tiers, edit kinds, and
// checkpoint intervals.
// Match events are verdict-only (end_offset stays -1): span ends live in
// the suffix, which a spliced edit deliberately never visits.
class IncrementalSession {
 public:
  // How ApplyEdit answered.
  enum class EditPath {
    kSplicedSuffix,  // converged on a live or a parked checkpoint:
                     // rescanned segments replaced, suffix rebased in
                     // place
    kScannedToEnd,   // no convergence: rescanned from the resume point to
                     // the end, or to a failure, past which the unreached
                     // candidates stay parked
  };

  struct EditOutcome {
    EditPath path = EditPath::kScannedToEnd;
    int64_t resumed_from = 0;   // offset of the checkpoint restored
    int64_t converged_at = -1;  // post-edit offset of convergence (-1 none)
    int64_t bytes_rescanned = 0;
    int64_t checkpoints_reused = 0;   // suffix checkpoints rebased in place
    int64_t checkpoints_dropped = 0;  // released: covered by the rescan,
                                      // or parked and overlapped by the
                                      // edit
  };

  // `plan` must be exact(); every machine it makes checkpoints. The sink
  // the session installs is its own verdict-only event log; callers read
  // results through the accessors.
  explicit IncrementalSession(std::shared_ptr<const QueryPlan> plan,
                              IncrementalOptions options = {});

  IncrementalSession(const IncrementalSession&) = delete;
  IncrementalSession& operator=(const IncrementalSession&) = delete;

  // Full scan of `document`, recording the checkpoint stream. Returns
  // true when the document streamed cleanly (no fatal error); results are
  // queryable either way.
  bool Scan(std::string_view document);

  // Re-evaluates after `new_bytes` replaced the byte range
  // [offset, offset + old_len) of the previously scanned document.
  // `document` is the complete post-edit document (its size must be the
  // old size + new_bytes.size() - old_len); the session reads only the
  // bytes it actually rescans. Returns how the edit was answered.
  EditOutcome ApplyEdit(int64_t offset, int64_t old_len,
                        std::string_view new_bytes,
                        std::string_view document);

  // --- Results of the last Scan/ApplyEdit (full-rescan parity) ---------
  int64_t matches() const { return results_.stats.matches; }
  // The document's match events in order, at absolute offsets. The first
  // read after a Scan or ApplyEdit flattens the checkpoint segments into
  // one log (O(matches)); later reads return it as is. Not safe to call
  // from two threads at once.
  const std::vector<MatchEvent>& match_events() const;
  const StreamStats& stats() const { return results_.stats; }
  bool failed() const { return results_.failed; }
  bool document_complete() const { return results_.complete; }
  bool machine_accepting() const { return results_.accepting; }
  const StreamError& stream_error() const { return results_.error; }
  // The errors the recovery policy absorbed, in order, at absolute
  // offsets. Flattened from the segments on the first read after a Scan or
  // ApplyEdit, like match_events(), with the same thread caveat.
  const std::vector<StreamingSelector::RecoveredError>& recovered_errors()
      const;

  // --- Observability ---------------------------------------------------
  // Checkpoints retained, parked ones included.
  size_t checkpoint_count() const { return cps_.size(); }
  int64_t document_size() const { return doc_size_; }
  const QueryPlan& plan() const { return *plan_; }

  // Checkpoint grid interval in effect.
  int64_t checkpoint_interval() const { return options_.checkpoint_interval; }

 private:
  // Verdict-only sink appending into the session's scratch event buffer.
  class EventLogSink final : public MatchSink {
   public:
    void OnMatch(const MatchEvent& event) override {
      log_->push_back(event);
    }
    void OnSpanClose(const MatchEvent&) override {}
    bool wants_spans() const override { return false; }
    void set_log(std::vector<MatchEvent>* log) { log_ = log; }

   private:
    std::vector<MatchEvent>* log_ = nullptr;
  };

  struct Results {
    StreamStats stats;
    bool failed = false;
    bool complete = false;   // document_complete() at EOF
    bool accepting = false;  // machine_accepting() at EOF
    StreamError error;
    int64_t tail_peak = 0;  // peak depth after the last checkpoint
  };

  // The convergence candidates a failed rescan did not reach: the last
  // `count` checkpoints of cps_, kept in the coordinates of the run that
  // recorded them. Every surviving parked checkpoint lies past every edit
  // applied since parking, so one shift carries all of them (and every
  // position their states and `results` hold past them) into the current
  // document; their counters stay relative to the recording run, whose
  // terminal results `results` keeps.
  struct ParkedSuffix {
    size_t count = 0;
    int64_t shift = 0;  // edited document's offset - recorded offset
    Results results;
  };

  // The live stream: cps_ without the parked suffix.
  size_t live_size() const { return cps_.size() - parked_.count; }

  // Clears all state and scans `document` from scratch, rebuilding the
  // checkpoint stream.
  void DoFullScan(std::string_view document);

  // Saves the live selector at `offset` into `out` and closes `prev`'s
  // segment, which ends there.
  void CheckpointAfter(Checkpoint* prev, int64_t offset, Checkpoint* out);

  // Moves the events logged since the last checkpoint into `cp`'s
  // segment, and records there the errors the selector recorded since
  // (see ErrorRecord), all at offsets relative to `cp->offset`.
  void CloseSegment(Checkpoint* cp);

  // Marks the selector's error history as it stands (after a Reset or a
  // restore) as already in the segments.
  void TakeHistory();

  // Composes the Results of a run that ended on the live selector (full
  // scan or scan-to-end). The peak depth is composed from the last
  // checkpoint's prefix peak plus the live tail, so cps_ must already
  // hold the final checkpoint stream.
  Results CaptureLiveResults();

  int64_t NextGrid(int64_t pos) const {
    return (pos / options_.checkpoint_interval + 1) *
           options_.checkpoint_interval;
  }

  std::shared_ptr<const QueryPlan> plan_;
  std::unique_ptr<StreamMachine> machine_;
  StreamingSelector selector_;
  IncrementalOptions options_;
  bool stack_tier_ = false;

  EventLogSink sink_;
  // Events logged since the last checkpoint, at absolute offsets.
  std::vector<MatchEvent> scratch_events_;
  // The flat logs match_events() and recovered_errors() return, built on
  // demand from the segments (their flags false until then).
  mutable std::vector<MatchEvent> events_;
  mutable bool events_current_ = false;
  mutable std::vector<StreamingSelector::RecoveredError> errors_;
  mutable bool errors_current_ = false;
  // How much of the selector's error history the segments hold: its first
  // `errors_taken_` entries, the last of them unresolved then when
  // `open_taken_` (a later resync is recorded where it happens).
  size_t errors_taken_ = 0;
  bool open_taken_ = false;

  CheckpointStream cps_;
  Results results_;
  // Empty (count 0) unless a failed rescan left candidates unreached, and
  // always under finite limits, which disable splicing.
  ParkedSuffix parked_;
  bool scanned_ = false;
  int64_t doc_size_ = 0;
};

}  // namespace sst

#endif  // SST_ENGINE_INCREMENTAL_H_

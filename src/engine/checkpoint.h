#ifndef SST_ENGINE_CHECKPOINT_H_
#define SST_ENGINE_CHECKPOINT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/match_sink.h"
#include "dra/streaming.h"

namespace sst {

// One error record of a segment, at offsets relative to the segment's
// checkpoint. A recovery is an entry the run recorded in the segment, as
// it stood when the segment closed: its resume_offset is the -1 sentinel
// while the skip it opened is still open there, and otherwise lies past
// the checkpoint, so a set one stays positive. A resync ends a skip that
// an earlier segment opened; flattening the segments writes its
// resume_offset and closed_label into the last unresolved entry. An
// entry's error offset and excise_from are always set, and excise_from may
// be negative: an XML-lite tag that straddles the checkpoint starts before
// it.
struct ErrorRecord {
  StreamingSelector::RecoveredError entry;
  bool resync = false;
};

// One recorded resume point of an incremental scan and the stream segment
// it opens: the selector's full resumable state at a document offset, the
// peak-depth aggregates the splice step needs, and the match events and
// error records of the run between this offset and the next checkpoint's
// (the last checkpoint's segment runs to the end of the document).
struct Checkpoint {
  int64_t offset = 0;  // document byte position (== bytes fed at `state`)
  // Peak nesting depth over (previous checkpoint's offset, offset]; the
  // stream's global max_depth is the max over all segment peaks plus the
  // tail — which is why an edit can splice an *exact* peak without
  // rescanning the suffix.
  int64_t segment_peak_depth = 0;
  // Peak nesting depth over [0, offset]: the running max of the segment
  // peaks up to here, so the peak of the prefix an edit keeps is one read.
  int64_t prefix_peak_depth = 0;
  SelectorCheckpoint state;
  // The segment's match events in emission order, their start and
  // certainty offsets relative to `offset` (end_offset stays -1: the log
  // is verdict-only). Shifting `offset` moves them all, so an edit before
  // the segment never touches them.
  std::vector<MatchEvent> events;
  // The segment's error records in stream order, likewise relative.
  std::vector<ErrorRecord> errors;
};

// The checkpoint stream of one scanned document: checkpoints at strictly
// increasing offsets (the first always at offset 0 — the origin), with the
// binary searches ApplyEdit needs (resume point at or before the edit,
// first convergence candidate at or after it) and the in-place splice
// that replaces the checkpoints an edit's rescan covered. A session may
// keep a parked suffix at the end, in other coordinates, so the searches
// take the index range to look in; offsets increase within each part.
// Owns no machine resources directly — releasing a checkpoint goes through
// the selector so the machine can free what the saved config retains
// (stack-tier pooled nodes). Every saved config is released exactly once:
// by Splice, Erase or Clear, never by a moved-from slot.
class CheckpointStream {
 public:
  bool empty() const { return cps_.empty(); }
  size_t size() const { return cps_.size(); }
  const Checkpoint& at(size_t i) const { return cps_[i]; }
  Checkpoint& mutable_at(size_t i) { return cps_[i]; }
  Checkpoint& back() { return cps_.back(); }

  // Appends; `cp.offset` must exceed the last recorded offset.
  void Append(Checkpoint cp);

  // Index of the last checkpoint among [0, end) with offset <= `offset`,
  // or -1 when there is none (never with an origin checkpoint recorded).
  int64_t FindResume(int64_t offset, size_t end) const;

  // Index of the first checkpoint among [from, to) with offset >=
  // `offset`; `to` if none.
  size_t FirstAtOrAfter(int64_t offset, size_t from, size_t to) const;

  // Releases checkpoints [from, to) through the selector and moves the
  // checkpoints of `with` into their place, leaving `with` empty. Slots
  // the two ranges share are move-assigned; the difference costs one
  // erase or one insert. The caller keeps offsets increasing across the
  // seams (the suffix past `to` is rebased after the splice).
  void Splice(StreamingSelector* selector, size_t from, size_t to,
              std::vector<Checkpoint>* with);

  // Releases checkpoints [from, to) through the selector and removes them.
  void Erase(StreamingSelector* selector, size_t from, size_t to);

  // Releases everything and empties the stream.
  void Clear(StreamingSelector* selector) { Erase(selector, 0, size()); }

 private:
  void ReleaseRange(StreamingSelector* selector, size_t from, size_t to);

  std::vector<Checkpoint> cps_;
};

}  // namespace sst

#endif  // SST_ENGINE_CHECKPOINT_H_

#ifndef SST_ENGINE_CHECKPOINT_H_
#define SST_ENGINE_CHECKPOINT_H_

#include <cstdint>
#include <vector>

#include "dra/streaming.h"

namespace sst {

// One recorded resume point of an incremental scan: the selector's full
// resumable state at a document offset, plus the aggregates the splice
// step needs — how many match events the prefix emitted and the exact
// peak depth of the segment this checkpoint closes.
struct Checkpoint {
  int64_t offset = 0;  // document byte position (== bytes fed at `state`)
  int64_t match_index = 0;  // match events emitted strictly before offset
  // Peak nesting depth over (previous checkpoint's offset, offset]; the
  // stream's global max_depth is the max over all segment peaks plus the
  // tail — which is why an edit can splice an *exact* peak without
  // rescanning the suffix.
  int64_t segment_peak_depth = 0;
  SelectorCheckpoint state;
};

// The checkpoint stream of one scanned document: checkpoints at strictly
// increasing offsets (the first always at offset 0 — the origin), with the
// binary searches ApplyEdit needs (resume point at or before the edit,
// first convergence candidate at or after it) and the peak-depth algebra
// of the splice step. Owns no machine resources directly — releasing a
// checkpoint goes through the selector so the machine can free what the
// saved config retains (stack-tier pooled nodes).
class CheckpointStream {
 public:
  bool empty() const { return cps_.empty(); }
  size_t size() const { return cps_.size(); }
  const Checkpoint& at(size_t i) const { return cps_[i]; }
  Checkpoint& mutable_at(size_t i) { return cps_[i]; }

  // Appends; `cp.offset` must exceed the last recorded offset.
  void Append(Checkpoint cp);

  // Index of the last checkpoint with offset <= `offset`, or -1 when the
  // stream is empty (never with an origin checkpoint recorded).
  int64_t FindResume(int64_t offset) const;

  // Index of the first checkpoint with offset >= `offset`; size() if none.
  size_t FirstAtOrAfter(int64_t offset) const;

  // Max segment peak over checkpoints [0, upto] — the exact peak depth of
  // the document prefix ending at checkpoint `upto`.
  int64_t PrefixPeak(size_t upto) const;

  // Max segment peak over checkpoints [from, size()) and `tail_peak` (the
  // peak after the last checkpoint) — the exact peak depth of the suffix
  // starting at checkpoint from-1's offset.
  int64_t SuffixPeak(size_t from, int64_t tail_peak) const;

  // Releases checkpoints [from, to) through the selector. Does not erase
  // them (callers rebuilding the stream splice survivors themselves).
  void ReleaseRange(StreamingSelector* selector, size_t from, size_t to);

  // Releases everything and empties the stream.
  void Clear(StreamingSelector* selector);

  // Replaces the underlying storage (the splice step rebuilds the stream
  // as prefix + rescan checkpoints + rebased suffix).
  void ReplaceAll(std::vector<Checkpoint> cps);

 private:
  std::vector<Checkpoint> cps_;
};

}  // namespace sst

#endif  // SST_ENGINE_CHECKPOINT_H_

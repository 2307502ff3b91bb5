#ifndef SST_BASE_MATCH_SINK_H_
#define SST_BASE_MATCH_SINK_H_

#include <cstdint>
#include <limits>
#include <vector>

namespace sst {

// One pre-selected node, reported as a byte span of the serialized input.
// The result model of earliest query answering: under pre-selection
// semantics (paper Section 2.3) a node's verdict is decided by the prefix
// ending at its opening tag, so the verdict is pushed the moment that
// prefix has been consumed — `certainty_offset`, the byte just past the
// opening token — while the node's *extent* (where its subtree ends) stays
// unknown until the matching close.
//
// Offsets are byte positions in the stream the scanner consumed:
//   start_offset      first byte of the node's opening token (the letter,
//                     the '<', or the term label byte)
//   end_offset        byte just past the node's closing token; -1 while
//                     the span is still pending, and -1 *permanently* when
//                     the stream failed or ended before the close arrived
//                     (a truncated span — reported, never dropped)
//   certainty_offset  byte just past the opening token: the provably
//                     earliest offset at which the match verdict is certain
//                     (no suffix can change it)
//
// query_id is the consumer-defined stream the event belongs to: 0 for
// single-query runs, the member index inside ProductTagMachine, and the
// submission-order query index at the BatchSession/server surface.
struct MatchEvent {
  int32_t query_id = 0;
  int64_t start_offset = 0;
  int64_t end_offset = -1;
  int64_t certainty_offset = 0;

  friend bool operator==(const MatchEvent&, const MatchEvent&) = default;
};

// Consumer of streamed match events. Two callbacks, two moments:
//
//   OnMatch      fired at the earliest certain byte, in document order of
//                opening tags. event.end_offset is -1 (span still open).
//   OnSpanClose  fired when the span resolves: end_offset is set to the
//                byte past the closing token, or stays -1 if the document
//                failed / was truncated with the span open. Nested spans
//                close inner-first (close-tag order).
//
// Both sequences are chunking-invariant and execution-tier-invariant:
// feeding the same bytes under any split schedule, on the fused byte
// table, the fused DRA table, or the generic machine tier, produces the
// same events with the same offsets in the same order.
class MatchSink {
 public:
  virtual ~MatchSink() = default;

  virtual void OnMatch(const MatchEvent& event) = 0;
  virtual void OnSpanClose(const MatchEvent& event) = 0;

  // Sinks that only consume verdicts (OnMatch) return false so the
  // recorder skips span tracking altogether: no pending buffer, no
  // OnSpanClose callbacks, and the close path of the scan loop stays a
  // single never-taken branch. Sampled once, at set_sink time.
  virtual bool wants_spans() const { return true; }
};

// The parity anchor: counts OnMatch events per query and nothing else, so
// totals are byte-identical to the count-at-Finish model it replaces
// (StreamingSelector::matches(), BatchSession::query_matches()).
class CountingSink : public MatchSink {
 public:
  // `num_queries` sizes the per-query counters (query ids beyond it are
  // clamped into the last bucket only in the sense that they are ignored;
  // callers size it from the plan).
  explicit CountingSink(int num_queries = 1)
      : counts_(static_cast<size_t>(num_queries), 0) {}

  void OnMatch(const MatchEvent& event) override {
    if (event.query_id >= 0 &&
        static_cast<size_t>(event.query_id) < counts_.size()) {
      ++counts_[static_cast<size_t>(event.query_id)];
    }
    ++total_;
  }
  void OnSpanClose(const MatchEvent&) override {}
  bool wants_spans() const override { return false; }

  const std::vector<int64_t>& counts() const { return counts_; }
  int64_t total() const { return total_; }

  void Reset() {
    counts_.assign(counts_.size(), 0);
    total_ = 0;
  }

 private:
  std::vector<int64_t> counts_;
  int64_t total_ = 0;
};

// Records both event sequences verbatim: matches() in emission (document)
// order with end_offset as known at emission time (-1), spans() in span
// resolution order with the final end_offset (or -1 for truncated spans).
// The differential tests compare whole logs across chunkings and tiers.
class CollectingSink : public MatchSink {
 public:
  void OnMatch(const MatchEvent& event) override {
    matches_.push_back(event);
  }
  void OnSpanClose(const MatchEvent& event) override {
    spans_.push_back(event);
  }

  const std::vector<MatchEvent>& matches() const { return matches_; }
  const std::vector<MatchEvent>& spans() const { return spans_; }

  void Reset() {
    matches_.clear();
    spans_.clear();
  }

 private:
  std::vector<MatchEvent> matches_;
  std::vector<MatchEvent> spans_;
};

// The bounded emission buffer between a runner and a MatchSink: holds the
// spans whose end offset is not yet known. Because pre-selection decides
// verdicts at opening tags, every pending span belongs to a node on the
// current root-to-cursor path — the buffer is a stack ordered by depth,
// at most (arity x depth) entries, and span completion is a pop.
//
// The buffer is bounded by `max_pending` (StreamLimits::
// max_pending_matches). On overflow the new event is still emitted at its
// certain offset but its span closes immediately as truncated
// (end_offset -1) instead of being buffered — deterministic, counted in
// overflowed(), and independent of chunking. FlushTruncated() reports
// every still-pending span the same way when the stream dies.
class MatchRecorder {
 public:
  static constexpr int64_t kUnlimited = std::numeric_limits<int64_t>::max();

  void set_sink(MatchSink* sink) {
    sink_ = sink;
    wants_spans_ = sink != nullptr && sink->wants_spans();
  }
  void set_max_pending(int64_t max_pending) { max_pending_ = max_pending; }

  bool active() const { return sink_ != nullptr; }

  // Non-null when the installed sink is verdict-only (wants_spans()
  // false): hot loops may then build the event themselves, call
  // OnMatch on the returned sink directly, and account for the events with
  // CountEmitted() — one virtual call each, no span bookkeeping.
  MatchSink* verdict_only_sink() const {
    return wants_spans_ ? nullptr : sink_;
  }
  void CountEmitted(int64_t events = 1) { emitted_ += events; }

  // A node at nesting depth `depth` (1-based, sampled just after its open)
  // matched query `query_id`; fires OnMatch and buffers the pending span.
  void OnMatch(int32_t query_id, int64_t depth, int64_t start,
               int64_t certainty) {
    MatchEvent event;
    event.query_id = query_id;
    event.start_offset = start;
    event.end_offset = -1;
    event.certainty_offset = certainty;
    sink_->OnMatch(event);
    ++emitted_;
    if (!wants_spans_) return;  // verdict-only sink: nothing to buffer
    if (static_cast<int64_t>(pending_.size()) >= max_pending_) {
      ++overflowed_;
      sink_->OnSpanClose(event);  // end_offset stays -1: truncated
      return;
    }
    pending_.push_back(Pending{depth, event});
    if (static_cast<int64_t>(pending_.size()) > peak_pending_) {
      peak_pending_ = static_cast<int64_t>(pending_.size());
    }
  }

  // The node at depth `depth` is closing; `end` is the byte just past its
  // closing token. Completes every pending span of that node (one per
  // matching query; deeper spans already closed, shallower ones stay).
  void OnClose(int64_t depth, int64_t end) {
    while (!pending_.empty() && pending_.back().depth >= depth) {
      MatchEvent event = pending_.back().event;
      pending_.pop_back();
      event.end_offset = end;
      sink_->OnSpanClose(event);
    }
  }

  // Fatal error or end of input with spans still open: report every
  // pending span as truncated (end_offset -1), outermost last.
  void FlushTruncated() {
    while (!pending_.empty()) {
      MatchEvent event = pending_.back().event;
      pending_.pop_back();
      sink_->OnSpanClose(event);  // end_offset is already -1
    }
  }

  void Reset() {
    pending_.clear();
    emitted_ = 0;
    overflowed_ = 0;
    peak_pending_ = 0;
  }

  int64_t pending() const { return static_cast<int64_t>(pending_.size()); }
  int64_t peak_pending() const { return peak_pending_; }
  int64_t emitted() const { return emitted_; }
  int64_t overflowed() const { return overflowed_; }

 private:
  struct Pending {
    int64_t depth;
    MatchEvent event;
  };

  MatchSink* sink_ = nullptr;
  bool wants_spans_ = true;
  int64_t max_pending_ = kUnlimited;
  std::vector<Pending> pending_;
  int64_t emitted_ = 0;
  int64_t overflowed_ = 0;
  int64_t peak_pending_ = 0;
};

}  // namespace sst

#endif  // SST_BASE_MATCH_SINK_H_

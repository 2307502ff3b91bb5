#include "engine/incremental.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "base/check.h"

namespace sst {

namespace {

using RecoveredError = StreamingSelector::RecoveredError;

// Shifts every absolute byte position a suffix record carries by the
// edit's net size change. Sentinel -1 positions stay sentinels.
StreamError RebaseError(StreamError err, int64_t delta) {
  if (err.offset >= 0) err.offset += delta;
  return err;
}

// Moves a recorded entry by `by` bytes: between absolute and
// segment-relative offsets, or along an edit. Its error offset and
// excise_from are always set; resume_offset keeps its -1 sentinel (see
// ErrorRecord).
RecoveredError Shifted(RecoveredError entry, int64_t by) {
  entry.error.offset += by;
  entry.excise_from += by;
  if (entry.resume_offset >= 0) entry.resume_offset += by;
  return entry;
}

// The first error among a segment's records, at `base` + its relative
// offset; ok() when the segment recorded none. A resync can only come
// first, so this reads at most two records.
StreamError FirstRecorded(const std::vector<ErrorRecord>& errors,
                          int64_t base) {
  for (const ErrorRecord& record : errors) {
    if (!record.resync) return RebaseError(record.entry.error, base);
  }
  return StreamError{};
}

// Carries an old-run prefix aggregate at or past the converged checkpoint
// into the edited run: every additive counter gains the suffix delta, the
// live value at convergence (`live`) minus the checkpoint's (`old`). The
// peak depth and the first error's offset are not sums; the splice
// recomposes them.
StreamCounters Rebase(StreamCounters c, const StreamCounters& live,
                      const StreamCounters& old) {
  c.bytes_fed += live.bytes_fed - old.bytes_fed;
  c.chunks_fed += live.chunks_fed - old.chunks_fed;
  c.events += live.events - old.events;
  c.matches += live.matches - old.matches;
  c.errors_recovered += live.errors_recovered - old.errors_recovered;
  c.subtrees_skipped += live.subtrees_skipped - old.subtrees_skipped;
  return c;
}

}  // namespace

IncrementalSession::IncrementalSession(std::shared_ptr<const QueryPlan> plan,
                                       IncrementalOptions options)
    : plan_(std::move(plan)),
      machine_(plan_->NewMachine()),
      selector_(machine_.get(), plan_->options().format, &plan_->alphabet(),
                &plan_->scanner_tables(), plan_->fused(), plan_->fused_dra()),
      options_(options) {
  SST_CHECK_MSG(machine_ != nullptr,
                "IncrementalSession requires an exact plan");
  SST_CHECK(options_.checkpoint_interval >= 1);
  stack_tier_ = plan_->kind() == EvaluatorKind::kStackBaseline;
  selector_.set_recovery_policy(options_.policy);
  selector_.set_limits(options_.limits);
  sink_.set_log(&scratch_events_);
  selector_.set_match_sink(&sink_);
  SelectorCheckpoint origin;
  SST_CHECK_MSG(selector_.SaveCheckpoint(&origin),
                "IncrementalSession requires a machine that checkpoints");
  selector_.ReleaseCheckpoint(origin);
}

void IncrementalSession::TakeHistory() {
  const std::vector<RecoveredError>& history = selector_.recovered_errors();
  errors_taken_ = history.size();
  open_taken_ = !history.empty() && history.back().resume_offset < 0;
}

void IncrementalSession::CloseSegment(Checkpoint* cp) {
  cp->events.assign(scratch_events_.begin(), scratch_events_.end());
  for (MatchEvent& e : cp->events) {
    e.start_offset -= cp->offset;
    e.certainty_offset -= cp->offset;
  }
  scratch_events_.clear();
  const std::vector<RecoveredError>& history = selector_.recovered_errors();
  cp->errors.clear();
  if (open_taken_ && history[errors_taken_ - 1].resume_offset >= 0) {
    cp->errors.push_back(
        {Shifted(history[errors_taken_ - 1], -cp->offset), true});
  }
  for (size_t i = errors_taken_; i < history.size(); ++i) {
    cp->errors.push_back({Shifted(history[i], -cp->offset), false});
  }
  TakeHistory();
}

void IncrementalSession::CheckpointAfter(Checkpoint* prev, int64_t offset,
                                         Checkpoint* out) {
  SST_CHECK(selector_.SaveCheckpoint(&out->state));
  out->offset = offset;
  out->segment_peak_depth = selector_.TakeSegmentPeakDepth();
  out->prefix_peak_depth =
      std::max(prev->prefix_peak_depth, out->segment_peak_depth);
  CloseSegment(prev);
}

const std::vector<MatchEvent>& IncrementalSession::match_events() const {
  if (!events_current_) {
    events_.clear();
    events_.reserve(static_cast<size_t>(results_.stats.matches));
    for (size_t i = 0; i < live_size(); ++i) {
      const Checkpoint& cp = cps_.at(i);
      for (MatchEvent e : cp.events) {
        e.start_offset += cp.offset;
        e.certainty_offset += cp.offset;
        events_.push_back(e);
      }
    }
    events_current_ = true;
  }
  return events_;
}

const std::vector<RecoveredError>& IncrementalSession::recovered_errors()
    const {
  if (!errors_current_) {
    errors_.clear();
    for (size_t i = 0; i < live_size(); ++i) {
      const Checkpoint& cp = cps_.at(i);
      for (const ErrorRecord& record : cp.errors) {
        const RecoveredError entry = Shifted(record.entry, cp.offset);
        if (!record.resync) {
          errors_.push_back(entry);
          continue;
        }
        SST_CHECK(!errors_.empty() && errors_.back().resume_offset < 0);
        errors_.back().resume_offset = entry.resume_offset;
        errors_.back().closed_label = entry.closed_label;
      }
    }
    errors_current_ = true;
  }
  return errors_;
}

IncrementalSession::Results IncrementalSession::CaptureLiveResults() {
  Results r;
  r.tail_peak = selector_.TakeSegmentPeakDepth();
  StreamStats st = selector_.stats();
  // The selector's running peaks were re-based at every checkpoint
  // (TakeSegmentPeakDepth) and at every restore, so the whole-run peak is
  // the last checkpoint's prefix peak plus the live tail. Stack size
  // tracks element depth exactly on selector-driven streams, so the stack
  // tier's peak composes the same way.
  st.max_depth = std::max({cps_.at(live_size() - 1).prefix_peak_depth,
                           r.tail_peak, st.max_depth});
  if (stack_tier_) st.max_stack_depth = st.max_depth;
  // After a restore the recorder's emission counter covers only the
  // rescan; single-query verdict-only emission is one event per match.
  st.matches_emitted = st.matches;
  st.pending_matches_peak = 0;
  r.stats = st;
  r.failed = selector_.failed();
  r.complete = selector_.document_complete();
  r.accepting = selector_.machine_accepting();
  r.error = selector_.stream_error();
  return r;
}

void IncrementalSession::DoFullScan(std::string_view document) {
  // Release retained machine resources before Reset wipes the machine's
  // slot table (the reverse order would release stale handles).
  cps_.Clear(&selector_);
  parked_.count = 0;
  scratch_events_.clear();
  selector_.Reset();
  TakeHistory();

  Checkpoint origin;
  SST_CHECK(selector_.SaveCheckpoint(&origin.state));
  cps_.Append(std::move(origin));

  const int64_t n = static_cast<int64_t>(document.size());
  int64_t pos = 0;
  while (pos < n && !selector_.failed()) {
    const int64_t target = std::min(n, NextGrid(pos));
    if (!selector_.Feed(document.substr(static_cast<size_t>(pos),
                                        static_cast<size_t>(target - pos)))) {
      break;
    }
    pos = target;
    if (pos < n) {
      Checkpoint cp;
      CheckpointAfter(&cps_.back(), pos, &cp);
      cps_.Append(std::move(cp));
    }
  }
  if (!selector_.failed()) selector_.Finish();

  CloseSegment(&cps_.back());
  events_current_ = false;
  errors_current_ = false;
  results_ = CaptureLiveResults();
  doc_size_ = n;
  scanned_ = true;
}

bool IncrementalSession::Scan(std::string_view document) {
  DoFullScan(document);
  return !results_.failed;
}

IncrementalSession::EditOutcome IncrementalSession::ApplyEdit(
    int64_t offset, int64_t old_len, std::string_view new_bytes,
    std::string_view document) {
  SST_CHECK_MSG(scanned_, "ApplyEdit requires a prior Scan");
  SST_CHECK(offset >= 0 && old_len >= 0 && offset + old_len <= doc_size_);
  const int64_t delta = static_cast<int64_t>(new_bytes.size()) - old_len;
  SST_CHECK_MSG(static_cast<int64_t>(document.size()) == doc_size_ + delta,
                "post-edit document size does not match the edit");
  SST_CHECK_MSG(
      document.substr(static_cast<size_t>(offset), new_bytes.size()) ==
          new_bytes,
      "post-edit document does not contain new_bytes at the edit offset");

  EditOutcome out;
  const size_t live_end = live_size();
  // The origin, at offset 0, precedes every edit.
  const int64_t ri = cps_.FindResume(offset, live_end);
  SST_CHECK(ri >= 0);
  const size_t resume = static_cast<size_t>(ri);
  SST_CHECK(selector_.RestoreCheckpoint(cps_.at(resume).state));
  TakeHistory();

  // A parked checkpoint before the edit's end has a changed suffix, so it
  // can never converge again; the rest lie past the edit and shift by its
  // delta.
  const size_t fresh = cps_.FirstAtOrAfter(offset + old_len - parked_.shift,
                                           live_end, cps_.size());
  cps_.Erase(&selector_, live_end, fresh);
  parked_.count -= fresh - live_end;
  parked_.shift += delta;
  out.checkpoints_dropped = static_cast<int64_t>(fresh - live_end);

  const int64_t n_new = static_cast<int64_t>(document.size());
  const int64_t resume_off = cps_.at(resume).offset;
  scratch_events_.clear();
  events_current_ = false;
  errors_current_ = false;
  out.resumed_from = resume_off;

  // Convergence candidates: recorded checkpoints strictly past both the
  // edited region and the resume point — the live stream's from `cand` on,
  // then the parked suffix, which lies past all of them. A candidate can
  // only match at exactly its shifted offset, so failed candidates are
  // skipped for good (they land in the dropped range when a later one
  // converges).
  const bool splice_ok = options_.limits.unlimited();
  size_t cand = std::max(cps_.FirstAtOrAfter(offset + old_len, 0, live_end),
                         resume + 1);
  // What carries a candidate's recorded positions into the edited
  // document.
  auto shift_of = [&](size_t c) {
    return c < live_end ? delta : parked_.shift;
  };
  auto candidate_at = [&](size_t c) {
    return cps_.at(c).offset + shift_of(c);
  };
  const int64_t grid = options_.checkpoint_interval;
  // Thinning keeps the stream on the grid's spacing. The rescan cuts the
  // stretch from its last checkpoint to the next candidate one interval
  // on while two or more intervals remain, cuts it in the middle when four
  // thirds to two remain, and leaves a shorter stretch whole; a converged
  // splice drops the candidate when it lies less than half an interval
  // past the rescan's last checkpoint. So a rescanned segment is between
  // half an interval and four thirds long, one that edits grew past that
  // splits into halves the next time an edit rescans it, and the count
  // tracks the document's size instead of the number of edits. (At least
  // one byte: at interval 1 a deletion can converge right at the resume
  // point, and two checkpoints never share an offset.)
  const int64_t min_gap = std::max<int64_t>(grid / 2, 1);
  auto next_split = [&](int64_t last, int64_t next) -> int64_t {
    const int64_t len = next - last;
    if (len / 2 >= grid) return last + grid;
    if (len > grid && len - grid >= grid / 3) return last + len / 2;
    return INT64_MAX;
  };
  std::vector<Checkpoint> rescan_cps;
  auto last_cp = [&]() -> Checkpoint& {
    return rescan_cps.empty() ? cps_.mutable_at(resume) : rescan_cps.back();
  };
  bool converged = false;
  int64_t scan_pos = resume_off;

  while (true) {
    if (splice_ok && !selector_.failed() && cand < cps_.size() &&
        candidate_at(cand) == scan_pos) {
      // A failed recording run whose first error predates this candidate
      // lost the fatal error's record (only the first error is stored), so
      // the spliced first-error could not be composed — skip the
      // candidate.
      const SelectorCheckpoint& state = cps_.at(cand).state;
      const bool recorder_failed =
          cand < live_end ? results_.failed : parked_.results.failed;
      if ((!recorder_failed || state.stream_error.ok()) &&
          selector_.CheckpointConverged(state, shift_of(cand))) {
        converged = true;
        break;
      }
      ++cand;
    }
    if (scan_pos >= n_new || selector_.failed()) break;
    const int64_t next_cand =
        splice_ok && cand < cps_.size() ? candidate_at(cand) : INT64_MAX;
    if (scan_pos >= next_split(last_cp().offset, next_cand) &&
        next_cand - scan_pos >= min_gap) {
      Checkpoint cp;
      CheckpointAfter(&last_cp(), scan_pos, &cp);
      rescan_cps.push_back(std::move(cp));
    }
    // Feed up to the next split or candidate; past a split the rescan did
    // not take (too close to the candidate), up to that candidate.
    const int64_t split = next_split(last_cp().offset, next_cand);
    const int64_t target =
        std::min({n_new, next_cand, split > scan_pos ? split : INT64_MAX});
    if (!selector_.Feed(document.substr(static_cast<size_t>(scan_pos),
                                        static_cast<size_t>(target -
                                                            scan_pos)))) {
      break;
    }
    scan_pos = target;
  }

  if (!converged) {
    // No configuration match: the rescan ran to EOF or failed. Counters
    // are exact without splicing — the restore seeded them with exact
    // prefix values — which is also why finite limits are safe on this
    // path.
    if (!selector_.failed()) selector_.Finish();
    CloseSegment(&last_cp());
    out.path = EditPath::kScannedToEnd;
    // What the rescan did not reach stays: nothing when it reached the end
    // or splicing is off; after a failure, the parked suffix if one waits
    // past the failure, else the live candidates past it, parked with the
    // results of the run that recorded them.
    size_t keep = cps_.size();
    if (selector_.failed() && splice_ok) {
      keep = parked_.count > 0 ? std::max(cand, live_end) : cand;
      if (keep < live_end) {
        parked_.results = std::move(results_);
        parked_.shift = delta;
      }
    }
    parked_.count = cps_.size() - keep;
    out.checkpoints_dropped += static_cast<int64_t>(keep - (resume + 1));
    cps_.Splice(&selector_, resume + 1, keep, &rescan_cps);
    results_ = CaptureLiveResults();
    out.bytes_rescanned = results_.stats.bytes_fed - resume_off;
    doc_size_ = n_new;
    return out;
  }

  // --- Converged: splice the suffix ------------------------------------
  // Convergence on a parked checkpoint: the rescan passed every live
  // candidate, so the splice below releases them with the parked ones it
  // passed, the parked suffix from cj on becomes the live suffix, and the
  // parked run's results are the ones the splice rebases, by the parked
  // shift. Convergence on a live checkpoint leaves the parked suffix as
  // it is: its counters belong to its own run.
  const bool on_parked = cand >= live_end;
  const int64_t shift = shift_of(cand);
  if (on_parked) {
    results_ = std::move(parked_.results);
    parked_.count = 0;
  }

  // What the splice reads of the live run and of the converged checkpoint
  // cj, copied before the stream changes under it.
  const size_t j = cand;
  const StreamStats live = selector_.stats();
  const int64_t live_conv_peak = selector_.TakeSegmentPeakDepth();
  const Checkpoint& cj = cps_.at(j);
  const StreamCounters cj_counters = cj.state.run.counters;
  // The first error of a suffix checkpoint, and of the results: the live
  // run's when it has one (the live region precedes the suffix);
  // otherwise, when cj recorded none, the old one shifted (any earlier one
  // would have been at or before cj); otherwise the first error recorded
  // past cj, which the pass below tracks as `past_cj`. A
  // fatal-after-recoveries suffix was excluded at candidate selection.
  // Nothing moves when neither run has an error.
  const StreamError live_error = selector_.stream_error();
  const bool cj_clean = cj.state.stream_error.ok();
  const bool errors_move = !live_error.ok() || !results_.error.ok();
  StreamError past_cj;
  auto first_error = [&](const StreamError& old) {
    if (!live_error.ok()) return live_error;
    return cj_clean ? RebaseError(old, shift) : past_cj;
  };
  // A skip open at cj is the live run's: its entry is the one the suffix's
  // first resync completes. A suffix checkpoint still inside that skip (no
  // record between cj and it) holds the live entry; one inside a later
  // skip, its own entry shifted.
  bool in_live_skip = cj.state.run.in_skip;
  const RecoveredError live_skip =
      in_live_skip ? selector_.recovered_errors().back() : RecoveredError{};

  // The rescan's last segment ends at convergence. Thinning: when that
  // leaves cj within half an interval of the checkpoint before it, cj is
  // dropped and its segment joins the rescan's — its events and errors
  // shift to the earlier base, its peak moves to the next segment (or the
  // tail).
  Checkpoint& last = last_cp();
  CloseSegment(&last);
  const bool drop_cj = scan_pos - last.offset < min_gap;
  if (drop_cj) {
    const int64_t gap = scan_pos - last.offset;
    last.events.reserve(last.events.size() + cj.events.size());
    for (MatchEvent e : cj.events) {
      e.start_offset += gap;
      e.certainty_offset += gap;
      last.events.push_back(e);
    }
    for (const ErrorRecord& record : cj.errors) {
      last.errors.push_back({Shifted(record.entry, gap), record.resync});
    }
    past_cj = FirstRecorded(cj.errors, scan_pos);
    in_live_skip = in_live_skip && cj.errors.empty();
  }
  const int64_t prefix_peak =
      std::max(last.prefix_peak_depth, live_conv_peak);
  const size_t suffix = resume + 1 + rescan_cps.size();
  const size_t released = j + (drop_cj ? 1 : 0) - (resume + 1);
  cps_.Splice(&selector_, resume + 1, j + (drop_cj ? 1 : 0), &rescan_cps);
  const size_t suffix_end = live_size();

  // Rebase the surviving suffix in place: offsets by the shift, counters
  // by the suffix delta (Rebase), peaks recomposed from segment peaks,
  // first errors and open skips recomposed as above.
  int64_t peak = prefix_peak;
  for (size_t k = suffix; k < suffix_end; ++k) {
    Checkpoint& cp = cps_.mutable_at(k);
    cp.offset += shift;
    if (k == suffix) {
      cp.segment_peak_depth =
          drop_cj ? std::max(cp.segment_peak_depth, live_conv_peak)
                  : live_conv_peak;
    }
    peak = std::max(peak, cp.segment_peak_depth);
    cp.prefix_peak_depth = peak;
    SelectorCheckpoint& s = cp.state;
    s.run.counters = Rebase(s.run.counters, live, cj_counters);
    if (s.run.token.open) s.run.token.start += shift;
    if (errors_move) {
      s.stream_error = first_error(s.stream_error);
      s.run.counters.error_offset =
          s.stream_error.ok() ? -1 : s.stream_error.offset;
      if (s.run.in_skip) {
        s.open_skip = in_live_skip ? live_skip : Shifted(s.open_skip, shift);
      }
      if (past_cj.ok()) past_cj = FirstRecorded(cp.errors, cp.offset);
      in_live_skip = in_live_skip && cp.errors.empty();
    }
  }
  SST_CHECK(suffix == suffix_end ||
            cps_.at(suffix - 1).offset < cps_.at(suffix).offset);
  if (drop_cj && suffix == suffix_end) {
    results_.tail_peak = std::max(results_.tail_peak, live_conv_peak);
  }
  peak = std::max(peak, results_.tail_peak);

  // The results, in place. The suffix never re-ran, so its terminal
  // verdicts (failed, complete, accepting) carry over: equal
  // configurations at cj plus identical suffix bytes give the same run.
  results_.error = first_error(results_.error);
  StreamStats& st = results_.stats;
  static_cast<StreamCounters&>(st) = Rebase(st, live, cj_counters);
  st.max_depth = peak;
  st.error_offset = results_.error.ok() ? -1 : results_.error.offset;
  st.matches_emitted = st.matches;
  st.pending_matches_peak = 0;
  st.max_stack_depth = stack_tier_ ? peak : 0;
  // The selector never hands its machine a close with nothing open, so no
  // selector-driven run counts an underflow.
  st.underflow_closes = live.underflow_closes;

  out.path = EditPath::kSplicedSuffix;
  out.converged_at = scan_pos;
  out.bytes_rescanned = scan_pos - resume_off;
  out.checkpoints_reused = static_cast<int64_t>(suffix_end - suffix);
  out.checkpoints_dropped += static_cast<int64_t>(released);
  doc_size_ = n_new;
  return out;
}

}  // namespace sst

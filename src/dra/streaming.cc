#include "dra/streaming.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <type_traits>

#include "base/byte_scan.h"
#include "base/check.h"
#include "eval/stack_evaluator.h"

namespace sst {

namespace {

// ASCII whitespace, independent of the process locale (std::isspace is
// locale-dependent and one hash-of-locale call per byte besides).
inline bool IsAsciiWs(unsigned char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

inline bool IsAsciiAlnum(unsigned char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
         (c >= 'A' && c <= 'Z');
}

#if defined(__GNUC__) || defined(__clang__)
#define SST_NOINLINE __attribute__((noinline))
#define SST_ALWAYS_INLINE __attribute__((always_inline)) inline
#define SST_UNLIKELY(x) __builtin_expect(static_cast<bool>(x), 0)
#else
#define SST_NOINLINE
#define SST_ALWAYS_INLINE inline
#define SST_UNLIKELY(x) (x)
#endif

// Out-of-line recorder entry point for the scan loops: keeping emission
// bodies (event construction, virtual sink dispatch, pending-stack
// maintenance) out of the loops keeps their register allocation intact.
SST_NOINLINE void RecordSpanClose(MatchRecorder& recorder, int64_t depth,
                                  int64_t end) {
  recorder.OnClose(depth, end);
}

// An XML-lite tag starting at the '<' at `i`, lexed where it lies.
// complete: its '>' is inside the chunk and its name (after an optional
// leading '/') is 1 to kMaxTagBytes bytes — the tags the in-place lexer
// takes; any other goes through the partial-tag buffer.
struct InPlaceTag {
  bool complete;
  bool closing;
  size_t name;      // first name byte
  size_t name_end;  // the '>' (or the chunk end)
};

SST_ALWAYS_INLINE InPlaceTag LexInPlace(const char* bytes, size_t n,
                                        size_t i) {
  InPlaceTag tag;
  size_t j = i + 1;
  tag.closing = j < n && bytes[j] == '/';
  j += tag.closing ? 1 : 0;
  tag.name = j;
  while (j < n && bytes[j] != '>') ++j;
  tag.name_end = j;
  const size_t name_len = j - tag.name;
  tag.complete = j < n && name_len > 0 &&
                 name_len <= StreamingSelector::kMaxTagBytes;
  return tag;
}

// Symbol of an XML-lite tag name; single bytes through the byte table.
SST_ALWAYS_INLINE Symbol LookupTag(const ScannerTables& tables,
                                   const Alphabet& alphabet, const char* name,
                                   size_t name_len) {
  return name_len == 1
             ? tables.byte_symbol[static_cast<unsigned char>(name[0])]
             : alphabet.Find(std::string_view(name, name_len));
}

}  // namespace

ScannerTables ScannerTables::Build(StreamFormat format,
                                   const Alphabet& alphabet) {
  ScannerTables tables;
  std::array<Symbol, 256> interned = alphabet.ByteSymbolTable();
  tables.byte_class.fill(kBad);
  tables.byte_symbol.fill(-1);
  for (int c = 0; c < 256; ++c) {
    unsigned char b = static_cast<unsigned char>(c);
    if (IsAsciiWs(b)) tables.byte_class[c] = kWs;
  }
  switch (format) {
    case StreamFormat::kCompactMarkup:
      for (int c = 'a'; c <= 'z'; ++c) {
        tables.byte_class[c] = kOpen;
        tables.byte_symbol[c] = interned[c];
        tables.byte_class[c - 'a' + 'A'] = kClose;
        tables.byte_symbol[c - 'a' + 'A'] = interned[c];
      }
      break;
    case StreamFormat::kCompactTerm:
      for (int c = 0; c < 256; ++c) {
        unsigned char b = static_cast<unsigned char>(c);
        if (IsAsciiAlnum(b) || b == '_' || b == '-') {
          tables.byte_class[c] = kLabel;
          tables.byte_symbol[c] = interned[c];
        }
      }
      tables.byte_class[static_cast<unsigned char>('}')] = kCloseBrace;
      break;
    case StreamFormat::kXmlLite:
      // XML-lite lexing branches on '<' and '>' directly; names are looked
      // up per tag, with the single-byte table as a shortcut.
      tables.byte_symbol = interned;
      break;
  }
  return tables;
}

bool FusedByteTableEligible(StreamFormat format, const TagDfa& dfa,
                            const Alphabet& alphabet) {
  return format == StreamFormat::kCompactMarkup &&
         alphabet.size() <= dfa.num_symbols && alphabet.CompactLabels();
}

StreamingSelector::StreamingSelector(StreamMachine* machine, Format format,
                                     const Alphabet* alphabet)
    : machine_(machine), format_(format), alphabet_(alphabet) {
  owned_tables_ =
      std::make_unique<ScannerTables>(ScannerTables::Build(format, *alphabet));
  tables_ = owned_tables_.get();
  labels_.assign(kDepthReserve + 2, kNoLabel);
  if (const TagDfa* dfa = machine_->ExportTagDfa()) {
    if (FusedByteTableEligible(format_, *dfa, *alphabet_)) {
      owned_fused_ = std::make_unique<ByteTagDfaRunner>(*dfa, *alphabet_);
      fused_ = owned_fused_.get();
    }
  } else if (const Dra* dra = machine_->ExportDra()) {
    // Stackless fused tier, keyed by symbol on every format: it needs
    // restrictedness (the fused table's open/close layout is only sound
    // then) and a table budget — the close table has 3^r columns per
    // (state, symbol) and an unrestricted register count could make it
    // enormous.
    if (alphabet_->size() == dra->num_symbols && IsRestricted(*dra) &&
        static_cast<int64_t>(dra->num_states) * dra->num_symbols *
                dra->NumCmpCodes() <=
            kFusedDraEntryBudget) {
      owned_fused_dra_ = std::make_unique<ByteDraRunner>(dra, *alphabet_);
      fused_dra_ = owned_fused_dra_.get();
    }
  }
  // Batch and stack-tier steppers ride every format: they are keyed by
  // symbol.
  if (fused_ == nullptr && fused_dra_ == nullptr) {
    product_ = machine_->ExportProductStepper();
    stack_ = machine_->ExportStackEvaluator();
  }
  CheckTableAgreement();
  Reset();
}

StreamingSelector::StreamingSelector(StreamMachine* machine, Format format,
                                     const Alphabet* alphabet,
                                     const ScannerTables* tables,
                                     const ByteTagDfaRunner* fused,
                                     const ByteDraRunner* fused_dra)
    : machine_(machine),
      format_(format),
      alphabet_(alphabet),
      tables_(tables),
      fused_(fused),
      fused_dra_(fused_dra) {
  SST_CHECK(tables_ != nullptr);
  SST_CHECK(fused_ == nullptr || fused_dra_ == nullptr);
  if (fused_ != nullptr) {
    // The fused tier syncs the machine's exported state around each chunk,
    // so a shared fused table is only sound for a machine that actually
    // exports a TagDfa (of matching size) on the compact-markup format.
    SST_CHECK(format_ == Format::kCompactMarkup);
    const TagDfa* dfa = machine_->ExportTagDfa();
    SST_CHECK(dfa != nullptr && dfa->num_states == fused_->num_states());
  }
  if (fused_dra_ != nullptr) {
    // Likewise for the stackless tier (any format): the full configuration
    // is synced around each chunk, so the machine must export a DRA the
    // shared fused table was built from.
    const Dra* dra = machine_->ExportDra();
    SST_CHECK(dra != nullptr && dra->num_states == fused_dra_->num_states());
  }
  // Batch and stack-tier steppers ride every format: they are keyed by
  // symbol.
  if (fused_ == nullptr && fused_dra_ == nullptr) {
    product_ = machine_->ExportProductStepper();
    stack_ = machine_->ExportStackEvaluator();
  }
  labels_.assign(kDepthReserve + 2, kNoLabel);
  CheckTableAgreement();
  Reset();
}

void StreamingSelector::CheckTableAgreement() const {
#ifndef NDEBUG
  // The structural index (ClassifyBlock / ForEachStructuralUntil) skips
  // exactly the bytes the scanner classifies kWs; the scan loops rely on
  // the two definitions agreeing byte for byte (a structural byte must
  // never be classified kWs, and vice versa).
  for (int c = 0; c < 256; ++c) {
    SST_CHECK((tables_->byte_class[c] == ScannerTables::kWs) ==
              ByteIsAsciiWs(static_cast<unsigned char>(c)));
  }
  // The scanner tables and the fused byte table are built independently
  // from the same Alphabet (satellite of the compile-once refactor:
  // previously each layer derived its own copy with no cross-check). They
  // must agree on every letter byte: same symbol, open/close polarity
  // matching the case convention.
  if (fused_ == nullptr &&
      (fused_dra_ == nullptr || format_ != Format::kCompactMarkup ||
       !fused_dra_->compact_labels())) {
    return;
  }
  for (int c = 'a'; c <= 'z'; ++c) {
    SST_CHECK(tables_->byte_class[c] == ScannerTables::kOpen);
    SST_CHECK(tables_->byte_class[c - 'a' + 'A'] == ScannerTables::kClose);
    if (fused_ != nullptr) {
      SST_CHECK(fused_->byte_symbol(static_cast<unsigned char>(c)) ==
                tables_->byte_symbol[c]);
      SST_CHECK(
          fused_->byte_symbol(static_cast<unsigned char>(c - 'a' + 'A')) ==
          tables_->byte_symbol[c - 'a' + 'A']);
    }
    if (fused_dra_ != nullptr && fused_dra_->compact_labels()) {
      SST_CHECK(fused_dra_->byte_symbol(static_cast<unsigned char>(c)) ==
                tables_->byte_symbol[c]);
      SST_CHECK(
          fused_dra_->byte_symbol(static_cast<unsigned char>(c - 'a' + 'A')) ==
          tables_->byte_symbol[c - 'a' + 'A']);
    }
  }
#endif
}

void StreamingSelector::set_limits(const StreamLimits& limits) {
  const char* defect = limits.Validate();
  SST_CHECK_MSG(defect == nullptr, defect);
  limits_ = limits;
  recorder_.set_max_pending(limits.max_pending_matches);
}

void StreamingSelector::RecordMatch(int64_t start, int64_t certainty) {
  member_scratch_.clear();
  machine_->AppendSelectedMembers(&member_scratch_);
  for (int32_t member : member_scratch_) {
    recorder_.OnMatch(member, run_.depth, start, certainty);
  }
}

void StreamingSelector::Reset() {
  machine_->Reset();
  run_ = RunState{};
  failed_ = false;
  // The error history is cleared in place, so a pooled selector's Reset
  // keeps its capacity and allocates nothing.
  stream_error_ = StreamError{};
  error_.clear();
  recovered_errors_.clear();
  recorder_.Reset();  // keeps the sink and max_pending wiring
}

bool StreamingSelector::SaveCheckpoint(SelectorCheckpoint* out) {
  SST_CHECK(!failed_);
  // Pending spans belong to nodes whose close has not arrived; resuming
  // from a checkpoint would have to re-buffer them, which the recorder
  // cannot express. Verdict-only sinks (the incremental engine's own)
  // never buffer, so this rejects only span-collecting configurations.
  if (recorder_.pending() > 0) return false;
  if (!machine_->SaveConfig(&out->machine_config)) return false;
  out->open_labels.assign(labels_.begin() + 1,
                          labels_.begin() + 1 + run_.depth);
  out->run = run_;
  if (!run_.token.open) out->run.token = PartialToken{};
  out->token_bytes.assign(token_buf_, out->run.token.len);
  out->stream_error = stream_error_;
  out->open_skip = run_.in_skip ? recovered_errors_.back() : RecoveredError{};
  return true;
}

bool StreamingSelector::RestoreCheckpoint(const SelectorCheckpoint& cp) {
  if (!machine_->RestoreConfig(cp.machine_config)) return false;
  SST_CHECK(static_cast<int64_t>(cp.open_labels.size()) == cp.run.depth);
  SST_CHECK(cp.token_bytes.size() == cp.run.token.len &&
            cp.run.token.len <= kMaxTagBytes);
  if (labels_.size() < cp.open_labels.size() + 2) {
    labels_.resize(cp.open_labels.size() + 2);
  }
  std::copy(cp.open_labels.begin(), cp.open_labels.end(), labels_.begin() + 1);
  std::memcpy(token_buf_, cp.token_bytes.data(), cp.token_bytes.size());
  run_ = cp.run;
  // Segment-peak accounting (TakeSegmentPeakDepth): the running peak
  // restarts at the restored depth.
  run_.counters.max_depth = run_.depth;
  failed_ = false;
  stream_error_ = cp.stream_error;
  error_ = stream_error_.ok() ? std::string() : stream_error_.Render(alphabet_);
  recovered_errors_.clear();
  if (cp.run.in_skip) recovered_errors_.push_back(cp.open_skip);
  recorder_.Reset();  // keeps the sink and max_pending wiring
  return true;
}

void StreamingSelector::ReleaseCheckpoint(const SelectorCheckpoint& cp) {
  machine_->ReleaseConfig(cp.machine_config);
}

bool StreamingSelector::CheckpointConverged(const SelectorCheckpoint& cp,
                                            int64_t delta) const {
  // Counters are prefix aggregates, spliced separately — but whether the
  // root has opened is read off them, and it decides the future (trailing
  // content).
  if (failed_ || run_.saw_root() != cp.run.saw_root()) return false;
  // The live state in the recorded coordinates: an open token's start
  // shifts with the edit, and a closed token's fields are leftovers.
  RunState live = run_;
  live.counters = cp.run.counters;
  if (live.token.open) {
    live.token.start -= delta;
  } else {
    live.token = PartialToken{};
  }
  if (!(live == cp.run) ||
      std::memcmp(token_buf_, cp.token_bytes.data(), live.token.len) != 0) {
    return false;
  }
  if (!std::equal(cp.open_labels.begin(), cp.open_labels.end(),
                  labels_.begin() + 1)) {
    return false;
  }
  return machine_->ConfigEqualsCurrent(cp.machine_config);
}

int64_t StreamingSelector::TakeSegmentPeakDepth() {
  int64_t peak = run_.counters.max_depth;
  run_.counters.max_depth = run_.depth;
  return peak;
}

StreamError StreamingSelector::MakeError(StreamErrorCode code, int64_t offset,
                                         Symbol expected, Symbol got) const {
  StreamError err;
  err.code = code;
  err.offset = offset;
  err.depth = run_.depth;
  err.expected = expected;
  err.got = got;
  return err;
}

void StreamingSelector::NoteFirstError(const StreamError& err) {
  if (!stream_error_.ok()) return;
  stream_error_ = err;
  error_ = err.Render(alphabet_);
  run_.counters.error_offset = err.offset;
}

bool StreamingSelector::FailAt(const StreamError& err) {
  failed_ = true;
  NoteFirstError(err);
  // bytes_fed reports the consumed prefix on failure: rewind past the
  // in-flight chunk tail so the counter is chunk-invariant.
  int64_t& bytes_fed = run_.counters.bytes_fed;
  if (err.offset >= 0 && err.offset < bytes_fed) bytes_fed = err.offset;
  // Spans whose close will never arrive are reported truncated, not
  // dropped: every sink sees the same events before and after the error.
  if (recorder_.active()) recorder_.FlushTruncated();
  return false;
}

bool StreamingSelector::Recover(const StreamError& err, ErrorToken token,
                                int64_t excise_from) {
  // Resource exhaustion is never recoverable (the guard exists to stop the
  // stream), and resynchronization needs an enclosing open element to
  // truncate — at depth 0 there is nothing to resync on.
  const bool hard_limit = err.code == StreamErrorCode::kByteLimitExceeded ||
                          err.code == StreamErrorCode::kEventLimitExceeded;
  if (policy_ != RecoveryPolicy::kSkipMalformedSubtree || run_.depth <= 0 ||
      hard_limit ||
      run_.counters.errors_recovered >= limits_.max_recovered_errors) {
    return FailAt(err);
  }
  NoteFirstError(err);
  ++run_.counters.errors_recovered;
  ++run_.counters.subtrees_skipped;
  recovered_errors_.push_back(RecoveredError{err, excise_from, -1});
  run_.in_skip = true;
  run_.skip_depth = 0;
  switch (token) {
    case ErrorToken::kJunk:
      break;
    case ErrorToken::kOpenLike:
      run_.skip_depth = 1;
      break;
    case ErrorToken::kCloseLike:
      // The offending close token is itself the resynchronization point.
      return ResyncClose(err.offset + 1);
  }
  return true;
}

bool StreamingSelector::ResyncClose(int64_t consumed_end) {
  run_.in_skip = false;
  run_.skip_depth = 0;
  if (!recovered_errors_.empty() &&
      recovered_errors_.back().resume_offset < 0) {
    recovered_errors_.back().resume_offset = consumed_end;
    recovered_errors_.back().closed_label = labels_[run_.depth];
  }
  return EmitSynthClose(consumed_end - 1, consumed_end);
}

bool StreamingSelector::EmitSynthClose(int64_t offset, int64_t span_end) {
  if (run_.counters.events >= limits_.max_events) {
    return FailAt(MakeError(StreamErrorCode::kEventLimitExceeded, offset));
  }
  Symbol symbol = labels_[run_.depth];
  if (recorder_.active()) recorder_.OnClose(run_.depth, span_end);
  --run_.depth;
  machine_->OnClose(format_ == Format::kCompactTerm ? -1 : symbol);
  ++run_.counters.events;
  return true;
}

bool StreamingSelector::EmitOpen(Symbol symbol, int64_t offset,
                                 int64_t excise_from) {
  if (run_.depth == 0 && run_.saw_root()) {
    return Recover(
        MakeError(StreamErrorCode::kTrailingContent, offset, -1, symbol),
        ErrorToken::kOpenLike, excise_from);
  }
  if (run_.depth >= limits_.max_depth) {
    return Recover(
        MakeError(StreamErrorCode::kDepthLimitExceeded, offset, -1, symbol),
        ErrorToken::kOpenLike, excise_from);
  }
  if (run_.counters.events >= limits_.max_events) {
    return Recover(MakeError(StreamErrorCode::kEventLimitExceeded, offset),
                   ErrorToken::kOpenLike, excise_from);
  }
  PushLabel(symbol);
  int64_t& max_depth = run_.counters.max_depth;
  if (run_.depth > max_depth) max_depth = run_.depth;
  machine_->OnOpen(symbol);
  ++run_.counters.events;
  if (machine_->InAcceptingState()) {
    ++run_.counters.matches;
    // Span start = first byte of the opening token (excise_from: the '<',
    // the term label byte); certainty = just past the token — the earliest
    // offset at which pre-selection is decided.
    if (recorder_.active()) RecordMatch(excise_from, offset + 1);
  }
  return true;
}

bool StreamingSelector::EmitClose(Symbol symbol, int64_t offset,
                                  int64_t excise_from) {
  if (run_.depth == 0) {
    return Recover(
        MakeError(StreamErrorCode::kUnbalancedClose, offset, -1, symbol),
        ErrorToken::kCloseLike, excise_from);
  }
  if (symbol >= 0 && labels_[run_.depth] != symbol) {
    return Recover(MakeError(StreamErrorCode::kLabelMismatch, offset,
                             labels_[run_.depth], symbol),
                   ErrorToken::kCloseLike, excise_from);
  }
  if (run_.counters.events >= limits_.max_events) {
    return Recover(MakeError(StreamErrorCode::kEventLimitExceeded, offset),
                   ErrorToken::kCloseLike, excise_from);
  }
  if (recorder_.active()) recorder_.OnClose(run_.depth, offset + 1);
  --run_.depth;
  machine_->OnClose(symbol);
  ++run_.counters.events;
  return true;
}

void StreamingSelector::PushLabel(Symbol symbol) {
  labels_[static_cast<size_t>(run_.depth) + 1] = symbol;
  ++run_.depth;
  if (static_cast<size_t>(run_.depth) + 2 > labels_.size()) {
    labels_.resize(2 * labels_.size());
  }
}

SST_ALWAYS_INLINE StreamingSelector::Frame StreamingSelector::LoadFrame(
    bool single_member) {
  Frame frame;
  frame.depth = run_.depth;
  frame.max_depth = run_.counters.max_depth;
  frame.events = run_.counters.events;
  frame.matches = run_.counters.matches;
  frame.labels = labels_.data();
  // One slot above the top stays free for the core's unconditional label
  // write; an open that would use it takes the refusal path, whose
  // PushLabel grows the stack.
  frame.depth_cap = std::min<int64_t>(
      limits_.max_depth, static_cast<int64_t>(labels_.size()) - 2);
  frame.max_events = limits_.max_events;
  frame.spans = recorder_.active() && recorder_.verdict_only_sink() == nullptr;
  frame.batch_verdicts = single_member &&
                         format_ == Format::kCompactMarkup &&
                         recorder_.verdict_only_sink() != nullptr;
  frame.emit = recorder_.active() && !frame.batch_verdicts;
  frame.num_verdicts = 0;
  return frame;
}

SST_NOINLINE void StreamingSelector::FlushVerdicts(int64_t count) {
  MatchSink* sink = recorder_.verdict_only_sink();
  for (int64_t k = 0; k < count; ++k) {
    // Single-member tokens are one compact-markup byte: the verdict is
    // certain just past it.
    MatchEvent event;
    event.start_offset = verdict_starts_[k];
    event.certainty_offset = verdict_starts_[k] + 1;
    sink->OnMatch(event);
  }
  recorder_.CountEmitted(count);
}

SST_ALWAYS_INLINE void StreamingSelector::CommitFrame(Frame& frame) {
  if (frame.num_verdicts > 0) {
    FlushVerdicts(frame.num_verdicts);
    frame.num_verdicts = 0;
  }
  run_.depth = frame.depth;
  run_.counters.max_depth = frame.max_depth;
  run_.counters.events = frame.events;
  run_.counters.matches = frame.matches;
}

template <bool kUniversalClose, bool kVerdicts, typename Stepper>
SST_ALWAYS_INLINE bool StreamingSelector::CleanToken(
    Frame& frame, Stepper& stepper, bool open, Symbol symbol,
    unsigned char byte, int64_t start, int64_t last) {
  // Every check EmitOpen/EmitClose make, plus unknown labels (symbol -1,
  // which no open passes and no stored label equals), evaluated for both
  // polarities without branching and folded into one predictable branch.
  // Which check fired, and in which spec order, is the refusal path's
  // business.
  const bool refuse_open = (symbol < 0) | (frame.depth >= frame.depth_cap) |
                           ((frame.depth == 0) & (frame.events != 0));
  // labels[0] holds kNoLabel, which matches no close: an unbalanced close
  // is a label mismatch to the core.
  const bool refuse_close = kUniversalClose
                                ? frame.depth == 0
                                : frame.labels[frame.depth] != symbol;
  if (SST_UNLIKELY((frame.events >= frame.max_events) |
                   (open & refuse_open) | (!open & refuse_close))) {
    return false;
  }
  if (frame.spans & !open) RecordSpanClose(recorder_, frame.depth, last + 1);
  // An open pushes its label; a close writes the free slot above the new
  // top, which nothing reads.
  const int64_t opened = static_cast<int64_t>(open);
  frame.labels[frame.depth + 1] = symbol;
  frame.depth += 2 * opened - 1;
  frame.max_depth = frame.depth > frame.max_depth ? frame.depth
                                                  : frame.max_depth;
  ++frame.events;
  stepper.Step(open, symbol, byte, frame.depth);
  const bool hit = stepper.Hit(open);
  frame.matches += static_cast<int64_t>(hit);
  if constexpr (kVerdicts) {
    // A verdict-only sink costs a store per token, not a branch per match.
    verdict_starts_[frame.num_verdicts] = start;
    frame.num_verdicts += static_cast<int64_t>(hit);
    if (SST_UNLIKELY(frame.num_verdicts == kVerdictBatch)) {
      FlushVerdicts(kVerdictBatch);
      frame.num_verdicts = 0;
    }
  }
  if (SST_UNLIKELY(hit & frame.emit)) {
    // By value: the stepper's address never escapes the scan loop.
    EmitMatch(stepper, frame.depth, start, last + 1);
  }
  return true;
}

template <typename Stepper>
SST_NOINLINE void StreamingSelector::EmitMatch(Stepper stepper, int64_t depth,
                                               int64_t start,
                                               int64_t certainty) {
  if constexpr (Stepper::kSingleMember) {
    // The fused tiers' acceptance always fans out to member 0 alone.
    recorder_.OnMatch(0, depth, start, certainty);
  } else {
    member_scratch_.clear();
    stepper.AppendSelected(&member_scratch_);
    for (int32_t member : member_scratch_) {
      recorder_.OnMatch(member, depth, start, certainty);
    }
  }
}

template <typename Stepper, typename Slow>
SST_ALWAYS_INLINE bool StreamingSelector::Refuse(Frame& frame,
                                                 Stepper& stepper, Slow slow) {
  // Only values cross into the out-of-line refusal path: the members and
  // the machine are brought up to date first and read back after. Every
  // event the slow path applies — the token, or the closes recovery
  // synthesizes — runs on the machine, so the stepper resumes from
  // whatever configuration those events left.
  CommitFrame(frame);
  stepper.Store();
  if (!RunRefused(slow)) return false;
  frame = LoadFrame(Stepper::kSingleMember);
  stepper.Load();
  return true;
}

template <typename Slow>
SST_NOINLINE bool StreamingSelector::RunRefused(Slow slow) {
  return slow();
}

template <typename Stepper>
bool StreamingSelector::Scan(Stepper stepper, std::string_view chunk) {
  // Each format loop owns its copy of the stepper, so the stepper's state
  // can live in registers for the whole chunk.
  stepper.Load();
  if (format_ == Format::kCompactMarkup) return FeedMarkup(chunk, stepper);
  // The fused byte table is keyed by compact-markup bytes.
  if constexpr (!std::is_same_v<Stepper, FusedStepper>) {
    if (format_ == Format::kXmlLite) return FeedXml(chunk, stepper);
    return FeedTerm(chunk, stepper);
  }
  SST_CHECK_MSG(false, "the fused byte table runs compact markup only");
  return false;
}

template <bool kVerdicts, typename Stepper>
SST_NOINLINE size_t StreamingSelector::MarkupRun(std::string_view chunk,
                                                 size_t i, Frame& frame_io,
                                                 Stepper& stepper_io) {
  // Register-resident copies for the run; a small function of its own, so
  // no cold path competes for the registers.
  Frame frame = frame_io;
  Stepper stepper = stepper_io;
  const uint8_t* cls = tables_->byte_class.data();
  const Symbol* sym = tables_->byte_symbol.data();
  const int64_t base = chunk_base_ + static_cast<int64_t>(i);
  const char* bytes = chunk.data() + i;
  const size_t n = chunk.size() - i;
  // Structural-index scan: the stage-1 SIMD classification yields only
  // structural offsets, so the loop never sees whitespace
  // (CheckTableAgreement asserts the kWs class and the index classifier
  // agree byte for byte).
  const size_t stop = ForEachStructuralUntil(bytes, n, [&](size_t k) {
    const unsigned char c = static_cast<unsigned char>(bytes[k]);
    const int64_t offset = base + static_cast<int64_t>(k);
    // A bad byte or unknown letter has symbol -1, which the core refuses.
    return CleanToken<false, kVerdicts>(frame, stepper,
                                        cls[c] == ScannerTables::kOpen,
                                        sym[c], c, offset, offset);
  });
  frame_io = frame;
  stepper_io = stepper;
  return i + stop;
}

size_t StreamingSelector::MarkupSkip(std::string_view chunk, size_t i) {
  const uint8_t* cls = tables_->byte_class.data();
  const char* bytes = chunk.data() + i;
  return i + ForEachStructuralUntil(bytes, chunk.size() - i, [&](size_t k) {
    const uint8_t byte_class = cls[static_cast<unsigned char>(bytes[k])];
    if (byte_class == ScannerTables::kOpen) {
      ++run_.skip_depth;
    } else if (byte_class == ScannerTables::kClose) {
      if (run_.skip_depth == 0) return false;
      --run_.skip_depth;
    }
    // Any other byte is junk inside a region already being excised.
    return true;
  });
}

template <typename Stepper>
bool StreamingSelector::FeedMarkup(std::string_view chunk, Stepper stepper) {
  const uint8_t* cls = tables_->byte_class.data();
  const Symbol* sym = tables_->byte_symbol.data();
  Frame frame = LoadFrame(Stepper::kSingleMember);
  size_t i = 0;
  while (true) {
    const bool skipping = run_.in_skip;
    if (skipping) {
      i = MarkupSkip(chunk, i);
    } else if (Stepper::kSingleMember && frame.batch_verdicts) {
      // Only single-member steppers batch verdicts (see Frame).
      i = MarkupRun<Stepper::kSingleMember>(chunk, i, frame, stepper);
    } else {
      i = MarkupRun<false>(chunk, i, frame, stepper);
    }
    if (i >= chunk.size()) break;
    const unsigned char c = static_cast<unsigned char>(chunk[i]);
    const int64_t offset = chunk_base_ + static_cast<int64_t>(i);
    bool ok;
    if (skipping) {
      // The close that ends the innermost open element of the region.
      ok = Refuse(frame, stepper,
                  [=, this] { return ResyncClose(offset + 1); });
    } else {
      // The token the core refused, through the exact path.
      ok = Refuse(frame, stepper, [=, this] {
        const bool open = cls[c] == ScannerTables::kOpen;
        if (!open && cls[c] != ScannerTables::kClose) {
          return Recover(MakeError(StreamErrorCode::kBadByte, offset),
                         ErrorToken::kJunk, offset);
        }
        if (sym[c] < 0) {
          return Recover(MakeError(StreamErrorCode::kUnknownLabel, offset),
                         open ? ErrorToken::kOpenLike : ErrorToken::kCloseLike,
                         offset);
        }
        return open ? EmitOpen(sym[c], offset, offset)
                    : EmitClose(sym[c], offset, offset);
      });
    }
    if (!ok) return false;
    ++i;
  }
  CommitFrame(frame);
  stepper.Store();
  return true;
}

template <typename Stepper>
SST_NOINLINE size_t StreamingSelector::TermRun(std::string_view chunk,
                                               size_t i, Frame& frame_io,
                                               Stepper& stepper_io) {
  Frame frame = frame_io;
  Stepper stepper = stepper_io;
  const uint8_t* cls = tables_->byte_class.data();
  const Symbol* sym = tables_->byte_symbol.data();
  const int64_t base = chunk_base_ + static_cast<int64_t>(i);
  const char* bytes = chunk.data() + i;
  // The last label byte taken, and whether it still waits for its '{'.
  // Every token is structural, so whitespace between a label and its
  // brace never reaches the loop.
  int64_t label = -1;
  bool waiting = false;
  const size_t stop =
      ForEachStructuralUntil(bytes, chunk.size() - i, [&](size_t k) {
        const unsigned char c = static_cast<unsigned char>(bytes[k]);
        const uint8_t byte_class = cls[c];
        if (byte_class == ScannerTables::kLabel) {
          if (waiting) return false;  // a second label: junk
          label = static_cast<int64_t>(k);
          waiting = true;
          return true;
        }
        // '{' opens the waiting label and '}' is a close; a stray '{', a
        // label followed by anything but '{', and junk stop the run. An
        // unknown label has symbol -1, which the core refuses.
        const bool open = c == '{';
        if ((open != waiting) |
            (!open & (byte_class != ScannerTables::kCloseBrace))) {
          return false;
        }
        const int64_t offset = base + static_cast<int64_t>(k);
        if (!CleanToken<true, false>(
                frame, stepper, open,
                open ? sym[static_cast<unsigned char>(bytes[label])] : -1, c,
                open ? base + label : offset, offset)) {
          return false;
        }
        waiting = false;
        return true;
      });
  // A label still waiting for its '{' carries into the exact path, or the
  // next chunk, as the open partial token.
  if (waiting) {
    token_buf_[0] = bytes[label];
    run_.token = PartialToken{base + label, 1, true};
  }
  frame_io = frame;
  stepper_io = stepper;
  return i + stop;
}

size_t StreamingSelector::TermSkip(std::string_view chunk, size_t i) {
  const uint8_t* cls = tables_->byte_class.data();
  const char* bytes = chunk.data() + i;
  return i + ForEachStructuralUntil(bytes, chunk.size() - i, [&](size_t k) {
    const unsigned char c = static_cast<unsigned char>(bytes[k]);
    if (c == '{') {
      ++run_.skip_depth;
    } else if (cls[c] == ScannerTables::kCloseBrace) {
      if (run_.skip_depth == 0) return false;
      --run_.skip_depth;
    }
    return true;
  });
}

template <typename Stepper>
bool StreamingSelector::FeedTerm(std::string_view chunk, Stepper stepper) {
  const uint8_t* cls = tables_->byte_class.data();
  const Symbol* sym = tables_->byte_symbol.data();
  const char* bytes = chunk.data();
  const size_t n = chunk.size();
  Frame frame = LoadFrame(Stepper::kSingleMember);
  auto refuse = [&](auto slow) { return Refuse(frame, stepper, slow); };
  size_t i = 0;
  while (true) {
    // A label pending from the previous chunk meets its next structural
    // byte on the exact path; everything else starts in a run.
    const bool skipping = run_.in_skip;
    if (skipping) {
      i = TermSkip(chunk, i);
    } else if (run_.token.open) {
      i += FindStructural(bytes + i, n - i);
    } else {
      i = TermRun(chunk, i, frame, stepper);
    }
    if (i >= n) break;
    const unsigned char c = static_cast<unsigned char>(bytes[i]);
    const int64_t offset = chunk_base_ + static_cast<int64_t>(i);
    if (skipping) {
      // The '}' that ends the innermost open element of the region.
      if (!refuse([=, this] { return ResyncClose(offset + 1); })) {
        return false;
      }
    } else if (run_.token.open) {
      // The waiting label is consumed: opened by this '{', or else part of
      // the damage.
      run_.token.open = false;
      const int64_t label_start = run_.token.start;
      if (c != '{') {
        if (!refuse([=, this] {
              return Recover(MakeError(StreamErrorCode::kBadByte, offset),
                             ErrorToken::kJunk, label_start);
            })) {
          return false;
        }
        // Reprocess this byte under skip framing ('}' must resync).
        continue;
      }
      const Symbol s = sym[static_cast<unsigned char>(token_buf_[0])];
      if (!CleanToken<true, false>(frame, stepper, true, s, c, label_start,
                                   offset) &&
          !refuse([=, this] {
            if (s < 0) {
              return Recover(
                  MakeError(StreamErrorCode::kUnknownLabel, offset),
                  ErrorToken::kOpenLike, label_start);
            }
            return EmitOpen(s, offset, label_start);
          })) {
        return false;
      }
    } else if (cls[c] == ScannerTables::kCloseBrace) {
      // A close the core refused.
      if (!refuse([=, this] { return EmitClose(-1, offset, offset); })) {
        return false;
      }
    } else if (!refuse([=, this] {
                 // A stray '{' still opens a frame (its matching '}' will
                 // close it); any other byte is plain junk.
                 return Recover(
                     MakeError(StreamErrorCode::kBadByte, offset),
                     c == '{' ? ErrorToken::kOpenLike : ErrorToken::kJunk,
                     offset);
               })) {
      return false;
    }
    ++i;
  }
  CommitFrame(frame);
  stepper.Store();
  return true;
}

template <typename Stepper>
SST_NOINLINE size_t StreamingSelector::XmlRun(std::string_view chunk,
                                              size_t i, Frame& frame_io,
                                              Stepper& stepper_io) {
  Frame frame = frame_io;
  Stepper stepper = stepper_io;
  const uint8_t* cls = tables_->byte_class.data();
  const char* bytes = chunk.data();
  const size_t n = chunk.size();
  const int64_t base = chunk_base_;
  while (i < n) {
    const unsigned char c = static_cast<unsigned char>(bytes[i]);
    if (c != '<') {
      if (cls[c] != ScannerTables::kWs) break;  // junk: the exact path
      // Between tags only whitespace is legal before the next '<';
      // bulk-skip the run (SIMD/SWAR, base/byte_scan.h).
      i += 1 + FindStructural(bytes + i + 1, n - i - 1);
      continue;
    }
    const InPlaceTag tag = LexInPlace(bytes, n, i);
    if (!tag.complete) break;  // the buffered lexer takes it
    const int64_t start = base + static_cast<int64_t>(i);
    const bool clean = CleanToken<false, false>(
        frame, stepper, !tag.closing,
        LookupTag(*tables_, *alphabet_, bytes + tag.name,
                  tag.name_end - tag.name),
        0, start, base + static_cast<int64_t>(tag.name_end));
    if (SST_UNLIKELY(!clean)) break;
    i = tag.name_end + 1;
  }
  frame_io = frame;
  stepper_io = stepper;
  return i;
}

template <typename Stepper>
bool StreamingSelector::FeedXml(std::string_view chunk, Stepper stepper) {
  const char* bytes = chunk.data();
  const size_t n = chunk.size();
  const int64_t base = chunk_base_;
  Frame frame = LoadFrame(Stepper::kSingleMember);
  auto refuse = [&](auto slow) { return Refuse(frame, stepper, slow); };
  // A complete tag through the exact path. False on a fatal error.
  auto exact_tag = [&](bool closing, Symbol s, size_t name_end,
                       int64_t start) {
    const int64_t offset = base + static_cast<int64_t>(name_end);
    return refuse([=, this] {
      if (s < 0) {
        return Recover(MakeError(StreamErrorCode::kUnknownLabel, offset),
                       closing ? ErrorToken::kCloseLike : ErrorToken::kOpenLike,
                       start);
      }
      return closing ? EmitClose(s, offset, start) : EmitOpen(s, offset, start);
    });
  };
  size_t i = 0;
  while (i < n) {
    if (!run_.token.open && !run_.in_skip) {
      i = XmlRun(chunk, i, frame, stepper);
      if (i >= n) break;
      if (bytes[i] != '<') {
        const int64_t offset = base + static_cast<int64_t>(i);
        if (!refuse([=, this] {
              return Recover(MakeError(StreamErrorCode::kBadByte, offset),
                             ErrorToken::kJunk, offset);
            })) {
          return false;
        }
        ++i;
        continue;
      }
      const InPlaceTag tag = LexInPlace(bytes, n, i);
      if (tag.complete) {
        // A tag the core refused.
        if (!exact_tag(tag.closing,
                       LookupTag(*tables_, *alphabet_, bytes + tag.name,
                                 tag.name_end - tag.name),
                       tag.name_end, base + static_cast<int64_t>(i))) {
          return false;
        }
        i = tag.name_end + 1;
        continue;
      }
      // The tag straddles the chunk end or is malformed: the buffered
      // lexer takes it from its '<'.
      run_.token = PartialToken{base + static_cast<int64_t>(i), 0, true, true};
      ++i;
      continue;
    }
    const unsigned char c = static_cast<unsigned char>(bytes[i]);
    if (!run_.token.open) {
      // Inside the excised region only tag framing matters: jump to the
      // next '<' in one vectorized sweep.
      const void* lt = std::memchr(bytes + i, '<', n - i);
      if (lt == nullptr) break;
      i = static_cast<size_t>(static_cast<const char*>(lt) - bytes);
      run_.token = PartialToken{base + static_cast<int64_t>(i), 0, true, true};
      ++i;
      continue;
    }
    // Buffered lexer: a tag that straddles a chunk boundary, one the
    // in-place lexer does not take (empty or oversized name), or any tag
    // in skip mode.
    if (run_.token.first && c == '/') {
      run_.token.closing = true;
      run_.token.first = false;
      ++i;
      continue;
    }
    const void* gt = std::memchr(bytes + i, '>', n - i);
    const size_t name_end =
        gt != nullptr
            ? static_cast<size_t>(static_cast<const char*>(gt) - bytes)
            : n;
    if (size_t name_len = name_end - i; name_len > 0) {
      run_.token.first = false;
      if (run_.in_skip) {
        // Only "name was nonempty" matters for skip framing; buffer just
        // the name's first byte, so an open token's bytes never depend on
        // the chunking (checkpoints compare them).
        if (run_.token.len == 0) token_buf_[0] = bytes[i];
        run_.token.len = 1;
      } else if (run_.token.len + name_len > kMaxTagBytes) {
        // Error offset = the first byte that no longer fits, matching the
        // byte-at-a-time scanner.
        const int64_t too_long =
            base + static_cast<int64_t>(i + (kMaxTagBytes - run_.token.len));
        if (!refuse([=, this] {
              return Recover(
                  MakeError(StreamErrorCode::kTagTooLong, too_long),
                  ErrorToken::kJunk, run_.token.start);
            })) {
          return false;
        }
        // Recovered: the oversized tag is junk inside the skipped region;
        // keep consuming its body without buffering (the first name byte
        // stays, as in skip framing).
        if (run_.token.len == 0) token_buf_[0] = bytes[i];
        run_.token.len = 1;
      } else {
        std::memcpy(token_buf_ + run_.token.len, bytes + i, name_len);
        run_.token.len += static_cast<uint32_t>(name_len);
      }
      i = name_end;
    }
    if (gt == nullptr) break;  // partial tag; the next chunk continues it
    // The tag is complete; its start, polarity and name stay readable
    // below.
    run_.token.open = false;
    ++i;  // past the '>'
    const int64_t end_offset = base + static_cast<int64_t>(name_end);
    if (run_.in_skip) {
      if (run_.token.len == 0) continue;  // "<>" is junk even while skipping
      if (run_.token.closing) {
        if (run_.skip_depth > 0) {
          --run_.skip_depth;
        } else if (!refuse(
                       [=, this] { return ResyncClose(end_offset + 1); })) {
          return false;
        }
      } else {
        ++run_.skip_depth;
      }
      continue;
    }
    if (run_.token.len == 0) {
      if (!refuse([=, this] {
            return Recover(MakeError(StreamErrorCode::kBadByte, end_offset),
                           ErrorToken::kJunk, run_.token.start);
          })) {
        return false;
      }
      continue;
    }
    const Symbol s =
        LookupTag(*tables_, *alphabet_, token_buf_, run_.token.len);
    if (!CleanToken<false, false>(frame, stepper, !run_.token.closing, s, 0,
                                  run_.token.start, end_offset) &&
        !exact_tag(run_.token.closing, s, name_end, run_.token.start)) {
      return false;
    }
  }
  CommitFrame(frame);
  stepper.Store();
  return true;
}

bool StreamingSelector::Feed(std::string_view chunk) {
  if (failed_) return false;
  // Byte guard: split the chunk at the document-byte limit so the error
  // fires at offset max_document_bytes under any split schedule — checked
  // once per Feed, never inside the scan loops.
  bool over_byte_limit = false;
  StreamCounters& counters = run_.counters;
  if (static_cast<int64_t>(chunk.size()) >
      limits_.max_document_bytes - counters.bytes_fed) {
    over_byte_limit = true;
    chunk = chunk.substr(0, static_cast<size_t>(limits_.max_document_bytes -
                                                counters.bytes_fed));
  }
  chunk_base_ = counters.bytes_fed;
  counters.bytes_fed += static_cast<int64_t>(chunk.size());
  ++counters.chunks_fed;
  bool ok;
  if (fused_ != nullptr) {
    ok = Scan(FusedStepper{machine_, fused_}, chunk);
  } else if (fused_dra_ != nullptr) {
    ok = Scan(DraFusedStepper{machine_, fused_dra_, &dra_config_, &run_.depth},
              chunk);
  } else if (product_ != nullptr && product_->has_side_cars()) {
    ok = Scan(ProductLoopStepper<true>{product_}, chunk);
  } else if (product_ != nullptr) {
    ok = Scan(ProductLoopStepper<false>{product_}, chunk);
  } else if (stack_ != nullptr) {
    ok = Scan(StackStepper{stack_, &counters.max_depth}, chunk);
  } else {
    ok = Scan(VirtualStepper{machine_}, chunk);
  }
  if (!ok) return false;
  if (over_byte_limit) {
    return FailAt(MakeError(StreamErrorCode::kByteLimitExceeded,
                            limits_.max_document_bytes));
  }
  return true;
}

bool StreamingSelector::Finish() {
  if (failed_) return false;
  const bool incomplete = run_.token.open || run_.in_skip ||
                          run_.depth != 0 || !run_.saw_root();
  if (!incomplete) return true;
  const int64_t eof = run_.counters.bytes_fed;
  if (policy_ == RecoveryPolicy::kAutoClose && run_.saw_root() &&
      run_.depth > 0) {
    // Tolerated truncation: discard a partial token and synthesize the
    // missing closes for every still-open element.
    StreamError err = MakeError(StreamErrorCode::kTruncatedDocument, eof);
    NoteFirstError(err);
    ++run_.counters.errors_recovered;
    recovered_errors_.push_back(RecoveredError{err, eof, eof});
    run_.token.open = false;
    while (run_.depth > 0) {
      // Pending match spans complete at the EOF offset: the synthesized
      // close is where the sanitized document ends them.
      if (!EmitSynthClose(eof, eof)) return false;
    }
    return true;
  }
  return FailAt(MakeError(StreamErrorCode::kTruncatedDocument, eof));
}

}  // namespace sst

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

StreamingSelector::StreamingSelector(StreamMachine* machine, Format format,
                                     const Alphabet* alphabet)
    : machine_(machine), format_(format), alphabet_(alphabet) {
  owned_tables_ =
      std::make_unique<ScannerTables>(ScannerTables::Build(format, *alphabet));
  tables_ = owned_tables_.get();
  labels_.assign(kDepthReserve + 2, kNoLabel);
  if (const TagDfa* dfa = machine_->ExportTagDfa()) {
    // The fused table is keyed by the raw byte, so the format must be
    // compact markup and every symbol the stream can mention a single
    // lowercase letter covered by the automaton.
    if (format_ == Format::kCompactMarkup &&
        alphabet_->size() <= dfa->num_symbols && alphabet_->CompactLabels()) {
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
    recorder_.OnMatch(member, depth_, start, certainty);
  }
}

void StreamingSelector::Reset() {
  machine_->Reset();
  tag_len_ = 0;
  in_tag_ = false;
  tag_first_ = false;
  tag_closing_ = false;
  have_pending_ = false;
  pending_byte_ = 0;
  pending_offset_ = -1;
  tag_start_ = -1;
  in_skip_ = false;
  skip_depth_ = 0;
  chunk_base_ = 0;
  bytes_fed_ = 0;
  chunks_fed_ = 0;
  events_ = 0;
  nodes_ = 0;
  matches_ = 0;
  depth_ = 0;
  max_depth_ = 0;
  errors_recovered_ = 0;
  subtrees_skipped_ = 0;
  error_offset_ = -1;
  saw_root_ = false;
  failed_ = false;
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
  out->open_labels.assign(labels_.begin() + 1, labels_.begin() + 1 + depth_);
  out->tag_buf.assign(tag_buf_, tag_len_);
  out->in_tag = in_tag_;
  out->tag_first = tag_first_;
  out->tag_closing = tag_closing_;
  out->have_pending = have_pending_;
  out->pending_byte = pending_byte_;
  out->pending_offset = pending_offset_;
  out->tag_start = tag_start_;
  out->in_skip = in_skip_;
  out->skip_depth = skip_depth_;
  out->bytes_fed = bytes_fed_;
  out->chunks_fed = chunks_fed_;
  out->events = events_;
  out->nodes = nodes_;
  out->matches = matches_;
  out->depth = depth_;
  out->errors_recovered = errors_recovered_;
  out->subtrees_skipped = subtrees_skipped_;
  out->error_offset = error_offset_;
  out->saw_root = saw_root_;
  out->machine_underflows = machine_->StackUnderflowCloses();
  out->stream_error = stream_error_;
  out->recovered = recovered_errors_;
  return true;
}

bool StreamingSelector::RestoreCheckpoint(const SelectorCheckpoint& cp) {
  if (!machine_->RestoreConfig(cp.machine_config)) return false;
  SST_CHECK(static_cast<int64_t>(cp.open_labels.size()) == cp.depth);
  if (labels_.size() < cp.open_labels.size() + 2) {
    labels_.resize(cp.open_labels.size() + 2);
  }
  std::copy(cp.open_labels.begin(), cp.open_labels.end(), labels_.begin() + 1);
  SST_CHECK(cp.tag_buf.size() <= kMaxTagBytes);
  std::memcpy(tag_buf_, cp.tag_buf.data(), cp.tag_buf.size());
  tag_len_ = static_cast<uint32_t>(cp.tag_buf.size());
  in_tag_ = cp.in_tag;
  tag_first_ = cp.tag_first;
  tag_closing_ = cp.tag_closing;
  have_pending_ = cp.have_pending;
  pending_byte_ = cp.pending_byte;
  pending_offset_ = cp.pending_offset;
  tag_start_ = cp.tag_start;
  in_skip_ = cp.in_skip;
  skip_depth_ = cp.skip_depth;
  chunk_base_ = cp.bytes_fed;
  bytes_fed_ = cp.bytes_fed;
  chunks_fed_ = cp.chunks_fed;
  events_ = cp.events;
  nodes_ = cp.nodes;
  matches_ = cp.matches;
  depth_ = cp.depth;
  max_depth_ = cp.depth;  // segment-peak accounting: TakeSegmentPeakDepth
  errors_recovered_ = cp.errors_recovered;
  subtrees_skipped_ = cp.subtrees_skipped;
  error_offset_ = cp.error_offset;
  saw_root_ = cp.saw_root;
  failed_ = false;
  stream_error_ = cp.stream_error;
  error_ = stream_error_.ok() ? std::string() : stream_error_.Render(alphabet_);
  recovered_errors_ = cp.recovered;
  recorder_.Reset();  // keeps the sink and max_pending wiring
  return true;
}

void StreamingSelector::ReleaseCheckpoint(const SelectorCheckpoint& cp) {
  machine_->ReleaseConfig(cp.machine_config);
}

bool StreamingSelector::CheckpointConverged(const SelectorCheckpoint& cp,
                                            int64_t delta) const {
  if (failed_) return false;
  if (depth_ != cp.depth || saw_root_ != cp.saw_root) return false;
  if (in_skip_ != cp.in_skip || skip_depth_ != cp.skip_depth) return false;
  if (in_tag_ != cp.in_tag || tag_first_ != cp.tag_first ||
      tag_closing_ != cp.tag_closing || have_pending_ != cp.have_pending ||
      pending_byte_ != cp.pending_byte) {
    return false;
  }
  // Absolute lexer offsets participate only while live (a completed token
  // leaves them stale), and must agree modulo the edit's byte shift.
  if (have_pending_ && pending_offset_ != cp.pending_offset + delta) {
    return false;
  }
  if (in_tag_ && tag_start_ != cp.tag_start + delta) return false;
  if (tag_len_ != cp.tag_buf.size() ||
      std::memcmp(tag_buf_, cp.tag_buf.data(), tag_len_) != 0) {
    return false;
  }
  if (!std::equal(cp.open_labels.begin(), cp.open_labels.end(),
                  labels_.begin() + 1)) {
    return false;
  }
  return machine_->ConfigEqualsCurrent(cp.machine_config);
}

int64_t StreamingSelector::TakeSegmentPeakDepth() {
  int64_t peak = max_depth_;
  max_depth_ = depth_;
  return peak;
}

StreamError StreamingSelector::MakeError(StreamErrorCode code, int64_t offset,
                                         Symbol expected, Symbol got) const {
  StreamError err;
  err.code = code;
  err.offset = offset;
  err.depth = depth_;
  err.expected = expected;
  err.got = got;
  return err;
}

bool StreamingSelector::FailAt(const StreamError& err) {
  failed_ = true;
  if (error_offset_ < 0) error_offset_ = err.offset;
  if (stream_error_.ok()) {
    stream_error_ = err;
    error_ = err.Render(alphabet_);
  }
  // bytes_fed reports the consumed prefix on failure: rewind past the
  // in-flight chunk tail so the counter is chunk-invariant.
  if (err.offset >= 0 && err.offset < bytes_fed_) bytes_fed_ = err.offset;
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
  if (policy_ != RecoveryPolicy::kSkipMalformedSubtree || depth_ <= 0 ||
      hard_limit || errors_recovered_ >= limits_.max_recovered_errors) {
    return FailAt(err);
  }
  if (error_offset_ < 0) error_offset_ = err.offset;
  if (stream_error_.ok()) {
    stream_error_ = err;
    error_ = err.Render(alphabet_);
  }
  ++errors_recovered_;
  ++subtrees_skipped_;
  recovered_errors_.push_back(RecoveredError{err, excise_from, -1});
  have_pending_ = false;  // a pending term label is part of the damage
  in_skip_ = true;
  skip_depth_ = 0;
  switch (token) {
    case ErrorToken::kJunk:
      break;
    case ErrorToken::kOpenLike:
      skip_depth_ = 1;
      break;
    case ErrorToken::kCloseLike:
      // The offending close token is itself the resynchronization point.
      return ResyncClose(err.offset + 1);
  }
  return true;
}

bool StreamingSelector::ResyncClose(int64_t consumed_end) {
  in_skip_ = false;
  skip_depth_ = 0;
  if (!recovered_errors_.empty() &&
      recovered_errors_.back().resume_offset < 0) {
    recovered_errors_.back().resume_offset = consumed_end;
    recovered_errors_.back().closed_label = labels_[depth_];
  }
  return EmitSynthClose(consumed_end - 1, consumed_end);
}

bool StreamingSelector::EmitSynthClose(int64_t offset, int64_t span_end) {
  if (events_ >= limits_.max_events) {
    return FailAt(MakeError(StreamErrorCode::kEventLimitExceeded, offset));
  }
  Symbol symbol = labels_[depth_];
  if (recorder_.active()) recorder_.OnClose(depth_, span_end);
  --depth_;
  machine_->OnClose(format_ == Format::kCompactTerm ? -1 : symbol);
  ++events_;
  return true;
}

bool StreamingSelector::EmitOpen(Symbol symbol, int64_t offset,
                                 int64_t excise_from) {
  if (depth_ == 0 && saw_root_) {
    return Recover(
        MakeError(StreamErrorCode::kTrailingContent, offset, -1, symbol),
        ErrorToken::kOpenLike, excise_from);
  }
  if (depth_ >= limits_.max_depth) {
    return Recover(
        MakeError(StreamErrorCode::kDepthLimitExceeded, offset, -1, symbol),
        ErrorToken::kOpenLike, excise_from);
  }
  if (events_ >= limits_.max_events) {
    return Recover(MakeError(StreamErrorCode::kEventLimitExceeded, offset),
                   ErrorToken::kOpenLike, excise_from);
  }
  saw_root_ = true;
  PushLabel(symbol);
  if (depth_ > max_depth_) max_depth_ = depth_;
  machine_->OnOpen(symbol);
  ++events_;
  if (machine_->InAcceptingState()) {
    ++matches_;
    if (match_callback_) match_callback_(nodes_, symbol);
    // Span start = first byte of the opening token (excise_from: the '<',
    // the term label byte); certainty = just past the token — the earliest
    // offset at which pre-selection is decided.
    if (recorder_.active()) RecordMatch(excise_from, offset + 1);
  }
  ++nodes_;
  return true;
}

bool StreamingSelector::EmitClose(Symbol symbol, int64_t offset,
                                  int64_t excise_from) {
  if (depth_ == 0) {
    return Recover(
        MakeError(StreamErrorCode::kUnbalancedClose, offset, -1, symbol),
        ErrorToken::kCloseLike, excise_from);
  }
  if (symbol >= 0 && labels_[depth_] != symbol) {
    return Recover(MakeError(StreamErrorCode::kLabelMismatch, offset,
                             labels_[depth_], symbol),
                   ErrorToken::kCloseLike, excise_from);
  }
  if (events_ >= limits_.max_events) {
    return Recover(MakeError(StreamErrorCode::kEventLimitExceeded, offset),
                   ErrorToken::kCloseLike, excise_from);
  }
  if (recorder_.active()) recorder_.OnClose(depth_, offset + 1);
  --depth_;
  machine_->OnClose(symbol);
  ++events_;
  return true;
}

void StreamingSelector::PushLabel(Symbol symbol) {
  labels_[static_cast<size_t>(depth_) + 1] = symbol;
  ++depth_;
  if (static_cast<size_t>(depth_) + 2 > labels_.size()) {
    labels_.resize(2 * labels_.size());
  }
}

SST_ALWAYS_INLINE StreamingSelector::Frame StreamingSelector::LoadFrame(
    bool single_member) {
#ifndef NDEBUG
  // The frame derives saw_root from the event count (see CleanToken):
  // every event follows the root's open.
  SST_CHECK(saw_root_ == (events_ > 0));
#endif
  Frame frame;
  frame.depth = depth_;
  frame.max_depth = max_depth_;
  frame.events = events_;
  frame.node_base = 2 * nodes_ - events_ - depth_;
  frame.matches = matches_;
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
  frame.emit = static_cast<bool>(match_callback_) ||
               (recorder_.active() && !frame.batch_verdicts);
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
  depth_ = frame.depth;
  max_depth_ = frame.max_depth;
  events_ = frame.events;
  nodes_ = frame.nodes();
  matches_ = frame.matches;
  saw_root_ = frame.events > 0;
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
    // By value: the stepper's address never escapes the scan loop. The
    // callback numbers nodes from 0, so the one just opened is nodes - 1.
    EmitMatch(stepper, frame.nodes() - 1, frame.depth, symbol, start,
              last + 1, !kVerdicts);
  }
  return true;
}

template <typename Stepper>
SST_NOINLINE void StreamingSelector::EmitMatch(Stepper stepper, int64_t node,
                                               int64_t depth, Symbol symbol,
                                               int64_t start,
                                               int64_t certainty,
                                               bool record) {
  if (match_callback_) match_callback_(node, symbol);
  if (!recorder_.active() || !record) return;
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
      ++skip_depth_;
    } else if (byte_class == ScannerTables::kClose) {
      if (skip_depth_ == 0) return false;
      --skip_depth_;
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
    const bool skipping = in_skip_;
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
  // The pending-label fields end as the exact path leaves them: the last
  // label taken stays in pending_byte_/pending_offset_ after its '{'
  // consumed it (checkpoints compare them).
  if (label >= 0) {
    pending_byte_ = static_cast<unsigned char>(bytes[label]);
    pending_offset_ = base + label;
  }
  have_pending_ = waiting;
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
      ++skip_depth_;
    } else if (cls[c] == ScannerTables::kCloseBrace) {
      if (skip_depth_ == 0) return false;
      --skip_depth_;
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
    const bool skipping = in_skip_;
    if (skipping) {
      i = TermSkip(chunk, i);
    } else if (have_pending_) {
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
    } else if (have_pending_) {
      if (c != '{') {
        if (!refuse([=, this] {
              return Recover(MakeError(StreamErrorCode::kBadByte, offset),
                             ErrorToken::kJunk, pending_offset_);
            })) {
          return false;
        }
        // Reprocess this byte under skip framing ('}' must resync).
        continue;
      }
      have_pending_ = false;
      const Symbol s = sym[pending_byte_];
      if (!CleanToken<true, false>(frame, stepper, true, s, c,
                                   pending_offset_, offset) &&
          !refuse([=, this] {
            if (s < 0) {
              return Recover(
                  MakeError(StreamErrorCode::kUnknownLabel, offset),
                  ErrorToken::kOpenLike, pending_offset_);
            }
            return EmitOpen(s, offset, pending_offset_);
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
  int64_t last_start = -1;
  bool last_closing = false;
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
    last_start = start;
    last_closing = tag.closing;
    i = tag.name_end + 1;
  }
  // An in-place tag leaves the lexer fields exactly as the buffered path
  // would, so checkpoint convergence never depends on the chunking.
  if (last_start >= 0) {
    tag_start_ = last_start;
    tag_closing_ = last_closing;
    tag_first_ = false;
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
    if (!in_tag_ && !in_skip_) {
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
        // A tag the core refused, with the lexer fields as the buffered
        // path leaves them.
        tag_start_ = base + static_cast<int64_t>(i);
        tag_closing_ = tag.closing;
        tag_first_ = false;
        if (!exact_tag(tag.closing,
                       LookupTag(*tables_, *alphabet_, bytes + tag.name,
                                 tag.name_end - tag.name),
                       tag.name_end, tag_start_)) {
          return false;
        }
        i = tag.name_end + 1;
        continue;
      }
      // The tag straddles the chunk end or is malformed: the buffered
      // lexer takes it from its '<'.
      in_tag_ = true;
      tag_first_ = true;
      tag_closing_ = false;
      tag_len_ = 0;
      tag_start_ = base + static_cast<int64_t>(i);
      ++i;
      continue;
    }
    const unsigned char c = static_cast<unsigned char>(bytes[i]);
    if (!in_tag_) {
      // Inside the excised region only tag framing matters: jump to the
      // next '<' in one vectorized sweep.
      const void* lt = std::memchr(bytes + i, '<', n - i);
      if (lt == nullptr) break;
      i = static_cast<size_t>(static_cast<const char*>(lt) - bytes);
      in_tag_ = true;
      tag_first_ = true;
      tag_closing_ = false;
      tag_len_ = 0;
      tag_start_ = base + static_cast<int64_t>(i);
      ++i;
      continue;
    }
    // Buffered lexer: a tag that straddles a chunk boundary, one the
    // in-place lexer does not take (empty or oversized name), or any tag
    // in skip mode.
    if (tag_first_ && c == '/') {
      tag_closing_ = true;
      tag_first_ = false;
      ++i;
      continue;
    }
    const void* gt = std::memchr(bytes + i, '>', n - i);
    const size_t name_end =
        gt != nullptr
            ? static_cast<size_t>(static_cast<const char*>(gt) - bytes)
            : n;
    if (size_t name_len = name_end - i; name_len > 0) {
      tag_first_ = false;
      if (in_skip_) {
        // Only "name was nonempty" matters for skip framing; buffer just
        // the name's first byte, so the lexer state never depends on
        // earlier tags (checkpoints compare it).
        if (tag_len_ == 0) tag_buf_[0] = bytes[i];
        tag_len_ = 1;
      } else if (tag_len_ + name_len > kMaxTagBytes) {
        // Error offset = the first byte that no longer fits, matching the
        // byte-at-a-time scanner.
        const int64_t too_long =
            base + static_cast<int64_t>(i + (kMaxTagBytes - tag_len_));
        if (!refuse([=, this] {
              return Recover(
                  MakeError(StreamErrorCode::kTagTooLong, too_long),
                  ErrorToken::kJunk, tag_start_);
            })) {
          return false;
        }
        // Recovered: the oversized tag is junk inside the skipped region;
        // keep consuming its body without buffering (the first name byte
        // stays, as in skip framing).
        if (tag_len_ == 0) tag_buf_[0] = bytes[i];
        tag_len_ = 1;
      } else {
        std::memcpy(tag_buf_ + tag_len_, bytes + i, name_len);
        tag_len_ += static_cast<uint32_t>(name_len);
      }
      i = name_end;
    }
    if (gt == nullptr) break;  // partial tag; the next chunk continues it
    in_tag_ = false;
    ++i;  // past the '>'
    const int64_t end_offset = base + static_cast<int64_t>(name_end);
    if (in_skip_) {
      const bool nonempty = tag_len_ != 0;
      tag_len_ = 0;
      if (!nonempty) continue;  // "<>" is junk even while skipping
      if (tag_closing_) {
        if (skip_depth_ > 0) {
          --skip_depth_;
        } else if (!refuse(
                       [=, this] { return ResyncClose(end_offset + 1); })) {
          return false;
        }
      } else {
        ++skip_depth_;
      }
      continue;
    }
    if (tag_len_ == 0) {
      if (!refuse([=, this] {
            return Recover(MakeError(StreamErrorCode::kBadByte, end_offset),
                           ErrorToken::kJunk, tag_start_);
          })) {
        return false;
      }
      continue;
    }
    const Symbol s = LookupTag(*tables_, *alphabet_, tag_buf_, tag_len_);
    tag_len_ = 0;
    if (!CleanToken<false, false>(frame, stepper, !tag_closing_, s, 0,
                                  tag_start_, end_offset) &&
        !exact_tag(tag_closing_, s, name_end, tag_start_)) {
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
  if (static_cast<int64_t>(chunk.size()) >
      limits_.max_document_bytes - bytes_fed_) {
    over_byte_limit = true;
    chunk = chunk.substr(
        0, static_cast<size_t>(limits_.max_document_bytes - bytes_fed_));
  }
  chunk_base_ = bytes_fed_;
  bytes_fed_ += static_cast<int64_t>(chunk.size());
  ++chunks_fed_;
  bool ok;
  if (fused_ != nullptr) {
    ok = Scan(FusedStepper{machine_, fused_}, chunk);
  } else if (fused_dra_ != nullptr) {
    ok = Scan(DraFusedStepper{machine_, fused_dra_, &dra_config_, &depth_},
              chunk);
  } else if (product_ != nullptr && product_->has_side_cars()) {
    ok = Scan(ProductLoopStepper<true>{product_}, chunk);
  } else if (product_ != nullptr) {
    ok = Scan(ProductLoopStepper<false>{product_}, chunk);
  } else if (stack_ != nullptr) {
    ok = Scan(StackStepper{stack_, &max_depth_}, chunk);
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
  const bool incomplete =
      in_tag_ || have_pending_ || in_skip_ || depth_ != 0 || !saw_root_;
  if (!incomplete) return true;
  if (policy_ == RecoveryPolicy::kAutoClose && saw_root_ && depth_ > 0) {
    // Tolerated truncation: discard a partial tag in the lexer buffer and
    // synthesize the missing closes for every still-open element.
    StreamError err =
        MakeError(StreamErrorCode::kTruncatedDocument, bytes_fed_);
    if (error_offset_ < 0) error_offset_ = err.offset;
    if (stream_error_.ok()) {
      stream_error_ = err;
      error_ = err.Render(alphabet_);
    }
    ++errors_recovered_;
    recovered_errors_.push_back(RecoveredError{err, bytes_fed_, bytes_fed_});
    in_tag_ = false;
    tag_first_ = false;
    tag_closing_ = false;
    tag_len_ = 0;
    have_pending_ = false;
    while (depth_ > 0) {
      // Pending match spans complete at the EOF offset: the synthesized
      // close is where the sanitized document ends them.
      if (!EmitSynthClose(bytes_fed_, bytes_fed_)) return false;
    }
    return true;
  }
  return FailAt(MakeError(StreamErrorCode::kTruncatedDocument, bytes_fed_));
}

}  // namespace sst

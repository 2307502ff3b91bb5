#include "dra/streaming.h"

#include <algorithm>
#include <bit>
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
#define SST_ALWAYS_INLINE_LAMBDA __attribute__((always_inline))
#else
#define SST_ALWAYS_INLINE_LAMBDA
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
  if (i + 4 <= n) {
    // A one-letter name, either polarity, with no branch on the slash: the
    // polarity is an index into the tag. Exactly the tag the loop below
    // would lex; any other shape falls through to it.
    const bool closing = bytes[i + 1] == '/';
    const size_t name = i + 1 + static_cast<size_t>(closing);
    if ((bytes[name + 1] == '>') & (bytes[name] != '>')) {
      tag.complete = true;
      tag.closing = closing;
      tag.name = name;
      tag.name_end = name + 1;
      return tag;
    }
  }
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
             ? tables.byte_symbol(static_cast<unsigned char>(name[0]))
             : alphabet.Find(std::string_view(name, name_len));
}

}  // namespace

ScannerTables ScannerTables::Build(StreamFormat format,
                                   const Alphabet& alphabet) {
  const std::array<Symbol, 256> interned = alphabet.ByteSymbolTable();
  std::array<uint8_t, 256> classes;
  std::array<Symbol, 256> symbols;
  classes.fill(kBad);
  symbols.fill(-1);
  for (int c = 0; c < 256; ++c) {
    unsigned char b = static_cast<unsigned char>(c);
    if (IsAsciiWs(b)) classes[c] = kWs;
  }
  switch (format) {
    case StreamFormat::kCompactMarkup:
      for (int c = 'a'; c <= 'z'; ++c) {
        classes[c] = kOpen;
        symbols[c] = interned[c];
        classes[c - 'a' + 'A'] = kClose;
        symbols[c - 'a' + 'A'] = interned[c];
      }
      break;
    case StreamFormat::kCompactTerm:
      for (int c = 0; c < 256; ++c) {
        unsigned char b = static_cast<unsigned char>(c);
        if (IsAsciiAlnum(b) || b == '_' || b == '-') {
          classes[c] = kLabel;
          symbols[c] = interned[c];
        }
      }
      // '}' keeps symbol -1, the universal close the brace walk reads.
      classes[static_cast<unsigned char>('}')] = kCloseBrace;
      break;
    case StreamFormat::kXmlLite:
      // XML-lite lexing branches on '<' and '>' directly; names are looked
      // up per tag, with the single-byte symbols as a shortcut.
      symbols = interned;
      break;
  }
  ScannerTables tables;
  for (int c = 0; c < 256; ++c) {
    SST_CHECK(symbols[c] >= -1 && symbols[c] < (1 << (31 - kClassBits)));
    tables.byte_entry[c] = symbols[c] * (1 << kClassBits) + classes[c];
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
    const unsigned char b = static_cast<unsigned char>(c);
    SST_CHECK((tables_->byte_class(b) == ScannerTables::kWs) ==
              ByteIsAsciiWs(b));
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
    const unsigned char open = static_cast<unsigned char>(c);
    const unsigned char close = static_cast<unsigned char>(c - 'a' + 'A');
    SST_CHECK(tables_->byte_class(open) == ScannerTables::kOpen);
    SST_CHECK(tables_->byte_class(close) == ScannerTables::kClose);
    if (fused_ != nullptr) {
      SST_CHECK(fused_->byte_symbol(open) == tables_->byte_symbol(open));
      SST_CHECK(fused_->byte_symbol(close) == tables_->byte_symbol(close));
    }
    if (fused_dra_ != nullptr && fused_dra_->compact_labels()) {
      SST_CHECK(fused_dra_->byte_symbol(open) == tables_->byte_symbol(open));
      SST_CHECK(fused_dra_->byte_symbol(close) ==
                tables_->byte_symbol(close));
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

SST_ALWAYS_INLINE StreamingSelector::Frame StreamingSelector::LoadFrame() {
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
  return frame;
}

SST_NOINLINE void StreamingSelector::FlushVerdicts(const char* const* tokens,
                                                  int64_t count,
                                                  const char* bytes,
                                                  int64_t base) {
  MatchSink* sink = recorder_.verdict_only_sink();
  for (int64_t k = 0; k < count; ++k) {
    // Single-member tokens are one compact-markup byte: the verdict is
    // certain just past it.
    MatchEvent event;
    event.start_offset = base + (tokens[k] - bytes);
    event.certainty_offset = event.start_offset + 1;
    sink->OnMatch(event);
  }
  recorder_.CountEmitted(count);
}

SST_ALWAYS_INLINE void StreamingSelector::CommitFrame(const Frame& frame) {
  run_.depth = frame.depth;
  run_.counters.max_depth = frame.max_depth;
  run_.counters.events = frame.events;
  run_.counters.matches = frame.matches;
}

template <StreamingSelector::Emit kMode, bool kUniversalClose, bool kRoomy,
          typename Stepper>
SST_ALWAYS_INLINE bool StreamingSelector::CleanToken(
    Frame& frame, Stepper& stepper, bool open, Symbol symbol,
    unsigned char byte, int64_t start, int64_t last) {
  // Every check EmitOpen/EmitClose make, plus unknown labels (symbol -1,
  // which no open passes and no stored label equals), evaluated for both
  // polarities without branching and folded into one predictable branch.
  // Which check fired, and in which spec order, is the refusal path's
  // business. In a roomy block the event limit and the depth cap cannot
  // fire (Frame::Roomy), so they are not compared.
  // An open at depth 0 is the root's or trailing content: the core refuses
  // both, and the exact path tells them apart.
  bool refuse_open;
  bool refuse_close;
  if constexpr (kUniversalClose) {
    refuse_open = (symbol < 0) | (frame.depth == 0);
    refuse_close = frame.depth == 0;
  } else {
    // labels[0] holds kNoLabel, which matches no close, so an unbalanced
    // close is a label mismatch to the core. Every open label is a symbol
    // (>= 0), so the top is negative exactly at depth 0, and one sign test
    // refuses an unknown label (-1) and an open at depth 0 together.
    const Symbol top = frame.labels[frame.depth];
    refuse_open = (symbol | top) < 0;
    refuse_close = top != symbol;
  }
  refuse_open |= !kRoomy && frame.depth >= frame.depth_cap;
  const bool over_limit = !kRoomy && frame.events >= frame.max_events;
  if (SST_UNLIKELY(over_limit | (open & refuse_open) |
                   (!open & refuse_close))) {
    return false;
  }
  if constexpr (kMode == Emit::kEvents) {
    if (!open) RecordSpanClose(recorder_, frame.depth, last + 1);
  }
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
  if constexpr (kMode != Emit::kNone) {
    if (SST_UNLIKELY(hit)) {
      // By value: the stepper's address never escapes the scan loop.
      EmitMatch(stepper, frame.depth, start, last + 1);
    }
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
  frame = LoadFrame();
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
  if (!recorder_.active()) return ScanFormat<Emit::kNone>(stepper, chunk);
  if (recorder_.verdict_only_sink() != nullptr) {
    return ScanFormat<Emit::kVerdicts>(stepper, chunk);
  }
  return ScanFormat<Emit::kEvents>(stepper, chunk);
}

template <StreamingSelector::Emit kMode, typename Stepper>
bool StreamingSelector::ScanFormat(Stepper stepper, std::string_view chunk) {
  if (format_ == Format::kCompactMarkup) {
    return FeedMarkup<kMode>(chunk, stepper);
  }
  // The fused byte table is keyed by compact-markup bytes.
  if constexpr (!requires { Stepper::kByteKeyed; }) {
    if (format_ == Format::kXmlLite) return FeedXml<kMode>(chunk, stepper);
    return FeedTerm<kMode>(chunk, stepper);
  }
  SST_CHECK_MSG(false, "the fused byte table runs compact markup only");
  return false;
}

template <StreamingSelector::Emit kMode, typename Stepper>
SST_NOINLINE size_t StreamingSelector::MarkupRun(std::string_view chunk,
                                                 size_t i, Frame& frame_io,
                                                 Stepper& stepper_io) {
  // Register-resident copies for the run; a small function of its own, so
  // no cold path competes for the registers.
  Frame frame = frame_io;
  Stepper stepper = stepper_io;
  const int32_t* entries = tables_->byte_entry.data();
  const int64_t base = chunk_base_ + static_cast<int64_t>(i);
  const char* bytes = chunk.data() + i;
  // A single-member run batches a verdict-only sink's verdicts itself, a
  // store per token rather than a branch per match: a markup token is one
  // byte, so each verdict is certain just past its start. The batch is
  // delivered before the run returns, so before any refused token.
  constexpr bool kBatch = kMode == Emit::kVerdicts && Stepper::kSingleMember;
  const char* tokens[kBatch ? kVerdictBatch : 1];
  int64_t batched = 0;
  // Structural-index scan: the stage-1 SIMD classification yields only
  // structural offsets, so the loop never sees whitespace
  // (CheckTableAgreement asserts the kWs class and the index classifier
  // agree byte for byte). Each 64-byte block holds at most 64 tokens, so
  // the block's headroom test stands for their limit compares.
  const size_t stop = ForEachStructuralBlockUntil(
      bytes, chunk.size() - i, [&frame] { return frame.Roomy(); },
      [&](const char* p, auto roomy) SST_ALWAYS_INLINE_LAMBDA {
        const unsigned char c = static_cast<unsigned char>(*p);
        const int32_t entry = entries[c];
        const int64_t offset = base + (p - bytes);
        const int64_t matched = frame.matches;
        // A bad byte or unknown letter has symbol -1, which the core
        // refuses.
        if (!CleanToken<kBatch ? Emit::kNone : kMode, false,
                        decltype(roomy)::value>(
                frame, stepper, (entry & ScannerTables::kOpen) != 0,
                ScannerTables::SymbolOf(entry), c, offset, offset)) {
          return false;
        }
        if constexpr (kBatch) {
          tokens[batched] = p;
          batched += frame.matches - matched;
          if (SST_UNLIKELY(batched == kVerdictBatch)) {
            FlushVerdicts(tokens, kVerdictBatch, bytes, base);
            batched = 0;
          }
        }
        return true;
      });
  if (batched > 0) FlushVerdicts(tokens, batched, bytes, base);
  frame_io = frame;
  stepper_io = stepper;
  return i + stop;
}

size_t StreamingSelector::MarkupSkip(std::string_view chunk, size_t i) {
  const char* bytes = chunk.data() + i;
  return i + ForEachStructuralUntil(bytes, chunk.size() - i, [&](size_t k) {
    const ScannerTables::ByteClass byte_class =
        tables_->byte_class(static_cast<unsigned char>(bytes[k]));
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

template <StreamingSelector::Emit kMode, typename Stepper>
bool StreamingSelector::FeedMarkup(std::string_view chunk, Stepper stepper) {
  Frame frame = LoadFrame();
  size_t i = 0;
  while (true) {
    const bool skipping = run_.in_skip;
    if (skipping) {
      i = MarkupSkip(chunk, i);
    } else {
      i = MarkupRun<kMode>(chunk, i, frame, stepper);
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
      const ScannerTables::ByteClass byte_class = tables_->byte_class(c);
      const Symbol symbol = tables_->byte_symbol(c);
      ok = Refuse(frame, stepper, [=, this] {
        const bool open = byte_class == ScannerTables::kOpen;
        if (!open && byte_class != ScannerTables::kClose) {
          return Recover(MakeError(StreamErrorCode::kBadByte, offset),
                         ErrorToken::kJunk, offset);
        }
        if (symbol < 0) {
          return Recover(MakeError(StreamErrorCode::kUnknownLabel, offset),
                         open ? ErrorToken::kOpenLike : ErrorToken::kCloseLike,
                         offset);
        }
        return open ? EmitOpen(symbol, offset, offset)
                    : EmitClose(symbol, offset, offset);
      });
    }
    if (!ok) return false;
    ++i;
  }
  CommitFrame(frame);
  stepper.Store();
  return true;
}

template <StreamingSelector::Emit kMode, typename Stepper>
SST_NOINLINE size_t StreamingSelector::TermRun(std::string_view chunk,
                                               size_t i, Frame& frame_io,
                                               Stepper& stepper_io) {
  Frame frame = frame_io;
  Stepper stepper = stepper_io;
  const int32_t* entries = tables_->byte_entry.data();
  const int64_t base = chunk_base_ + static_cast<int64_t>(i);
  const char* const bytes = chunk.data() + i;
  const char* const end = chunk.data() + chunk.size();
  // The label byte waiting for its '{', or null. Every token is
  // structural, so whitespace between a label and its brace never reaches
  // the loop. Every event completes on a brace of its own block, so a
  // block holds at most 64.
  const char* label = nullptr;
  // One structural byte: a label is remembered, '{' opens the waiting
  // label and '}' is a close; a stray '{', a label followed by anything
  // but '{', and junk stop the run. An unknown label has symbol -1, which
  // the core refuses.
  auto byte_token = [&](const char* p, auto roomy) SST_ALWAYS_INLINE_LAMBDA {
    const unsigned char c = static_cast<unsigned char>(*p);
    const ScannerTables::ByteClass byte_class =
        ScannerTables::ClassOf(entries[c]);
    if (byte_class == ScannerTables::kLabel) {
      if (label != nullptr) return false;  // a second label: junk
      label = p;
      return true;
    }
    const bool open = c == '{';
    if ((open != (label != nullptr)) |
        (!open & (byte_class != ScannerTables::kCloseBrace))) {
      return false;
    }
    const int64_t offset = base + (p - bytes);
    if (!CleanToken<kMode, true, decltype(roomy)::value>(
            frame, stepper, open,
            open ? ScannerTables::SymbolOf(
                       entries[static_cast<unsigned char>(*label)])
                 : -1,
            c, open ? base + (label - bytes) : offset, offset)) {
      return false;
    }
    label = nullptr;
    return true;
  };
  // One brace of a block whose every '{' directly follows a label byte and
  // whose every label byte directly precedes a '{': the open's label is
  // the byte before it, so only braces are walked and the label-or-brace
  // branch leaves the loop. Returns where the run stops, or null: at the
  // byte before a '{' that turns out not to be a label (junk, which the
  // exact path reports), or at a refused brace, its label left waiting.
  auto brace_token = [&](const char* p,
                         auto roomy) SST_ALWAYS_INLINE_LAMBDA -> const char* {
    const unsigned char c = static_cast<unsigned char>(*p);
    const bool open = c == '{';
    // Polarity is data, never a jump: an open reads its label's entry, a
    // close its own (both in bounds), and expects the class two below
    // kCloseBrace; '}' carries symbol -1, so one SymbolOf serves both.
    static_assert(ScannerTables::kCloseBrace - 2 == ScannerTables::kLabel);
    const int32_t entry =
        entries[static_cast<unsigned char>(p[-static_cast<int>(open)])];
    if (SST_UNLIKELY(static_cast<int>(ScannerTables::ClassOf(entry)) !=
                     ScannerTables::kCloseBrace - 2 * static_cast<int>(open))) {
      return p - 1;
    }
    const int64_t offset = base + (p - bytes);
    if (!CleanToken<kMode, true, decltype(roomy)::value>(
            frame, stepper, open, ScannerTables::SymbolOf(entry), c,
            offset - static_cast<int64_t>(open), offset)) {
      if (open) label = p - 1;
      return p;
    }
    return nullptr;
  };
  auto walk_bytes = [&](const char* block, uint64_t mask,
                        auto roomy) SST_ALWAYS_INLINE_LAMBDA -> const char* {
    for (; mask != 0; mask &= mask - 1) {
      const char* p = block + std::countr_zero(mask);
      if (!byte_token(p, roomy)) return p;
    }
    return nullptr;
  };
  auto walk_braces = [&](const char* block, uint64_t mask,
                         auto roomy) SST_ALWAYS_INLINE_LAMBDA -> const char* {
    for (; mask != 0; mask &= mask - 1) {
      const char* stop = brace_token(block + std::countr_zero(mask), roomy);
      if (stop != nullptr) return stop;
    }
    return nullptr;
  };
  const char* stop = end;
  for (const char* block = bytes; block < end; block += 64) {
    const size_t n = static_cast<size_t>(end - block);
    const uint64_t structural = ClassifyBlock(block, n < 64 ? n : 64);
    const uint64_t opens = MatchByteBlock(block, n, '{');
    const uint64_t braces = opens | MatchByteBlock(block, n, '}');
    const uint64_t labels = structural & ~braces;
    const bool carry = label != nullptr && label == block - 1;
    const bool roomy = frame.Roomy();
    const char* at;
    if ((label == nullptr || carry) &&
        opens == ((labels << 1) | uint64_t{carry})) {
      // The carried label is the first open's; a refused open leaves its
      // own label waiting.
      label = nullptr;
      at = roomy ? walk_braces(block, braces, std::true_type{})
                 : walk_braces(block, braces, std::false_type{});
      if (at == nullptr && labels >> 63 != 0) {
        // The last byte waits for the next block's '{', if it is a label;
        // anything else is junk for the exact path.
        at = block + 63;
        if (tables_->byte_class(static_cast<unsigned char>(*at)) ==
            ScannerTables::kLabel) {
          label = at;
          at = nullptr;
        }
      }
    } else {
      at = roomy ? walk_bytes(block, structural, std::true_type{})
                 : walk_bytes(block, structural, std::false_type{});
    }
    if (at != nullptr) {
      stop = at;
      break;
    }
  }
  // A label still waiting for its '{' carries into the exact path, or the
  // next chunk, as the open partial token.
  if (label != nullptr) {
    token_buf_[0] = *label;
    run_.token = PartialToken{base + (label - bytes), 1, true};
  }
  frame_io = frame;
  stepper_io = stepper;
  return i + static_cast<size_t>(stop - bytes);
}

size_t StreamingSelector::TermSkip(std::string_view chunk, size_t i) {
  const char* bytes = chunk.data() + i;
  return i + ForEachStructuralUntil(bytes, chunk.size() - i, [&](size_t k) {
    const unsigned char c = static_cast<unsigned char>(bytes[k]);
    if (c == '{') {
      ++run_.skip_depth;
    } else if (tables_->byte_class(c) == ScannerTables::kCloseBrace) {
      if (run_.skip_depth == 0) return false;
      --run_.skip_depth;
    }
    return true;
  });
}

template <StreamingSelector::Emit kMode, typename Stepper>
bool StreamingSelector::FeedTerm(std::string_view chunk, Stepper stepper) {
  const char* bytes = chunk.data();
  const size_t n = chunk.size();
  Frame frame = LoadFrame();
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
      i = TermRun<kMode>(chunk, i, frame, stepper);
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
      const Symbol s =
          tables_->byte_symbol(static_cast<unsigned char>(token_buf_[0]));
      if (!CleanToken<kMode, true, false>(frame, stepper, true, s, c,
                                          label_start, offset) &&
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
    } else if (tables_->byte_class(c) == ScannerTables::kCloseBrace) {
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

template <StreamingSelector::Emit kMode, typename Stepper>
SST_NOINLINE size_t StreamingSelector::XmlRun(std::string_view chunk,
                                              size_t i, Frame& frame_io,
                                              Stepper& stepper_io) {
  Frame frame = frame_io;
  Stepper stepper = stepper_io;
  const char* bytes = chunk.data();
  const size_t n = chunk.size();
  const int64_t base = chunk_base_;
  // Tags starting before `end`, on one headroom answer; false when one
  // needs the exact path.
  auto stretch = [&](size_t end, auto roomy) SST_ALWAYS_INLINE_LAMBDA {
    while (i < end) {
      const unsigned char c = static_cast<unsigned char>(bytes[i]);
      if (c != '<') {
        // junk: the exact path
        if (tables_->byte_class(c) != ScannerTables::kWs) return false;
        // Between tags only whitespace is legal before the next '<';
        // bulk-skip the run (SIMD/SWAR, base/byte_scan.h).
        i += 1 + FindStructural(bytes + i + 1, n - i - 1);
        continue;
      }
      const InPlaceTag tag = LexInPlace(bytes, n, i);
      if (!tag.complete) return false;  // the buffered lexer takes it
      const int64_t start = base + static_cast<int64_t>(i);
      const bool clean = CleanToken<kMode, false, decltype(roomy)::value>(
          frame, stepper, !tag.closing,
          LookupTag(*tables_, *alphabet_, bytes + tag.name,
                    tag.name_end - tag.name),
          0, start, base + static_cast<int64_t>(tag.name_end));
      if (SST_UNLIKELY(!clean)) return false;
      i = tag.name_end + 1;
    }
    return true;
  };
  // A tag is at least three bytes, so a stretch of 3 * kBlockEvents bytes
  // holds the starts of at most kBlockEvents tags: one headroom test
  // stands for their limit compares.
  while (i < n) {
    const size_t end = std::min(n, i + 3 * static_cast<size_t>(kBlockEvents));
    const bool more = frame.Roomy() ? stretch(end, std::true_type{})
                                    : stretch(end, std::false_type{});
    if (!more) break;
  }
  frame_io = frame;
  stepper_io = stepper;
  return i;
}

template <StreamingSelector::Emit kMode, typename Stepper>
bool StreamingSelector::FeedXml(std::string_view chunk, Stepper stepper) {
  const char* bytes = chunk.data();
  const size_t n = chunk.size();
  const int64_t base = chunk_base_;
  Frame frame = LoadFrame();
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
      i = XmlRun<kMode>(chunk, i, frame, stepper);
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
    if (!CleanToken<kMode, false, false>(frame, stepper, !run_.token.closing,
                                         s, 0, run_.token.start,
                                         end_offset) &&
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
  if (fused_ != nullptr && fused_->uses_compact_table()) {
    ok = Scan(FusedStepper<uint16_t>{machine_, fused_->table16(),
                                     fused_->accepting()},
              chunk);
  } else if (fused_ != nullptr) {
    ok = Scan(FusedStepper<int32_t>{machine_, fused_->table32(),
                                    fused_->accepting()},
              chunk);
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

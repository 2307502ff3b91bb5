#ifndef SST_DRA_STREAM_ERROR_H_
#define SST_DRA_STREAM_ERROR_H_

#include <cstdint>
#include <limits>
#include <string>

#include "automata/alphabet.h"

namespace sst {

// Structured first-error taxonomy of the streaming front-end. Every
// scanner that consumes tag-stream bytes reports malformed input through
// this one type, so the execution tiers (fused and generic) and the naive
// reference validator can be compared for byte-identical failure
// behavior.
enum class StreamErrorCode : uint8_t {
  kNone = 0,
  kUnknownLabel,        // element name outside the query alphabet
  kLabelMismatch,       // closing tag does not match the open element
  kUnbalancedClose,     // closing tag with no open element
  kTagTooLong,          // tag name exceeds the fixed lexer buffer
  kDepthLimitExceeded,  // StreamLimits::max_depth
  kByteLimitExceeded,   // StreamLimits::max_document_bytes
  kEventLimitExceeded,  // StreamLimits::max_events
  kTruncatedDocument,   // EOF inside a tag / with open elements / empty
  kBadByte,             // byte that no token can start with here
  kTrailingContent,     // content after the root element closed
};

// Name of the code, e.g. "kLabelMismatch" (stable; used in messages/tests).
const char* StreamErrorCodeName(StreamErrorCode code);

// First-error record: what went wrong, where, and in which context. The
// byte offset is the error's defining coordinate — all differential
// properties (chunk re-splits, fused vs generic vs reference) compare
// (code, offset) for identity.
struct StreamError {
  StreamErrorCode code = StreamErrorCode::kNone;
  int64_t offset = -1;   // byte offset of the first offending byte
  int64_t depth = 0;     // element nesting depth when the error fired
  Symbol expected = -1;  // kLabelMismatch: label of the open element
  Symbol got = -1;       // kLabelMismatch/kUnknownLabel: label seen (if any)

  bool ok() const { return code == StreamErrorCode::kNone; }

  // Human-readable rendering, e.g.
  //   "kLabelMismatch at byte 17 (depth 3): expected 'b', got 'c'".
  // `alphabet` may be null (symbols render as #N).
  std::string Render(const Alphabet* alphabet) const;

  friend bool operator==(const StreamError&, const StreamError&) = default;
};

// How the streaming front-end reacts to malformed input.
enum class RecoveryPolicy : uint8_t {
  // Record the first error and reject the rest of the stream (default;
  // the paper's well-formed setting).
  kFailFast,
  // Resynchronize: discard bytes from the error to the point where the
  // innermost open element closes, synthesize that element's close event,
  // and keep selecting. Matches fail-fast parsing of the sanitized
  // document (malformed region excised); see DESIGN.md "Robustness &
  // recovery" for why this truncation form is the strongest recovery the
  // streaming regime admits without O(depth) state checkpoints.
  kSkipMalformedSubtree,
  // Tolerate truncated documents: at Finish(), synthesize the missing
  // closing events for every still-open element (discarding a partial
  // tag in the lexer buffer) and report success. Mid-stream errors still
  // fail fast.
  kAutoClose,
};

const char* RecoveryPolicyName(RecoveryPolicy policy);

// Resource guards, enforced deterministically (error offsets independent
// of how the input is chunked) and off the bulk-skip hot loops: the depth
// and event guards ride the per-event paths, the byte guard is a per-Feed
// prefix split, and the recovery budget is only consulted when an error
// actually fires. Default-constructed limits are effectively unlimited.
struct StreamLimits {
  static constexpr int64_t kUnlimited =
      std::numeric_limits<int64_t>::max();

  int64_t max_depth = kUnlimited;           // peak element nesting
  int64_t max_document_bytes = kUnlimited;  // total bytes fed
  int64_t max_events = kUnlimited;          // tag events (opens + closes)
  int64_t max_recovered_errors = kUnlimited;  // recoveries before fatal
  // Emission-buffer bound of the match-event pipeline: the most spans a
  // stream may hold pending (verdict emitted, end offset unknown) at once.
  // Unlike the guards above this limit is not an error condition — on
  // overflow the newest span is reported immediately as truncated
  // (end_offset -1) instead of buffered; see base/match_sink.h.
  int64_t max_pending_matches = kUnlimited;

  bool unlimited() const {
    return max_depth == kUnlimited && max_document_bytes == kUnlimited &&
           max_events == kUnlimited && max_recovered_errors == kUnlimited &&
           max_pending_matches == kUnlimited;
  }

  // Returns nullptr when the limits admit at least one document, or a
  // static description of the first defect otherwise. Zero or negative
  // structural limits reject every stream at its first byte (the guard
  // looks enabled but nothing can ever pass it), max_events below 2
  // cannot admit even the one-node document (root open + close), and a
  // depth limit above the event limit can never fire before the event
  // guard does — all three are configuration bugs callers should see at
  // setup time, not as per-document kDepthLimitExceeded noise.
  // StreamingSelector::set_limits and the serving layer both reject
  // limits with Validate() != nullptr.
  const char* Validate() const;

  // Element-wise minimum: the stricter of the two bounds for every field.
  // The serving layer merges server defaults with per-request limits this
  // way, so a client can only ever tighten what the operator configured.
  static StreamLimits Merged(const StreamLimits& a, const StreamLimits& b);

  friend bool operator==(const StreamLimits&, const StreamLimits&) = default;
};

}  // namespace sst

#endif  // SST_DRA_STREAM_ERROR_H_

#ifndef SST_TESTING_REFERENCE_VALIDATOR_H_
#define SST_TESTING_REFERENCE_VALIDATOR_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "automata/alphabet.h"
#include "base/match_sink.h"
#include "dra/machine.h"
#include "dra/stream_error.h"

namespace sst::testing {

// Report of one reference run, field-for-field comparable with a
// fail-fast StreamingSelector run over the same bytes: the same first
// StreamError (code + offset + depth + labels) and the same partial
// counters up to that error.
struct ValidatedRun {
  StreamError error;      // code kNone when the document is well-formed
  int64_t nodes = 0;      // elements opened before the error
  int64_t events = 0;     // tag events before the error
  int64_t max_depth = 0;  // peak nesting before the error
  int64_t matches = 0;    // pre-selected nodes before the error

  bool ok() const { return error.ok(); }

  friend bool operator==(const ValidatedRun&, const ValidatedRun&) = default;
};

// Deliberately naive oracle of the compact-markup framing spec that
// StreamingSelector implements under RecoveryPolicy::kFailFast. It walks
// the whole document one byte at a time — no structural index, no byte
// tables, no fused runner — so it stays independent of the stage-1
// kernel and the execution tiers it checks. Well-formedness keeps a
// plain open-letter stack; the query itself is `machine` (reset first,
// driven through the StreamMachine interface), and a node counts as a
// match when the machine is accepting right after its opening letter.
//
// Spec, in check order:
//   opening letter  unknown label -> trailing content -> depth limit ->
//                   event limit;
//   closing letter  unknown label -> unbalanced close -> label mismatch
//                   -> event limit;
//   other bytes     ASCII whitespace is skipped, anything else is
//                   kBadByte;
//   then            a document longer than max_document_bytes fails with
//                   kByteLimitExceeded at that offset (only its prefix is
//                   scanned), and an empty or unclosed one with
//                   kTruncatedDocument at its end.
// Labels resolve through `alphabet`: 'x' and 'X' both name the label "x".
//
// With `log`, it is cleared and receives one MatchEvent per pre-selected
// node, in document order of the opening letters: query_id 0, the
// letter's offset as start_offset, the byte after it as certainty_offset,
// and the byte after the matching close as end_offset — or -1 when no
// close comes before the error or the end of the bytes.
ValidatedRun ReferenceValidate(StreamMachine* machine,
                               const Alphabet& alphabet,
                               std::string_view bytes,
                               const StreamLimits& limits = {},
                               std::vector<MatchEvent>* log = nullptr);

}  // namespace sst::testing

#endif  // SST_TESTING_REFERENCE_VALIDATOR_H_

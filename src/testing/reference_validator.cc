#include "testing/reference_validator.h"

#include <vector>

namespace sst::testing {

ValidatedRun ReferenceValidate(StreamMachine* machine,
                               const Alphabet& alphabet,
                               std::string_view bytes,
                               const StreamLimits& limits,
                               std::vector<MatchEvent>* log) {
  ValidatedRun run;
  machine->Reset();
  std::vector<Symbol> open;
  // Per open element, the index of its entry in `log`, or -1.
  std::vector<int64_t> open_match;
  if (log != nullptr) log->clear();
  bool saw_root = false;
  auto fail = [&](StreamErrorCode code, int64_t offset, Symbol expected,
                  Symbol got) {
    run.error = {code, offset, static_cast<int64_t>(open.size()), expected,
                 got};
    return run;
  };
  auto label = [&](char letter) {
    return alphabet.Find(std::string_view(&letter, 1));
  };

  const bool over_byte_limit =
      static_cast<int64_t>(bytes.size()) > limits.max_document_bytes;
  if (over_byte_limit) {
    bytes = bytes.substr(0, static_cast<size_t>(limits.max_document_bytes));
  }
  for (size_t i = 0; i < bytes.size(); ++i) {
    const char c = bytes[i];
    const int64_t offset = static_cast<int64_t>(i);
    if (c >= 'a' && c <= 'z') {
      Symbol s = label(c);
      if (s < 0) return fail(StreamErrorCode::kUnknownLabel, offset, -1, -1);
      if (open.empty() && saw_root) {
        return fail(StreamErrorCode::kTrailingContent, offset, -1, s);
      }
      if (static_cast<int64_t>(open.size()) >= limits.max_depth) {
        return fail(StreamErrorCode::kDepthLimitExceeded, offset, -1, s);
      }
      if (run.events >= limits.max_events) {
        return fail(StreamErrorCode::kEventLimitExceeded, offset, -1, -1);
      }
      saw_root = true;
      open.push_back(s);
      if (static_cast<int64_t>(open.size()) > run.max_depth) {
        run.max_depth = static_cast<int64_t>(open.size());
      }
      machine->OnOpen(s);
      ++run.events;
      int64_t match = -1;
      if (machine->InAcceptingState()) {
        ++run.matches;
        if (log != nullptr) {
          match = static_cast<int64_t>(log->size());
          log->push_back({0, offset, -1, offset + 1});
        }
      }
      open_match.push_back(match);
      ++run.nodes;
    } else if (c >= 'A' && c <= 'Z') {
      Symbol s = label(static_cast<char>(c - 'A' + 'a'));
      if (s < 0) return fail(StreamErrorCode::kUnknownLabel, offset, -1, -1);
      if (open.empty()) {
        return fail(StreamErrorCode::kUnbalancedClose, offset, -1, s);
      }
      if (open.back() != s) {
        return fail(StreamErrorCode::kLabelMismatch, offset, open.back(), s);
      }
      if (run.events >= limits.max_events) {
        return fail(StreamErrorCode::kEventLimitExceeded, offset, -1, -1);
      }
      open.pop_back();
      if (open_match.back() >= 0) {
        (*log)[static_cast<size_t>(open_match.back())].end_offset = offset + 1;
      }
      open_match.pop_back();
      machine->OnClose(s);
      ++run.events;
    } else if (c != ' ' && c != '\t' && c != '\n' && c != '\v' &&
               c != '\f' && c != '\r') {
      return fail(StreamErrorCode::kBadByte, offset, -1, -1);
    }
  }
  if (over_byte_limit) {
    return fail(StreamErrorCode::kByteLimitExceeded,
                limits.max_document_bytes, -1, -1);
  }
  if (!saw_root || !open.empty()) {
    return fail(StreamErrorCode::kTruncatedDocument,
                static_cast<int64_t>(bytes.size()), -1, -1);
  }
  return run;
}

}  // namespace sst::testing

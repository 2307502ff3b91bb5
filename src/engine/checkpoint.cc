#include "engine/checkpoint.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "base/check.h"

namespace sst {

void CheckpointStream::Append(Checkpoint cp) {
  SST_CHECK(cps_.empty() || cp.offset > cps_.back().offset);
  cps_.push_back(std::move(cp));
}

int64_t CheckpointStream::FindResume(int64_t offset, size_t end) const {
  SST_CHECK(end <= cps_.size());
  // Last checkpoint with cps_[i].offset <= offset.
  const auto first = cps_.begin();
  auto it = std::upper_bound(
      first, first + static_cast<std::ptrdiff_t>(end), offset,
      [](int64_t off, const Checkpoint& cp) { return off < cp.offset; });
  return static_cast<int64_t>(it - first) - 1;
}

size_t CheckpointStream::FirstAtOrAfter(int64_t offset, size_t from,
                                        size_t to) const {
  SST_CHECK(from <= to && to <= cps_.size());
  auto it = std::lower_bound(
      cps_.begin() + static_cast<std::ptrdiff_t>(from),
      cps_.begin() + static_cast<std::ptrdiff_t>(to), offset,
      [](const Checkpoint& cp, int64_t off) { return cp.offset < off; });
  return static_cast<size_t>(it - cps_.begin());
}

void CheckpointStream::Splice(StreamingSelector* selector, size_t from,
                              size_t to, std::vector<Checkpoint>* with) {
  SST_CHECK(from <= to && to <= cps_.size());
  ReleaseRange(selector, from, to);
  const size_t reuse = std::min(to - from, with->size());
  const auto first = cps_.begin() + static_cast<std::ptrdiff_t>(from);
  const auto split = with->begin() + static_cast<std::ptrdiff_t>(reuse);
  std::move(with->begin(), split, first);
  if (reuse < to - from) {
    cps_.erase(first + static_cast<std::ptrdiff_t>(reuse),
               cps_.begin() + static_cast<std::ptrdiff_t>(to));
  } else {
    cps_.insert(cps_.begin() + static_cast<std::ptrdiff_t>(to),
                std::make_move_iterator(split),
                std::make_move_iterator(with->end()));
  }
  with->clear();
}

void CheckpointStream::ReleaseRange(StreamingSelector* selector, size_t from,
                                    size_t to) {
  for (size_t i = from; i < to; ++i) {
    selector->ReleaseCheckpoint(cps_[i].state);
  }
}

void CheckpointStream::Erase(StreamingSelector* selector, size_t from,
                             size_t to) {
  SST_CHECK(from <= to && to <= cps_.size());
  ReleaseRange(selector, from, to);
  cps_.erase(cps_.begin() + static_cast<std::ptrdiff_t>(from),
             cps_.begin() + static_cast<std::ptrdiff_t>(to));
}

}  // namespace sst

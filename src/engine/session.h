#ifndef SST_ENGINE_SESSION_H_
#define SST_ENGINE_SESSION_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <utility>
#include <vector>

#include "base/check.h"
#include "dra/stream_error.h"
#include "dra/streaming.h"
#include "engine/query_plan.h"

namespace sst {

// The run-many half of query evaluation: cheap per-stream mutable state —
// one machine instance (a state, or a state plus O(registers) chain), the
// scanner's lexer/validator state, and the StreamStats counters — borrowing
// a const QueryPlan. K concurrent streams over the same query hold K
// Sessions and ONE plan: no per-session table copies, no recompilation.
//
// A Session is single-threaded (one stream); concurrency comes from many
// sessions sharing the plan. Construction on a compiled plan performs no
// table building (cost independent of automaton and alphabet size), and
// Reset() restores the freshly-constructed state without touching the heap,
// which makes sessions poolable (SessionPool below).
class Session {
 public:
  // `plan` must be exact() — a plan with no machine cannot stream.
  explicit Session(std::shared_ptr<const QueryPlan> plan);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const QueryPlan& plan() const { return *plan_; }
  const std::shared_ptr<const QueryPlan>& plan_ptr() const { return plan_; }

  // The underlying scanner, for policy/limits/callback configuration and
  // the full observability surface (stats, recovered errors, tiers).
  StreamingSelector& selector() { return selector_; }
  const StreamingSelector& selector() const { return selector_; }

  // Streaming interface (see StreamingSelector for semantics).
  bool Feed(std::string_view chunk) { return selector_.Feed(chunk); }
  bool Finish() { return selector_.Finish(); }
  void Reset() { selector_.Reset(); }

  // Streams every pre-selected node into `sink` as a MatchEvent
  // (query_id 0) at its earliest certain byte; survives Reset() like
  // limits, so a pooled session keeps its sink wiring across documents.
  // See StreamingSelector::set_match_sink.
  void set_match_sink(MatchSink* sink) { selector_.set_match_sink(sink); }

  int64_t matches() const { return selector_.matches(); }
  StreamStats stats() const { return selector_.stats(); }
  bool failed() const { return selector_.failed(); }
  const StreamError& stream_error() const { return selector_.stream_error(); }

 private:
  std::shared_ptr<const QueryPlan> plan_;
  std::unique_ptr<StreamMachine> machine_;
  StreamingSelector selector_;
};

// Occupancy-observable pool counters: serving layers drive admission
// control and load shedding off `outstanding` (leases currently live) and
// `peak_outstanding` (the high-watermark since construction), and export
// the whole snapshot through their metrics endpoint.
struct SessionPoolStats {
  int64_t created = 0;    // sessions constructed from scratch
  int64_t reused = 0;     // acquisitions served from the free list
  int64_t destroyed = 0;  // releases dropped because the free list was full
  int64_t outstanding = 0;       // acquired and not yet released
  int64_t peak_outstanding = 0;  // occupancy high-watermark
  int64_t idle = 0;              // free-list size at snapshot time

  friend bool operator==(const SessionPoolStats&,
                         const SessionPoolStats&) = default;
};

// A bounded free-list of idle sessions over one shared plan. Acquire()
// reuses an idle session (a Reset, zero heap allocations) or creates a
// fresh one; Release() returns it. Thread-safe; typical use is one pool
// per served query (SessionPool) or batch (BatchSessionPool) with worker
// threads acquiring per request.
template <typename SessionT, typename PlanT>
class SessionPoolOf {
 public:
  using Stats = SessionPoolStats;

  // `max_idle` bounds the free list; releases beyond it destroy the
  // session instead (bounding memory under bursty load).
  explicit SessionPoolOf(std::shared_ptr<const PlanT> plan,
                         size_t max_idle = 64)
      : plan_(std::move(plan)), max_idle_(max_idle) {}

  std::unique_ptr<SessionT> Acquire() {
    std::unique_ptr<SessionT> session;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!idle_.empty()) {
        session = std::move(idle_.back());
        idle_.pop_back();
        ++stats_.reused;
      } else {
        ++stats_.created;
      }
      ++stats_.outstanding;
      if (stats_.outstanding > stats_.peak_outstanding) {
        stats_.peak_outstanding = stats_.outstanding;
      }
    }
    if (session == nullptr) return std::make_unique<SessionT>(plan_);
    session->Reset();
    return session;
  }

  void Release(std::unique_ptr<SessionT> session) {
    if (session == nullptr) return;
    SST_CHECK(session->plan_ptr() == plan_);
    std::lock_guard<std::mutex> lock(mu_);
    --stats_.outstanding;
    if (idle_.size() < max_idle_) {
      idle_.push_back(std::move(session));
    } else {
      ++stats_.destroyed;
    }
  }

  const std::shared_ptr<const PlanT>& plan() const { return plan_; }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    Stats snapshot = stats_;
    snapshot.idle = static_cast<int64_t>(idle_.size());
    return snapshot;
  }

  size_t idle() const {
    std::lock_guard<std::mutex> lock(mu_);
    return idle_.size();
  }

 private:
  std::shared_ptr<const PlanT> plan_;
  size_t max_idle_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SessionT>> idle_;
  Stats stats_;
};

using SessionPool = SessionPoolOf<Session, QueryPlan>;

// RAII lease: a Session that returns itself to its pool on destruction.
class SessionLease {
 public:
  SessionLease(SessionPool* pool, std::unique_ptr<Session> session)
      : pool_(pool), session_(std::move(session)) {}
  ~SessionLease() {
    if (session_) pool_->Release(std::move(session_));
  }

  SessionLease(SessionLease&&) = default;
  SessionLease& operator=(SessionLease&&) = default;

  Session* operator->() { return session_.get(); }
  Session& operator*() { return *session_; }

 private:
  SessionPool* pool_;
  std::unique_ptr<Session> session_;
};

inline SessionLease Lease(SessionPool& pool) {
  return SessionLease(&pool, pool.Acquire());
}

}  // namespace sst

#endif  // SST_ENGINE_SESSION_H_

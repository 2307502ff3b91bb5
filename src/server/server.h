#ifndef SST_SERVER_SERVER_H_
#define SST_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/multi_query.h"
#include "engine/plan_cache.h"
#include "engine/session.h"
#include "server/admission.h"
#include "server/event_loop.h"
#include "server/metrics.h"
#include "server/protocol.h"

namespace sst {

class Connection;
class QueryServer;

// One leased per-document evaluation stream over a registered batch:
// either a pooled Session (single-query registrations) or a pooled
// BatchSession (batches), behind one streaming surface. Single-threaded,
// like the sessions it wraps.
class BatchStream {
 public:
  bool Feed(std::string_view chunk);
  bool Finish();
  bool failed() const;
  const StreamError& stream_error() const;
  // Per-query selection counts in submission order.
  std::vector<int64_t> counts() const;

  // Match-event surface (matches=1 leases only; see BatchHandle::Acquire).
  // The wrapped session streams MatchEvents into an internal wire buffer;
  // the connection drains it after every fed chunk — so buffered growth
  // between flushes is bounded by one chunk's events — and once more
  // before the verdict frame (pending spans truncated by an error land
  // there).
  bool matches_enabled() const { return matches_enabled_; }
  std::vector<MatchWireRecord> TakeMatches() { return wire_.Take(); }

  // Per-document stream counters of the wrapped session, including
  // matches_emitted and pending_matches_peak for the metrics export.
  StreamStats stats() const;

 private:
  friend class BatchHandle;
  BatchStream() = default;

  std::unique_ptr<Session> single_;     // single-query registrations
  std::unique_ptr<BatchSession> batch_;  // multi-query registrations
  bool matches_enabled_ = false;
  MatchWireBuffer wire_;  // sink target while this lease is live
};

// One registered batch: the compiled plan plus its session pool, shared by
// every connection that registered the same canonical batch. Single-query
// registrations compile through the PlanCache into a QueryPlan+SessionPool;
// multi-query ones into a MultiQueryPlan+BatchSessionPool. Immutable after
// Create; Acquire/Release are thread-safe (the pools lock).
class BatchHandle {
 public:
  // Compiles the batch; null with a one-line reason in *error when the
  // request is rejected (unknown label, unsupported query, ...). Never
  // aborts on client-controlled input: query text is validated against
  // the parser's grammar before Rpq::FromXPath (which SST_CHECKs) runs.
  static std::shared_ptr<BatchHandle> Create(const RegisterRequest& request,
                                             const Alphabet& alphabet,
                                             const MultiQueryOptions& options,
                                             PlanCache* cache,
                                             std::string* error);

  const RegisteredInfo& info() const { return info_; }
  const Alphabet& alphabet() const { return alphabet_; }
  int num_queries() const { return info_.num_queries; }
  SessionPool::Stats pool_stats() const;

  // Leases a configured per-document stream. `limits` must pass
  // StreamLimits::Validate() (the connection merges and validates at
  // register time). With `matches` the leased session streams MatchEvents
  // into the BatchStream's wire buffer; Release always unhooks the sink
  // before the session returns to the pool (the buffer dies with the
  // lease).
  std::unique_ptr<BatchStream> Acquire(const StreamLimits& limits,
                                       RecoveryPolicy policy,
                                       bool matches = false);
  void Release(std::unique_ptr<BatchStream> stream);

 private:
  BatchHandle() = default;

  Alphabet alphabet_;
  RegisteredInfo info_;
  std::shared_ptr<const QueryPlan> plan_;        // single-query
  std::unique_ptr<SessionPool> single_pool_;     // single-query
  std::shared_ptr<const MultiQueryPlan> multi_;  // batch
  std::unique_ptr<BatchSessionPool> batch_pool_;  // batch
};

// Everything a Connection needs from its surroundings, so the connection
// state machine is testable against a stub and ignorant of Worker/server
// wiring. All methods are called on the host's loop thread.
class ConnectionHost {
 public:
  virtual ~ConnectionHost() = default;

  virtual EventLoop& loop() = 0;
  virtual const ServerLimits& limits() const = 0;
  virtual ServerCounters& counters() = 0;
  virtual AdmissionState& admission_state() = 0;
  virtual RecoveryPolicy recovery_policy() const = 0;

  // Document-start admission (see AdmissionController::AdmitStream).
  virtual std::optional<ShedReason> AdmitStream(int64_t batch_outstanding) = 0;

  // Resolves a kRegister payload to a (possibly shared) compiled batch;
  // null with a reason in *error on rejection.
  virtual std::shared_ptr<BatchHandle> GetOrRegisterBatch(
      const RegisterRequest& request, std::string* error) = 0;

  virtual std::string MetricsText() = 0;

  // Destroys the connection object. The connection calls this as its very
  // last act (CloseNow); `this` is gone when it returns.
  virtual void DestroyConnection(int fd) = 0;
};

// One worker event loop plus the connections pinned to it. Connections
// never migrate; everything per-connection is single-threaded on this
// worker's loop. Adopt() and BeginDrain() are the cross-thread entry
// points (posted tasks).
class Worker : public ConnectionHost {
 public:
  explicit Worker(QueryServer* server);
  ~Worker() override;

  void Start();
  void Join();

  // Hands a freshly accepted (non-blocking) socket to this worker.
  void Adopt(int fd);

  // Starts draining: idle connections are shed immediately, in-flight
  // documents run until `force_deadline_ms` (absolute, EventLoop::NowMs
  // base), then survivors are force-closed with kShed(drain_deadline).
  // The loop stops once the last connection is gone.
  void BeginDrain(int64_t force_deadline_ms);

  // Connections handed to this worker and not yet destroyed (including
  // any whose adoption task is still queued), for least-loaded adoption.
  size_t approx_connections() const {
    return load_.load(std::memory_order_relaxed);
  }

  // ConnectionHost:
  EventLoop& loop() override { return loop_; }
  const ServerLimits& limits() const override;
  ServerCounters& counters() override;
  AdmissionState& admission_state() override;
  RecoveryPolicy recovery_policy() const override;
  std::optional<ShedReason> AdmitStream(int64_t batch_outstanding) override;
  std::shared_ptr<BatchHandle> GetOrRegisterBatch(
      const RegisterRequest& request, std::string* error) override;
  std::string MetricsText() override;
  void DestroyConnection(int fd) override;

 private:
  void AdoptOnLoop(int fd);
  void ForceCloseAll();
  void StopIfDrained();

  QueryServer* server_;
  EventLoop loop_;
  std::thread thread_;

  // Loop-thread state.
  std::unordered_map<int, std::unique_ptr<Connection>> connections_;
  bool draining_ = false;

  std::atomic<size_t> load_{0};
};

struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0: kernel-assigned; read back via port()
  int num_workers = 2;

  ServerLimits limits;
  PlanCache::Options cache;
  MultiQueryOptions multi;
  RecoveryPolicy recovery = RecoveryPolicy::kFailFast;
};

// The query service: one non-blocking acceptor loop feeding N worker
// loops, a shared PlanCache, and a registry of compiled batches. See
// DESIGN.md "Serving layer" for the protocol and the robustness
// machinery (admission, backpressure, deadlines, drain).
class QueryServer {
 public:
  explicit QueryServer(ServerOptions options = ServerOptions());
  ~QueryServer();  // Stop()s if still running

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  // Binds, listens and spawns the acceptor + worker threads. False with a
  // reason in *error (bad options, bind failure).
  bool Start(std::string* error = nullptr);

  uint16_t port() const { return port_; }

  // Graceful drain: stop accepting (admission sheds with kDraining),
  // finish in-flight documents up to limits.drain_deadline_ms, then
  // force-close stragglers with kShed(drain_deadline). Idempotent;
  // callable from any thread.
  void RequestDrain();

  // Joins the acceptor and every worker (returns once drained).
  void WaitUntilDrained();

  // RequestDrain with a zero deadline + WaitUntilDrained.
  void Stop();

  bool draining() const {
    return admission_state_.draining.load(std::memory_order_relaxed);
  }

  // Point-in-time snapshot: server counters + PlanCache stats + pooled
  // session occupancy aggregated across every registered batch.
  ServerStats stats() const;

  const ServerOptions& options() const { return options_; }
  ServerCounters& counters() { return counters_; }
  const AdmissionController& admission() const { return admission_; }
  AdmissionState& admission_state() { return admission_state_; }

  // Routes `signum` (typically SIGTERM) to RequestDrain through a
  // self-pipe, so the handler stays async-signal-safe. One server per
  // process. Call after Start().
  bool InstallSignalDrain(int signum);

  // Worker-facing surface.
  std::shared_ptr<BatchHandle> GetOrRegisterBatch(
      const RegisterRequest& request, std::string* error);
  std::string MetricsText();

 private:
  class Acceptor;

  void AcceptReady();
  void RequestDrainWithDeadline(int64_t deadline_ms);

  ServerOptions options_;
  AdmissionState admission_state_;
  AdmissionController admission_;
  ServerCounters counters_;
  PlanCache cache_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  int signal_pipe_[2] = {-1, -1};

  EventLoop acceptor_loop_;
  std::thread acceptor_thread_;
  std::unique_ptr<Acceptor> acceptor_;
  std::vector<std::unique_ptr<Worker>> workers_;

  std::atomic<bool> started_{false};
  std::atomic<bool> drain_requested_{false};
  std::atomic<bool> joined_{false};

  mutable std::mutex batches_mu_;
  std::unordered_map<std::string, std::shared_ptr<BatchHandle>> batches_;
};

}  // namespace sst

#endif  // SST_SERVER_SERVER_H_

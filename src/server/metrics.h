#ifndef SST_SERVER_METRICS_H_
#define SST_SERVER_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/plan_cache.h"
#include "engine/session.h"

namespace sst {

// Monotonic serving counters, one instance per server, touched lock-free
// from the acceptor and every worker. Gauges (active connections/streams)
// live in AdmissionState; everything here only ever increments.
struct ServerCounters {
  std::atomic<int64_t> connections_accepted{0};
  std::atomic<int64_t> connections_closed{0};
  std::atomic<int64_t> connections_peak{0};

  std::atomic<int64_t> streams_started{0};
  std::atomic<int64_t> streams_completed{0};  // kCounts delivered
  std::atomic<int64_t> streams_failed{0};     // kError verdict delivered
  std::atomic<int64_t> streams_peak{0};

  // Typed rejections, by ShedReason family.
  std::atomic<int64_t> sheds_connection{0};  // at accept
  std::atomic<int64_t> sheds_stream{0};      // at document start
  std::atomic<int64_t> idle_timeouts{0};
  std::atomic<int64_t> write_timeouts{0};

  std::atomic<int64_t> disconnects_mid_stream{0};
  std::atomic<int64_t> protocol_errors{0};
  std::atomic<int64_t> backpressure_pauses{0};

  // Match-event pipeline (matches=1 registrations): MatchEvents shipped in
  // kMatches frames, and the high-watermark of any one stream's pending
  // span buffer (the max_pending_matches-bounded emission buffer).
  std::atomic<int64_t> matches_emitted{0};
  std::atomic<int64_t> match_buffer_peak{0};

  // Stack-tier observability (kStackBaseline registrations): the deepest
  // evaluation stack any one stream reached, and closes tolerated with an
  // empty stack (unbalanced machine-level streams). Both stay 0 while
  // every registered plan runs on a stackless tier — which makes the pair
  // the serving-layer witness of the paper's O(1)-configuration claim.
  std::atomic<int64_t> stack_depth_peak{0};
  std::atomic<int64_t> underflow_closes{0};

  std::atomic<int64_t> drain_completed_streams{0};  // finished during drain
  std::atomic<int64_t> drain_forced_closes{0};      // kShed(drain_deadline)

  std::atomic<int64_t> bytes_in{0};
  std::atomic<int64_t> bytes_out{0};
  std::atomic<int64_t> frames_in{0};
  std::atomic<int64_t> frames_out{0};

  // Raises `peak` to at least `value` (monotonic CAS).
  static void RaisePeak(std::atomic<int64_t>* peak, int64_t value) {
    int64_t seen = peak->load(std::memory_order_relaxed);
    while (seen < value &&
           !peak->compare_exchange_weak(seen, value,
                                        std::memory_order_relaxed)) {
    }
  }
};

// Point-in-time snapshot of everything the server exports: its own
// counters plus the engine-layer observability it aggregates (PlanCache
// hit/miss/coalesced, pooled-session occupancy across every registered
// batch). Served as plaintext over the wire (kMetrics -> kMetricsText)
// and returned by QueryServer::stats().
struct ServerStats {
  // Gauges.
  int64_t active_connections = 0;
  int64_t active_streams = 0;
  bool draining = false;
  std::vector<int64_t> worker_connections;  // per worker, in worker order

  // Counters (see ServerCounters).
  int64_t connections_accepted = 0;
  int64_t connections_closed = 0;
  int64_t connections_peak = 0;
  int64_t streams_started = 0;
  int64_t streams_completed = 0;
  int64_t streams_failed = 0;
  int64_t streams_peak = 0;
  int64_t sheds_connection = 0;
  int64_t sheds_stream = 0;
  int64_t idle_timeouts = 0;
  int64_t write_timeouts = 0;
  int64_t disconnects_mid_stream = 0;
  int64_t protocol_errors = 0;
  int64_t backpressure_pauses = 0;
  int64_t matches_emitted = 0;
  int64_t match_buffer_peak = 0;
  int64_t stack_depth_peak = 0;
  int64_t underflow_closes = 0;
  int64_t drain_completed_streams = 0;
  int64_t drain_forced_closes = 0;
  int64_t bytes_in = 0;
  int64_t bytes_out = 0;
  int64_t frames_in = 0;
  int64_t frames_out = 0;

  // Engine layer.
  PlanCache::Stats cache;
  int64_t batches_registered = 0;  // distinct batch pools
  SessionPool::Stats pool;         // summed across every batch pool
};

// Fills the counter section of a snapshot (gauges and engine stats are the
// server's to add).
void SnapshotCounters(const ServerCounters& counters, ServerStats* stats);

// Plaintext rendering, one `name value` line per counter — the payload of
// kMetricsText frames. Stable names; consumers scrape by line prefix.
std::string RenderMetrics(const ServerStats& stats);

}  // namespace sst

#endif  // SST_SERVER_METRICS_H_

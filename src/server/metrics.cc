#include "server/metrics.h"

namespace sst {

void SnapshotCounters(const ServerCounters& counters, ServerStats* stats) {
  auto load = [](const std::atomic<int64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  stats->connections_accepted = load(counters.connections_accepted);
  stats->connections_closed = load(counters.connections_closed);
  stats->connections_peak = load(counters.connections_peak);
  stats->streams_started = load(counters.streams_started);
  stats->streams_completed = load(counters.streams_completed);
  stats->streams_failed = load(counters.streams_failed);
  stats->streams_peak = load(counters.streams_peak);
  stats->sheds_connection = load(counters.sheds_connection);
  stats->sheds_stream = load(counters.sheds_stream);
  stats->idle_timeouts = load(counters.idle_timeouts);
  stats->write_timeouts = load(counters.write_timeouts);
  stats->disconnects_mid_stream = load(counters.disconnects_mid_stream);
  stats->protocol_errors = load(counters.protocol_errors);
  stats->backpressure_pauses = load(counters.backpressure_pauses);
  stats->matches_emitted = load(counters.matches_emitted);
  stats->match_buffer_peak = load(counters.match_buffer_peak);
  stats->stack_depth_peak = load(counters.stack_depth_peak);
  stats->underflow_closes = load(counters.underflow_closes);
  stats->drain_completed_streams = load(counters.drain_completed_streams);
  stats->drain_forced_closes = load(counters.drain_forced_closes);
  stats->bytes_in = load(counters.bytes_in);
  stats->bytes_out = load(counters.bytes_out);
  stats->frames_in = load(counters.frames_in);
  stats->frames_out = load(counters.frames_out);
}

std::string RenderMetrics(const ServerStats& stats) {
  std::string out;
  out.reserve(1024);
  auto line = [&out](const char* name, int64_t value) {
    out += name;
    out += ' ';
    out += std::to_string(value);
    out += '\n';
  };
  line("server_active_connections", stats.active_connections);
  line("server_active_streams", stats.active_streams);
  line("server_draining", stats.draining ? 1 : 0);
  for (size_t worker = 0; worker < stats.worker_connections.size(); ++worker) {
    out += "server_worker_connections{worker=\"";
    out += std::to_string(worker);
    out += "\"} ";
    out += std::to_string(stats.worker_connections[worker]);
    out += '\n';
  }
  line("server_connections_accepted", stats.connections_accepted);
  line("server_connections_closed", stats.connections_closed);
  line("server_connections_peak", stats.connections_peak);
  line("server_streams_started", stats.streams_started);
  line("server_streams_completed", stats.streams_completed);
  line("server_streams_failed", stats.streams_failed);
  line("server_streams_peak", stats.streams_peak);
  line("server_sheds_connection", stats.sheds_connection);
  line("server_sheds_stream", stats.sheds_stream);
  line("server_idle_timeouts", stats.idle_timeouts);
  line("server_write_timeouts", stats.write_timeouts);
  line("server_disconnects_mid_stream", stats.disconnects_mid_stream);
  line("server_protocol_errors", stats.protocol_errors);
  line("server_backpressure_pauses", stats.backpressure_pauses);
  line("server_matches_emitted", stats.matches_emitted);
  line("server_match_buffer_peak", stats.match_buffer_peak);
  line("server_stack_depth_peak", stats.stack_depth_peak);
  line("server_underflow_closes", stats.underflow_closes);
  line("server_drain_completed_streams", stats.drain_completed_streams);
  line("server_drain_forced_closes", stats.drain_forced_closes);
  line("server_bytes_in", stats.bytes_in);
  line("server_bytes_out", stats.bytes_out);
  line("server_frames_in", stats.frames_in);
  line("server_frames_out", stats.frames_out);
  line("plan_cache_hits", stats.cache.hits);
  line("plan_cache_misses", stats.cache.misses);
  line("plan_cache_coalesced_misses", stats.cache.coalesced_misses);
  line("plan_cache_evictions", stats.cache.evictions);
  line("plan_cache_size", stats.cache.size);
  line("server_batches_registered", stats.batches_registered);
  line("session_pool_created", stats.pool.created);
  line("session_pool_reused", stats.pool.reused);
  line("session_pool_destroyed", stats.pool.destroyed);
  line("session_pool_outstanding", stats.pool.outstanding);
  line("session_pool_peak_outstanding", stats.pool.peak_outstanding);
  line("session_pool_idle", stats.pool.idle);
  return out;
}

}  // namespace sst

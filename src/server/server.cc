#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <unordered_set>
#include <utility>

#include "base/check.h"
#include "query/rpq.h"
#include "server/connection.h"

namespace sst {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

// --- client-input validation -------------------------------------------

const char* ValidateAlphabetLetters(std::string_view letters) {
  if (letters.empty()) return "alphabet must not be empty";
  for (char c : letters) {
    if (c < 'a' || c > 'z') {
      return "alphabet must be lowercase letters a-z";
    }
  }
  return nullptr;
}

// --- async-signal-safe drain routing -------------------------------------

// One server per process may install signal-driven drain; the handler
// only writes one byte to a pre-opened pipe.
std::atomic<int> g_drain_pipe_fd{-1};

void SignalDrainHandler(int) {
  int fd = g_drain_pipe_fd.load(kRelaxed);
  if (fd >= 0) {
    char byte = 'd';
    ssize_t ignored = write(fd, &byte, 1);
    (void)ignored;
  }
}

void SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  SST_CHECK(flags >= 0);
  SST_CHECK(fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0);
}

}  // namespace

// --- BatchStream ----------------------------------------------------------

bool BatchStream::Feed(std::string_view chunk) {
  return single_ ? single_->Feed(chunk) : batch_->Feed(chunk);
}

bool BatchStream::Finish() {
  return single_ ? single_->Finish() : batch_->Finish();
}

bool BatchStream::failed() const {
  return single_ ? single_->failed() : batch_->failed();
}

const StreamError& BatchStream::stream_error() const {
  return single_ ? single_->stream_error() : batch_->stream_error();
}

std::vector<int64_t> BatchStream::counts() const {
  if (single_) return {single_->matches()};
  return batch_->query_matches();
}

StreamStats BatchStream::stats() const {
  return single_ ? single_->stats() : batch_->stats();
}

// --- BatchHandle ----------------------------------------------------------

std::shared_ptr<BatchHandle> BatchHandle::Create(
    const RegisterRequest& request, const Alphabet& alphabet,
    const MultiQueryOptions& options, PlanCache* cache, std::string* error) {
  for (const std::string& query : request.queries) {
    // Rpq::FromXPath aborts on a malformed expression: fine for library
    // misuse, fatal for a server fed by untrusted clients.
    if (const char* defect = Rpq::CheckXPath(query, alphabet)) {
      *error = "query \"" + query + "\": " + defect;
      return nullptr;
    }
  }

  auto handle = std::shared_ptr<BatchHandle>(new BatchHandle());
  handle->alphabet_ = alphabet;
  if (request.queries.size() == 1) {
    handle->plan_ = cache->GetOrCompile(QuerySyntax::kXPath,
                                        request.queries[0], alphabet,
                                        options.plan);
    if (!handle->plan_->exact()) {
      *error = "query admits no exact streaming evaluator";
      return nullptr;
    }
    handle->single_pool_ = std::make_unique<SessionPool>(handle->plan_);
    handle->info_.num_queries = 1;
    handle->info_.num_slots = 1;
    handle->info_.tier = EvaluatorKindName(handle->plan_->kind());
  } else {
    std::vector<BatchQuery> batch;
    batch.reserve(request.queries.size());
    for (const std::string& query : request.queries) {
      batch.push_back(BatchQuery{QuerySyntax::kXPath, query});
    }
    handle->multi_ = MultiQueryPlan::Compile(batch, alphabet, options, cache);
    if (!handle->multi_->exact()) {
      // Reject at registration: a member with no exact evaluator has no
      // machine to ride the batch's scan.
      for (size_t i = 0; i < request.queries.size(); ++i) {
        const int slot = handle->multi_->slot_of(static_cast<int>(i));
        if (!handle->multi_->slot_plans()[static_cast<size_t>(slot)]
                 ->exact()) {
          *error = "query \"" + request.queries[i] +
                   "\": admits no exact streaming evaluator";
          break;
        }
      }
      return nullptr;
    }
    handle->batch_pool_ = std::make_unique<BatchSessionPool>(handle->multi_);
    MultiQueryPlan::Stats stats = handle->multi_->stats();
    handle->info_.num_queries = stats.num_queries;
    handle->info_.num_slots = stats.num_slots;
    handle->info_.tier = MultiTierName(stats.tier);
  }
  return handle;
}

SessionPool::Stats BatchHandle::pool_stats() const {
  return single_pool_ ? single_pool_->stats() : batch_pool_->stats();
}

std::unique_ptr<BatchStream> BatchHandle::Acquire(const StreamLimits& limits,
                                                  RecoveryPolicy policy,
                                                  bool matches) {
  auto stream = std::unique_ptr<BatchStream>(new BatchStream());
  stream->matches_enabled_ = matches;
  if (single_pool_) {
    stream->single_ = single_pool_->Acquire();
    stream->single_->selector().set_limits(limits);
    stream->single_->selector().set_recovery_policy(policy);
    stream->single_->set_match_sink(matches ? &stream->wire_ : nullptr);
  } else {
    stream->batch_ = batch_pool_->Acquire();
    stream->batch_->set_limits(limits);
    stream->batch_->set_recovery_policy(policy);
    stream->batch_->set_match_sink(matches ? &stream->wire_ : nullptr);
  }
  return stream;
}

void BatchHandle::Release(std::unique_ptr<BatchStream> stream) {
  if (!stream) return;
  if (stream->single_) {
    // Unhook the sink before pooling: the wire buffer dies with the lease,
    // and pooled sessions keep their sink wiring across Reset.
    stream->single_->set_match_sink(nullptr);
    single_pool_->Release(std::move(stream->single_));
  } else if (stream->batch_) {
    stream->batch_->set_match_sink(nullptr);
    batch_pool_->Release(std::move(stream->batch_));
  }
}

// --- Worker ----------------------------------------------------------------

Worker::Worker(QueryServer* server) : server_(server) {}

Worker::~Worker() = default;

void Worker::Start() {
  thread_ = std::thread([this] { loop_.Run(); });
}

void Worker::Join() {
  if (thread_.joinable()) thread_.join();
}

void Worker::Adopt(int fd) {
  // Counted at hand-off, on the acceptor thread: the next accept of the
  // same round already sees it, so back-to-back connects spread across
  // the workers instead of all reading a stale zero.
  load_.fetch_add(1, kRelaxed);
  loop_.Post([this, fd] { AdoptOnLoop(fd); });
}

void Worker::AdoptOnLoop(int fd) {
  auto connection = std::make_unique<Connection>(fd, this);
  Connection* raw = connection.get();
  connections_.emplace(fd, std::move(connection));
  raw->Start();
  // Adoption can race a drain request (the acceptor had already handed
  // the socket over): such latecomers are shed immediately.
  if (draining_) raw->BeginDrain();  // may destroy the connection
}

void Worker::BeginDrain(int64_t force_deadline_ms) {
  loop_.Post([this, force_deadline_ms] {
    if (draining_) return;
    draining_ = true;
    // BeginDrain may destroy connections (erasing from the map), so walk
    // a snapshot of fds and re-validate each.
    std::vector<int> fds;
    fds.reserve(connections_.size());
    for (const auto& [fd, connection] : connections_) fds.push_back(fd);
    for (int fd : fds) {
      auto it = connections_.find(fd);
      if (it != connections_.end()) it->second->BeginDrain();
    }
    loop_.RunAt(force_deadline_ms, [this] { ForceCloseAll(); });
    StopIfDrained();
  });
}

void Worker::ForceCloseAll() {
  std::vector<int> fds;
  fds.reserve(connections_.size());
  for (const auto& [fd, connection] : connections_) fds.push_back(fd);
  for (int fd : fds) {
    auto it = connections_.find(fd);
    if (it != connections_.end()) it->second->ForceCloseForDrain();
  }
}

void Worker::StopIfDrained() {
  if (draining_ && connections_.empty()) loop_.RequestStop();
}

const ServerLimits& Worker::limits() const {
  return server_->options().limits;
}

ServerCounters& Worker::counters() { return server_->counters(); }

AdmissionState& Worker::admission_state() {
  return server_->admission_state();
}

RecoveryPolicy Worker::recovery_policy() const {
  return server_->options().recovery;
}

std::optional<ShedReason> Worker::AdmitStream(int64_t batch_outstanding) {
  return server_->admission().AdmitStream(batch_outstanding);
}

std::shared_ptr<BatchHandle> Worker::GetOrRegisterBatch(
    const RegisterRequest& request, std::string* error) {
  return server_->GetOrRegisterBatch(request, error);
}

std::string Worker::MetricsText() { return server_->MetricsText(); }

void Worker::DestroyConnection(int fd) {
  connections_.erase(fd);
  load_.fetch_sub(1, kRelaxed);
  StopIfDrained();
}

// --- QueryServer -------------------------------------------------------------

// Handler on the acceptor loop for the listen socket, the signal-drain
// pipe, and sockets lingering after a connection-level shed.
class QueryServer::Acceptor : public EventLoop::Handler {
 public:
  Acceptor(QueryServer* server, int listen_fd, int drain_fd)
      : server_(server), listen_fd_(listen_fd), drain_fd_(drain_fd) {}

  // Half-closes a just-shed socket and parks it on the loop until the
  // peer's FIN (or `linger_ms`). An immediate close() would RST a client
  // still mid-write and tear the typed kShed frame out of its receive
  // buffer before it could read the verdict.
  void LingerShed(int fd, EventLoop& loop, int64_t linger_ms) {
    shutdown(fd, SHUT_WR);
    shed_fds_.insert(fd);
    loop.Add(fd, this, /*want_read=*/true, /*want_write=*/false);
    loop.SetDeadline(fd, EventLoop::NowMs() + linger_ms);
  }

  void CloseAllShed(EventLoop& loop) {
    for (int fd : shed_fds_) {
      loop.Remove(fd);
      close(fd);
    }
    shed_fds_.clear();
  }

  void OnReadable(int fd) override {
    if (fd == listen_fd_) {
      server_->AcceptReady();
      return;
    }
    if (fd == drain_fd_) {
      char buf[16];
      while (read(drain_fd_, buf, sizeof buf) > 0) {
      }
      server_->RequestDrain();
      return;
    }
    // Lingering shed socket: discard whatever the peer was mid-writing;
    // EOF (its FIN) or an error retires it.
    char buf[4096];
    while (true) {
      ssize_t n = read(fd, buf, sizeof buf);
      if (n > 0) continue;
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      CloseShed(fd);
      return;
    }
  }
  void OnWritable(int) override {}
  void OnDeadline(int fd, int64_t) override { CloseShed(fd); }

 private:
  void CloseShed(int fd) {
    server_->acceptor_loop_.Remove(fd);
    close(fd);
    shed_fds_.erase(fd);
  }

  QueryServer* server_;
  int listen_fd_;
  int drain_fd_;
  std::unordered_set<int> shed_fds_;  // loop-thread only
};

QueryServer::QueryServer(ServerOptions options)
    : options_(std::move(options)),
      admission_(options_.limits, &admission_state_),
      cache_(options_.cache) {}

QueryServer::~QueryServer() {
  if (started_.load(kRelaxed)) Stop();
  if (signal_pipe_[0] >= 0) {
    // Disarm the handler's fd before it dangles.
    int write_end = signal_pipe_[1];
    g_drain_pipe_fd.compare_exchange_strong(write_end, -1, kRelaxed);
    close(signal_pipe_[0]);
    close(signal_pipe_[1]);
  }
  if (listen_fd_ >= 0) close(listen_fd_);
}

bool QueryServer::Start(std::string* error) {
  std::string local_error;
  if (error == nullptr) error = &local_error;
  if (started_.load(kRelaxed)) {
    *error = "server already started";
    return false;
  }
  if (const char* defect = options_.limits.Validate()) {
    *error = defect;
    return false;
  }
  if (options_.num_workers < 1) {
    *error = "num_workers must be positive";
    return false;
  }

  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  SetNonBlocking(listen_fd_);
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    *error = "host is not an IPv4 address: " + options_.host;
    close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    *error = std::string("bind: ") + std::strerror(errno);
    close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (listen(listen_fd_, 1024) != 0) {
    *error = std::string("listen: ") + std::strerror(errno);
    close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t addr_len = sizeof addr;
  SST_CHECK(getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                        &addr_len) == 0);
  port_ = ntohs(addr.sin_port);

  SST_CHECK(pipe(signal_pipe_) == 0);
  SetNonBlocking(signal_pipe_[0]);
  SetNonBlocking(signal_pipe_[1]);

  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>(this));
  }

  acceptor_ =
      std::make_unique<Acceptor>(this, listen_fd_, signal_pipe_[0]);
  acceptor_loop_.Add(listen_fd_, acceptor_.get(), /*want_read=*/true,
                     /*want_write=*/false);
  acceptor_loop_.Add(signal_pipe_[0], acceptor_.get(), /*want_read=*/true,
                     /*want_write=*/false);

  for (auto& worker : workers_) worker->Start();
  acceptor_thread_ = std::thread([this] { acceptor_loop_.Run(); });
  started_.store(true, kRelaxed);
  return true;
}

void QueryServer::AcceptReady() {
  while (true) {
    int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN, or transient (EMFILE/ECONNABORTED): retry on next poll
    }
    SetNonBlocking(fd);
    counters_.connections_accepted.fetch_add(1, kRelaxed);

    std::optional<ShedReason> shed = admission_.AdmitConnection();
    if (shed.has_value()) {
      // Reject before the connection costs any worker state: one
      // best-effort typed frame (fits in a fresh socket buffer), close.
      counters_.sheds_connection.fetch_add(1, kRelaxed);
      std::string frame;
      AppendFrame(FrameType::kShed, EncodeShed(*shed), &frame);
      counters_.frames_out.fetch_add(1, kRelaxed);
      ssize_t n = send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
      if (n > 0) counters_.bytes_out.fetch_add(n, kRelaxed);
      acceptor_->LingerShed(fd, acceptor_loop_,
                            options_.limits.write_timeout_ms);
      continue;
    }

    int64_t active =
        admission_state_.active_connections.fetch_add(1, kRelaxed) + 1;
    ServerCounters::RaisePeak(&counters_.connections_peak, active);

    // Least-loaded adoption.
    Worker* target = workers_[0].get();
    size_t best = target->approx_connections();
    for (auto& worker : workers_) {
      size_t load = worker->approx_connections();
      if (load < best) {
        best = load;
        target = worker.get();
      }
    }
    target->Adopt(fd);
  }
}

void QueryServer::RequestDrain() {
  RequestDrainWithDeadline(options_.limits.drain_deadline_ms);
}

void QueryServer::RequestDrainWithDeadline(int64_t deadline_ms) {
  if (!started_.load(kRelaxed)) return;
  if (drain_requested_.exchange(true)) return;
  // Run the whole drain kickoff on the acceptor thread: it serializes
  // against in-progress accepts, so every Adopt() post happens-before the
  // BeginDrain() post on the same worker (posted tasks are FIFO) and no
  // connection can slip past the drain.
  acceptor_loop_.Post([this, deadline_ms] {
    admission_state_.draining.store(true, kRelaxed);
    acceptor_->CloseAllShed(acceptor_loop_);
    acceptor_loop_.Remove(listen_fd_);
    close(listen_fd_);
    listen_fd_ = -1;
    int64_t force_deadline = EventLoop::NowMs() + deadline_ms;
    for (auto& worker : workers_) worker->BeginDrain(force_deadline);
    acceptor_loop_.RequestStop();
  });
}

void QueryServer::WaitUntilDrained() {
  if (joined_.exchange(true)) return;
  if (acceptor_thread_.joinable()) acceptor_thread_.join();
  for (auto& worker : workers_) worker->Join();
}

void QueryServer::Stop() {
  RequestDrainWithDeadline(0);
  WaitUntilDrained();
}

bool QueryServer::InstallSignalDrain(int signum) {
  if (signal_pipe_[1] < 0) return false;
  g_drain_pipe_fd.store(signal_pipe_[1], kRelaxed);
  struct sigaction action{};
  action.sa_handler = SignalDrainHandler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  return sigaction(signum, &action, nullptr) == 0;
}

ServerStats QueryServer::stats() const {
  ServerStats stats;
  stats.active_connections =
      admission_state_.active_connections.load(kRelaxed);
  stats.active_streams = admission_state_.active_streams.load(kRelaxed);
  stats.draining = admission_state_.draining.load(kRelaxed);
  SnapshotCounters(counters_, &stats);
  for (const auto& worker : workers_) {
    stats.worker_connections.push_back(
        static_cast<int64_t>(worker->approx_connections()));
  }
  stats.cache = cache_.stats();
  std::lock_guard<std::mutex> lock(batches_mu_);
  stats.batches_registered = static_cast<int64_t>(batches_.size());
  for (const auto& [key, handle] : batches_) {
    SessionPool::Stats pool = handle->pool_stats();
    stats.pool.created += pool.created;
    stats.pool.reused += pool.reused;
    stats.pool.destroyed += pool.destroyed;
    stats.pool.outstanding += pool.outstanding;
    stats.pool.peak_outstanding += pool.peak_outstanding;
    stats.pool.idle += pool.idle;
  }
  return stats;
}

std::string QueryServer::MetricsText() { return RenderMetrics(stats()); }

std::shared_ptr<BatchHandle> QueryServer::GetOrRegisterBatch(
    const RegisterRequest& request, std::string* error) {
  if (request.queries.empty()) {
    *error = "register carries no queries";
    return nullptr;
  }
  if (static_cast<int>(request.queries.size()) >
      options_.limits.max_queries_per_batch) {
    *error = "batch exceeds max_queries_per_batch";
    return nullptr;
  }
  if (const char* defect = ValidateAlphabetLetters(request.alphabet)) {
    *error = defect;
    return nullptr;
  }

  Alphabet alphabet = Alphabet::FromLetters(request.alphabet);
  MultiQueryOptions options = options_.multi;
  options.plan.format = request.format;
  options.plan.encoding = request.format == StreamFormat::kCompactTerm
                              ? StreamEncoding::kTerm
                              : StreamEncoding::kMarkup;

  // Canonical batch key: registrations differing only in whitespace or
  // duplicate alphabet letters share one handle (and one pool).
  std::string key;
  key.push_back(static_cast<char>(request.format));
  key += request.alphabet;
  for (const std::string& query : request.queries) {
    key.push_back('\x1f');
    key += PlanCache::CanonicalKey(QuerySyntax::kXPath, query, alphabet,
                                   options.plan);
  }
  {
    std::lock_guard<std::mutex> lock(batches_mu_);
    auto it = batches_.find(key);
    if (it != batches_.end()) return it->second;
  }

  // Compile outside the registry lock (stats() and other registers stay
  // responsive); a concurrent duplicate register costs a redundant handle
  // but not a redundant plan (the PlanCache single-flights those).
  std::shared_ptr<BatchHandle> handle =
      BatchHandle::Create(request, alphabet, options, &cache_, error);
  if (handle == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(batches_mu_);
  auto [it, inserted] = batches_.emplace(key, std::move(handle));
  return it->second;
}

}  // namespace sst

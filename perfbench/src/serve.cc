// serve: one client poll loop with kConns connections — one per
// registration R1-R4 — streams small documents to a QueryServer with
// kWorkers worker threads over loopback, closed loop (each connection
// sends its next document only after the previous verdict arrived).
//
// The server runs in its own process (this binary re-executed with
// --serve-child), so peak_rss_mib is the server's alone. Each connection
// owns kDocsPerConn seeded documents of 1-16 KiB, half dense and half
// pretty; exactly kFaultShare of them carry one fault from
// testing/fault_injection, whose reference verdict is the offline
// engine's first StreamError.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "server/protocol.h"
#include "server/server.h"
#include "testing/fault_injection.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {

namespace {

constexpr int kConns = 4;
constexpr int kWorkers = 2;
constexpr size_t kChunk = 4096;
constexpr int kDocsPerConn = 256;
constexpr double kFaultShare = 0.05;
constexpr int kSetupRounds = 41;
constexpr double kWarmupSeconds = 1.0;
constexpr double kStallSeconds = 10.0;
constexpr sst::StreamFormat kConnFormat[kConns] = {
    sst::StreamFormat::kCompactMarkup, sst::StreamFormat::kXmlLite,
    sst::StreamFormat::kCompactMarkup, sst::StreamFormat::kXmlLite};

// The server process: spawned from this binary, reports its port and how
// long QueryServer took from construction to listening on fd 3, and
// drains and exits when its stdin (the stop pipe) reaches EOF.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  bool Start(std::string* error) {
    char exe[PATH_MAX];
    const ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
    if (len <= 0) return Fail(error, "readlink /proc/self/exe");
    exe[len] = '\0';
    // The report pipe is made first, so its write end is never fd 3
    // itself (dup2 onto the same number would keep O_CLOEXEC).
    int report[2];
    int stop[2];
    if (pipe2(report, O_CLOEXEC) != 0) return Fail(error, "pipe");
    if (pipe2(stop, O_CLOEXEC) != 0) {
      close(report[0]);
      close(report[1]);
      return Fail(error, "pipe");
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, stop[0], 0);
    posix_spawn_file_actions_adddup2(&actions, report[1], 3);
    posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
    char arg[] = "--serve-child";
    char* argv[] = {exe, arg, nullptr};
    const int rc = posix_spawn(&pid_, exe, &actions, nullptr, argv, environ);
    posix_spawn_file_actions_destroy(&actions);
    close(stop[0]);
    close(report[1]);
    stop_fd_ = stop[1];
    if (rc != 0) {
      pid_ = -1;
      close(report[0]);
      close(stop_fd_);
      stop_fd_ = -1;
      errno = rc;
      return Fail(error, "posix_spawn");
    }
    std::string line;
    pollfd pfd{report[0], POLLIN, 0};
    while (line.find('\n') == std::string::npos &&
           poll(&pfd, 1, 10'000) > 0) {
      char buf[64];
      const ssize_t n = read(report[0], buf, sizeof buf);
      if (n <= 0) break;
      line.append(buf, static_cast<size_t>(n));
    }
    close(report[0]);
    double listen_ms = 0.0;
    unsigned port = 0;
    if (std::sscanf(line.c_str(), "%u %lf", &port, &listen_ms) != 2 ||
        port == 0 || port > 65535) {
      return Fail(error, "server did not report a port");
    }
    port_ = static_cast<uint16_t>(port);
    listen_ms_ = listen_ms;
    return true;
  }

  uint16_t port() const { return port_; }
  // Server construction to listening, as the server process measured it.
  double listen_ms() const { return listen_ms_; }

  // Closes the stop pipe and waits for the process (SIGKILL after 10 s).
  // Returns its peak resident memory in MiB, -1 if it did not exit 0.
  double Stop() {
    if (pid_ < 0) return -1.0;
    close(stop_fd_);
    stop_fd_ = -1;
    int status = 0;
    rusage usage{};
    const auto give_up = Clock::now() + std::chrono::seconds(10);
    pid_t done = 0;
    while ((done = wait4(pid_, &status, WNOHANG, &usage)) == 0 &&
           Clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (done == 0) {
      kill(pid_, SIGKILL);
      done = wait4(pid_, &status, 0, &usage);
    }
    pid_ = -1;
    if (done <= 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      return -1.0;
    }
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
  }

 private:
  static bool Fail(std::string* error, const char* what) {
    *error = std::string(what) + ": " + std::strerror(errno);
    return false;
  }

  pid_t pid_ = -1;
  int stop_fd_ = -1;
  uint16_t port_ = 0;
  double listen_ms_ = 0.0;
};

struct ServeDoc {
  std::string bytes;
  Verdict expected;
};

// One measured document as the client saw it.
struct OpRecord {
  int conn = 0;
  int doc = 0;
  bool traced = false;
  double end_s = 0.0;  // verdict time, seconds into the measured phase
  double latency_ms = 0.0;
  double send_ms = 0.0;
  double wait_ms = 0.0;
};

enum class ConnState {
  kConnecting,
  kAwaitRegistered,
  kIdle,
  kAwaitVerdict,
  kAwaitMetrics,
  kClosed,
};

struct Conn {
  int fd = -1;
  int reg = 0;
  ConnState state = ConnState::kClosed;
  sst::FrameDecoder decoder{1 << 22};
  std::string out;
  size_t out_pos = 0;
  std::string register_payload;
  Clock::time_point register_start;

  // Document order: a seeded permutation of this connection's documents,
  // reshuffled every cycle.
  std::vector<int> order;
  size_t next = 0;
  int64_t docs_sent = 0;

  // The document in flight.
  int doc = -1;
  bool measured = false;
  bool traced = false;
  bool flushed = false;
  Clock::time_point doc_start;
  Clock::time_point flushed_at;
  int32_t span_root = -1;
  int32_t span_send = -1;
};

class ServeClient {
 public:
  ServeClient(const std::vector<std::vector<ServeDoc>>& docs, sst::Rng& rng,
              Result* result, bool traced_run)
      : docs_(docs), rng_(rng), result_(result), traced_run_(traced_run) {
    conns_.resize(kConns);
    for (int k = 0; k < kConns; ++k) {
      Conn& conn = conns_[static_cast<size_t>(k)];
      conn.reg = k;
      sst::RegisterRequest request;
      request.alphabet = std::string(kLetters);
      request.format = kConnFormat[k];
      request.queries = RegQueries(k);
      conn.register_payload = sst::EncodeRegister(request);
      conn.order.resize(docs_[static_cast<size_t>(k)].size());
      std::iota(conn.order.begin(), conn.order.end(), 0);
      Reshuffle(conn);
    }
  }

  ~ServeClient() { CloseAll(); }

  // Connects and registers one connection at a time; true once every
  // registration is acknowledged. One at a time, because the server picks
  // the least-loaded worker from counts its workers update only after
  // adopting a socket: a burst of connects can all land on one worker,
  // and which run gets which placement would be chance.
  bool ConnectAndRegister(uint16_t port) {
    for (Conn& conn : conns_) {
      conn.decoder = sst::FrameDecoder(1 << 22);
      conn.out.clear();
      conn.out_pos = 0;
      conn.fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
      if (conn.fd < 0) return false;
      int one = 1;
      setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      conn.register_start = Clock::now();
      if (connect(conn.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
              0 &&
          errno != EINPROGRESS) {
        return false;
      }
      conn.state = ConnState::kConnecting;
      if (!PumpUntil([&] { return conn.state == ConnState::kIdle; })) {
        return false;
      }
    }
    return true;
  }

  // Closed-loop traffic for `seconds`; documents started before the
  // deadline run to their verdict.
  bool RunDocs(double seconds, bool measured) {
    measured_ = measured;
    doc_phase_ = true;
    deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(seconds));
    phase_start_ = Clock::now();
    last_verdict_ = phase_start_;
    for (Conn& conn : conns_) {
      if (conn.state == ConnState::kIdle) SendNextDocument(conn);
    }
    bool ok = PumpUntil([&] {
      return Clock::now() >= deadline_ && NoneIn(ConnState::kAwaitVerdict);
    });
    doc_phase_ = false;
    phase_end_ = last_verdict_;
    return ok;
  }

  // The server's counters, via a kMetrics frame on the first connection.
  bool FetchMetrics(std::map<std::string, int64_t>* out) {
    Conn& conn = conns_[0];
    if (conn.state != ConnState::kIdle) return false;
    metrics_ = out;
    sst::AppendFrame(sst::FrameType::kMetrics, "", &conn.out);
    conn.state = ConnState::kAwaitMetrics;
    Flush(conn);
    return PumpUntil([&] { return conn.state != ConnState::kAwaitMetrics; }) &&
           conn.state == ConnState::kIdle;
  }

  void CloseAll() {
    for (Conn& conn : conns_) {
      if (conn.fd < 0) continue;
      if (conn.state == ConnState::kIdle) {
        std::string bye;
        sst::AppendFrame(sst::FrameType::kGoodbye, "", &bye);
        (void)!send(conn.fd, bye.data(), bye.size(), MSG_NOSIGNAL);
      }
      close(conn.fd);
      conn.fd = -1;
      conn.state = ConnState::kClosed;
    }
  }

  const std::vector<OpRecord>& ops() const { return ops_; }
  const std::vector<double>& register_ms() const { return register_ms_; }
  double phase_seconds() const {
    return MsBetween(phase_start_, phase_end_) / 1000.0;
  }

 private:
  template <typename Done>
  bool PumpUntil(Done done) {
    std::vector<pollfd> pfds;
    auto last_progress = Clock::now();
    int64_t progress_mark = progress_;
    while (!done()) {
      pfds.clear();
      for (const Conn& conn : conns_) {
        if (conn.fd < 0) continue;
        short events = POLLIN;
        if (conn.state == ConnState::kConnecting ||
            conn.out_pos < conn.out.size()) {
          events |= POLLOUT;
        }
        pfds.push_back({conn.fd, events, 0});
      }
      if (pfds.empty()) return false;
      const int ready = poll(pfds.data(), pfds.size(), 50);
      if (ready < 0 && errno != EINTR) return false;
      size_t p = 0;
      for (Conn& conn : conns_) {
        if (conn.fd < 0) continue;
        const short revents = pfds[p++].revents;
        if (revents == 0) continue;
        if (revents & POLLOUT) {
          if (conn.state == ConnState::kConnecting) OnConnected(conn);
          if (conn.fd >= 0) Flush(conn);
        }
        if (conn.fd >= 0 && (revents & (POLLIN | POLLHUP | POLLERR))) {
          OnReadable(conn);
        }
      }
      if (progress_ != progress_mark) {
        progress_mark = progress_;
        last_progress = Clock::now();
      } else if (MsBetween(last_progress, Clock::now()) >
                 kStallSeconds * 1000.0) {
        for (Conn& conn : conns_) {
          if (conn.state != ConnState::kIdle &&
              conn.state != ConnState::kClosed) {
            ++result_->errors.attempted;
            ++result_->errors.timed_out;
          }
        }
        return false;
      }
      // Idle connections start their next document while the phase runs.
      for (Conn& conn : conns_) {
        if (conn.state == ConnState::kIdle && InDocPhase()) {
          SendNextDocument(conn);
        }
      }
    }
    return true;
  }

  bool InDocPhase() const { return doc_phase_ && Clock::now() < deadline_; }

  bool NoneIn(ConnState state) const {
    return std::none_of(conns_.begin(), conns_.end(),
                        [&](const Conn& c) { return c.state == state; });
  }

  void Reshuffle(Conn& conn) {
    Shuffle(conn.order, rng_);
    conn.next = 0;
  }

  void OnConnected(Conn& conn) {
    int err = 0;
    socklen_t len = sizeof err;
    if (getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
        err != 0) {
      Drop(conn);
      return;
    }
    sst::AppendFrame(sst::FrameType::kRegister, conn.register_payload,
                     &conn.out);
    conn.state = ConnState::kAwaitRegistered;
  }

  void SendNextDocument(Conn& conn) {
    if (conn.next == conn.order.size()) Reshuffle(conn);
    conn.doc = conn.order[conn.next++];
    const std::string& bytes =
        docs_[static_cast<size_t>(conn.reg)][static_cast<size_t>(conn.doc)]
            .bytes;
    conn.measured = measured_;
    conn.traced = traced_run_ && measured_ && conn.docs_sent % 2 == 1;
    ++conn.docs_sent;
    conn.flushed = false;
    SpanRecorder& spans = result_->spans;
    conn.doc_start = Clock::now();
    conn.span_root = conn.traced ? spans.Begin("doc", OpId(conn)) : -1;
    conn.span_send =
        conn.traced ? spans.Begin("send", OpId(conn), conn.span_root) : -1;
    for (size_t at = 0; at < bytes.size(); at += kChunk) {
      sst::AppendFrame(sst::FrameType::kData,
                       std::string_view(bytes).substr(at, kChunk), &conn.out);
    }
    sst::AppendFrame(sst::FrameType::kFinish, "", &conn.out);
    conn.state = ConnState::kAwaitVerdict;
    Flush(conn);
  }

  int64_t OpId(const Conn& conn) const {
    return conn.docs_sent * kConns + conn.reg;
  }

  void Flush(Conn& conn) {
    while (conn.out_pos < conn.out.size()) {
      const ssize_t n = send(conn.fd, conn.out.data() + conn.out_pos,
                             conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_pos += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      Drop(conn);
      return;
    }
    conn.out.clear();
    conn.out_pos = 0;
    if (conn.state == ConnState::kAwaitVerdict && !conn.flushed) {
      conn.flushed = true;
      conn.flushed_at = Clock::now();
      result_->spans.End(conn.span_send);
    }
  }

  void OnReadable(Conn& conn) {
    bool eof = false;
    char buf[64 << 10];
    while (true) {
      const ssize_t n = read(conn.fd, buf, sizeof buf);
      if (n > 0) {
        conn.decoder.Append(std::string_view(buf, static_cast<size_t>(n)));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      eof = true;
      break;
    }
    sst::Frame frame;
    sst::FrameDecoder::Status status;
    while ((status = conn.decoder.Next(&frame)) ==
           sst::FrameDecoder::Status::kFrame) {
      if (!OnFrame(conn, frame)) {
        Drop(conn);
        return;
      }
    }
    if (status != sst::FrameDecoder::Status::kNeedMore || eof) Drop(conn);
  }

  bool OnFrame(Conn& conn, const sst::Frame& frame) {
    switch (frame.type) {
      case sst::FrameType::kRegistered:
        if (conn.state != ConnState::kAwaitRegistered) return false;
        register_ms_.push_back(MsBetween(conn.register_start, Clock::now()));
        if (traced_run_) {
          result_->spans.Add("register",
                             result_->spans.ToNs(conn.register_start),
                             result_->spans.NowNs(), -1, conn.reg);
        }
        conn.state = ConnState::kIdle;
        ++progress_;
        return true;
      case sst::FrameType::kCounts:
      case sst::FrameType::kError:
        if (conn.state != ConnState::kAwaitVerdict) return false;
        OnVerdict(conn, frame);
        return true;
      case sst::FrameType::kShed:
        if (conn.state != ConnState::kAwaitVerdict) return false;
        ++result_->errors.attempted;
        ++result_->errors.shed;
        conn.state = ConnState::kIdle;
        ++progress_;
        return true;
      case sst::FrameType::kMetricsText:
        if (conn.state != ConnState::kAwaitMetrics) return false;
        ParseMetrics(frame.payload);
        conn.state = ConnState::kIdle;
        return true;
      default:
        return false;
    }
  }

  void OnVerdict(Conn& conn, const sst::Frame& frame) {
    const auto now = Clock::now();
    Verdict verdict;
    if (frame.type == sst::FrameType::kCounts) {
      verdict.ok = sst::ParseCounts(frame.payload, &verdict.counts);
      if (!verdict.ok) verdict.error_code = "unparsable_counts";
    } else {
      sst::ErrorInfo info;
      sst::ParseErrorInfo(frame.payload, &info);
      verdict.error_code = info.code;
      verdict.error_offset = info.offset;
    }
    const ServeDoc& doc =
        docs_[static_cast<size_t>(conn.reg)][static_cast<size_t>(conn.doc)];
    ++result_->errors.attempted;
    if (verdict != doc.expected) ++result_->errors.mismatched;
    if (conn.traced) {
      SpanRecorder& spans = result_->spans;
      spans.Add("verdict_wait", spans.ToNs(conn.flushed_at), spans.ToNs(now),
                conn.span_root, OpId(conn));
      spans.End(conn.span_root);
    }
    if (conn.measured) {
      OpRecord op;
      op.conn = conn.reg;
      op.doc = conn.doc;
      op.traced = conn.traced;
      op.end_s = MsBetween(phase_start_, now) / 1000.0;
      op.latency_ms = MsBetween(conn.doc_start, now);
      op.send_ms = MsBetween(conn.doc_start, conn.flushed_at);
      op.wait_ms = MsBetween(conn.flushed_at, now);
      ops_.push_back(op);
      last_verdict_ = now;
    }
    conn.state = ConnState::kIdle;
    ++progress_;
  }

  void ParseMetrics(const std::string& text) {
    std::istringstream in(text);
    std::string name;
    int64_t value = 0;
    while (in >> name >> value) (*metrics_)[name] = value;
  }

  // An unexpected close: whatever the connection was doing is lost.
  void Drop(Conn& conn) {
    ++result_->errors.attempted;
    ++result_->errors.dropped;
    if (conn.fd >= 0) close(conn.fd);
    conn.fd = -1;
    conn.state = ConnState::kClosed;
  }

  const std::vector<std::vector<ServeDoc>>& docs_;
  sst::Rng& rng_;
  Result* result_;
  bool traced_run_;
  std::vector<Conn> conns_;

  bool doc_phase_ = false;
  bool measured_ = false;
  Clock::time_point deadline_;
  Clock::time_point phase_start_;
  Clock::time_point phase_end_;
  Clock::time_point last_verdict_;
  int64_t progress_ = 0;
  std::vector<OpRecord> ops_;
  std::vector<double> register_ms_;
  std::map<std::string, int64_t>* metrics_ = nullptr;
};

}  // namespace

int ServeChildMain() {
  std::signal(SIGPIPE, SIG_IGN);
  const auto start = Clock::now();
  sst::ServerOptions options;
  options.num_workers = kWorkers;
  sst::QueryServer server(options);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "serve child: %s\n", error.c_str());
    return 1;
  }
  const std::string line = std::to_string(server.port()) + " " +
                           std::to_string(MsSince(start)) + "\n";
  if (write(3, line.data(), line.size()) !=
      static_cast<ssize_t>(line.size())) {
    return 1;
  }
  close(3);
  char byte = 0;
  while (true) {
    const ssize_t n = read(0, &byte, 1);
    if (n > 0 || (n < 0 && errno == EINTR)) continue;
    break;
  }
  server.Stop();
  return 0;
}

void RunServe(const Options& options, Result* result) {
  std::signal(SIGPIPE, SIG_IGN);
  const sst::Alphabet alphabet = sst::Alphabet::FromLetters(kLetters);
  const bool traced_run = result->spans.enabled();

  // --- Inputs and their reference verdicts (untimed) -----------------------
  sst::Rng rng(options.seed);
  sst::FaultInjector injector(options.seed * 7919 + 1);
  SpanRecorder no_spans(false);
  std::vector<CompiledReg> regs;
  std::vector<std::vector<ServeDoc>> docs(kConns);
  for (int k = 0; k < kConns; ++k) {
    regs.push_back(CompileReg(k, kConnFormat[k], alphabet, no_spans));
    std::vector<int> faulted(kDocsPerConn);
    std::iota(faulted.begin(), faulted.end(), 0);
    Shuffle(faulted, rng);
    faulted.resize(static_cast<size_t>(
        std::lround(kFaultShare * kDocsPerConn)));
    for (int i = 0; i < kDocsPerConn; ++i) {
      ServeDoc doc;
      doc.bytes = GenerateDocument(kConnFormat[k], /*pretty=*/i % 2 == 1,
                                   rng.NextInRange(1 << 10, 16 << 10), rng);
      if (std::find(faulted.begin(), faulted.end(), i) != faulted.end()) {
        injector.ApplyRandom(&doc.bytes);
      }
      doc.expected = OfflineVerdict(regs.back(), doc.bytes);
      docs[static_cast<size_t>(k)].push_back(std::move(doc));
    }
  }

  // --- Set-up: server start to every registration acknowledged. The
  // server process times its own start (construction to listening), which
  // leaves process creation out; the client times the registrations.
  std::vector<double> setup_s;
  ServerProcess server;
  ServeClient client(docs, rng, result, traced_run);
  bool ok = true;
  std::string error;
  for (int round = 0; round < kSetupRounds && ok; ++round) {
    if (round > 0) {
      client.CloseAll();
      server.Stop();
    }
    ok = server.Start(&error);
    const auto start = Clock::now();
    ok = ok && client.ConnectAndRegister(server.port());
    setup_s.push_back((server.listen_ms() + MsSince(start)) / 1000.0);
  }
  if (!ok) {
    std::fprintf(stderr, "serve: set-up failed %s\n", error.c_str());
    ++result->errors.attempted;
    ++result->errors.dropped;
    return;
  }
  SetSetupMetric(setup_s, result);

  // --- Warm-up, then the measured phase between two counter snapshots ---
  std::map<std::string, int64_t> before, after;
  ok = client.RunDocs(kWarmupSeconds, /*measured=*/false);
  ok = ok && client.FetchMetrics(&before);
  ok = ok && client.RunDocs(options.seconds, /*measured=*/true);
  ok = ok && client.FetchMetrics(&after);
  client.CloseAll();
  const double server_rss = server.Stop();
  if (!ok || server_rss < 0) {
    std::fprintf(stderr, "serve: traffic phase failed\n");
    ++result->errors.attempted;
    ++result->errors.dropped;
  }

  const std::vector<OpRecord>& ops = client.ops();
  std::vector<OpSample> samples;
  for (const OpRecord& op : ops) {
    const double bytes = static_cast<double>(
        docs[static_cast<size_t>(op.conn)][static_cast<size_t>(op.doc)]
            .bytes.size());
    samples.push_back({op.end_s, bytes, op.latency_ms});
  }
  SetOperationMetrics(samples, EqualBlocks(client.phase_seconds()), result);
  result->end_to_end["peak_rss_mib"] = {server_rss, "MiB", 1};
  if (!traced_run) return;

  // --- Per-layer metrics (traced run) -------------------------------------
  auto& layers = result->layers;
  layers["server.register_ms"].value = Median(client.register_ms());
  std::vector<double> send_ms, wait_ms, mode_latency[2];
  for (const OpRecord& op : ops) {
    send_ms.push_back(op.send_ms);
    wait_ms.push_back(op.wait_ms);
    mode_latency[op.traced].push_back(op.latency_ms);
  }
  layers["server.send_ms_p50"].value = PercentileOf(send_ms, 50.0).value;
  layers["server.verdict_wait_ms_p50"].value =
      PercentileOf(wait_ms, 50.0).value;
  layers["server.verdict_wait_ms_p99"].value = TailQuantile(wait_ms).value;
  const std::pair<const char*, std::vector<const char*>> kCounters[] = {
      {"server.bytes_in", {"server_bytes_in"}},
      {"server.frames_in", {"server_frames_in"}},
      {"server.frames_out", {"server_frames_out"}},
      {"server.backpressure_pauses", {"server_backpressure_pauses"}},
      {"server.sheds", {"server_sheds_connection", "server_sheds_stream"}},
      {"server.streams_failed", {"server_streams_failed"}},
  };
  for (const auto& [metric, names] : kCounters) {
    double delta = 0.0;
    for (const char* name : names) {
      delta += static_cast<double>(after[name] - before[name]);
    }
    layers[metric].value = delta;
  }
  if (!mode_latency[0].empty() && !mode_latency[1].empty()) {
    layers["trace.overhead_frac"].value = TraceOverheadFrac(
        Median(mode_latency[0]), Median(mode_latency[1]));
  }

  // In-process replay of the same bytes through the same registrations:
  // the ladder, and the Session time the server's per-document overhead
  // is measured against.
  std::vector<LadderDoc> ladder;
  std::vector<size_t> first(kConns, 0);
  for (int k = 0; k < kConns; ++k) {
    first[static_cast<size_t>(k)] = ladder.size();
    for (ServeDoc& doc : docs[static_cast<size_t>(k)]) {
      ladder.push_back({doc.bytes, &regs[static_cast<size_t>(k)],
                        &doc.expected});
    }
  }
  const std::vector<double> session_ms =
      RunLadder(ladder, kChunk, /*passes=*/3, result);
  std::vector<double> overhead;
  double latency_sum = 0.0;
  double session_sum = 0.0;
  for (const OpRecord& op : ops) {
    const double session =
        session_ms[first[static_cast<size_t>(op.conn)] +
                   static_cast<size_t>(op.doc)];
    overhead.push_back(op.latency_ms - session);
    latency_sum += op.latency_ms;
    session_sum += session;
  }
  layers["server.overhead_ms_per_doc"].value = Median(overhead);
  layers["server.serve_over_session"].value =
      session_sum > 0 ? latency_sum / session_sum : 0.0;
}

}  // namespace perfbench

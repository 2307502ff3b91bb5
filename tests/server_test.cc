// Socket-level chaos suite for the resilient serving layer (src/server):
// every test drives a real QueryServer over loopback TCP and synchronizes
// on protocol events (frames, EOF) or observable stats — never on bare
// sleeps. The malformed-document tests reuse the deterministic
// fault-injection harness so a wire verdict can be compared byte-for-byte
// against the offline engine's StreamError for the same mutated bytes.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "base/rng.h"
#include "engine/multi_query.h"
#include "server/admission.h"
#include "server/protocol.h"
#include "server/server.h"
#include "testing/fault_injection.h"
#include "trees/encoding.h"
#include "trees/tree.h"

namespace sst {
namespace {

// --- satellite units: StreamLimits validation + merging ---------------------

TEST(StreamLimits, DefaultIsValidAndUnlimited) {
  StreamLimits limits;
  EXPECT_TRUE(limits.unlimited());
  EXPECT_EQ(limits.Validate(), nullptr);
}

TEST(StreamLimits, ValidateRejectsUnsatisfiableGuards) {
  StreamLimits zero_depth;
  zero_depth.max_depth = 0;
  EXPECT_NE(zero_depth.Validate(), nullptr);

  StreamLimits negative_bytes;
  negative_bytes.max_document_bytes = -1;
  EXPECT_NE(negative_bytes.Validate(), nullptr);

  StreamLimits one_event;  // root open + close need two
  one_event.max_events = 1;
  EXPECT_NE(one_event.Validate(), nullptr);

  StreamLimits depth_above_events;
  depth_above_events.max_depth = 100;
  depth_above_events.max_events = 10;
  EXPECT_NE(depth_above_events.Validate(), nullptr);
}

TEST(StreamLimits, MergedIsElementwiseMinimum) {
  StreamLimits a;
  a.max_depth = 10;
  a.max_document_bytes = 1 << 20;
  StreamLimits b;
  b.max_depth = 64;
  b.max_events = 5000;

  StreamLimits merged = StreamLimits::Merged(a, b);
  EXPECT_EQ(merged.max_depth, 10);
  EXPECT_EQ(merged.max_document_bytes, 1 << 20);
  EXPECT_EQ(merged.max_events, 5000);
  EXPECT_EQ(merged.max_recovered_errors, StreamLimits::kUnlimited);
  // Commutes.
  EXPECT_EQ(merged, StreamLimits::Merged(b, a));
}

// --- protocol roundtrips -----------------------------------------------------

TEST(Protocol, RegisterRoundtrip) {
  RegisterRequest request;
  request.alphabet = "abcdef";
  request.format = StreamFormat::kCompactMarkup;
  request.limits.max_depth = 40;
  request.queries = {"/a//b", "//c", "/a/b/c"};

  RegisterRequest decoded;
  std::string error;
  ASSERT_TRUE(ParseRegister(EncodeRegister(request), &decoded, &error))
      << error;
  EXPECT_EQ(decoded.alphabet, request.alphabet);
  EXPECT_EQ(decoded.format, request.format);
  EXPECT_EQ(decoded.limits, request.limits);
  EXPECT_EQ(decoded.queries, request.queries);
}

TEST(Protocol, CountsAndErrorRoundtrip) {
  std::vector<int64_t> counts{0, 17, 123456789, 3};
  std::vector<int64_t> decoded;
  ASSERT_TRUE(ParseCounts(EncodeCounts(counts), &decoded));
  EXPECT_EQ(decoded, counts);

  ErrorInfo info;
  info.code = "kLabelMismatch";
  info.offset = 42;
  info.depth = 3;
  info.message = "expected 'b', got 'c'";
  ErrorInfo out;
  ASSERT_TRUE(ParseErrorInfo(EncodeErrorInfo(info), &out));
  EXPECT_EQ(out.code, info.code);
  EXPECT_EQ(out.offset, info.offset);
  EXPECT_EQ(out.depth, info.depth);
  EXPECT_EQ(out.message, info.message);
}

TEST(Protocol, ShedReasonRoundtrip) {
  for (ShedReason reason :
       {ShedReason::kMaxConnections, ShedReason::kMaxStreams,
        ShedReason::kPoolSaturated, ShedReason::kDraining,
        ShedReason::kDrainDeadline, ShedReason::kIdleTimeout,
        ShedReason::kWriteTimeout}) {
    ShedReason decoded = ShedReason::kMaxConnections;
    ASSERT_TRUE(ParseShedReason(EncodeShed(reason), &decoded))
        << ShedReasonName(reason);
    EXPECT_EQ(decoded, reason);
  }
}

TEST(Protocol, DecoderRejectsOversizedFromHeaderAlone) {
  FrameDecoder decoder(/*max_payload=*/1024);
  // Declared 1 MiB payload; only the 5 header bytes ever arrive.
  std::string header;
  header.push_back(static_cast<char>(FrameType::kData));
  uint32_t declared = 1 << 20;
  for (int i = 0; i < 4; ++i) {
    header.push_back(static_cast<char>((declared >> (8 * i)) & 0xff));
  }
  decoder.Append(header);
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Status::kTooLarge);
}

TEST(Protocol, DecoderRejectsUnknownType) {
  FrameDecoder decoder(1024);
  decoder.Append(std::string("Z\0\0\0\0", 5));
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Status::kBadType);
}

// --- test harness ------------------------------------------------------------

constexpr char kLetters[] = "abcdef";

std::vector<std::string> TestQueries() {
  return {"/a//b", "//c", "/a//b", "/d/e"};  // one duplicate: 3 slots
}

std::string MakeDocument(uint64_t seed, int nodes) {
  Alphabet alphabet = Alphabet::FromLetters(kLetters);
  Rng rng(seed);
  Tree tree;
  tree.AddRoot(static_cast<Symbol>(rng.NextBelow(6)));
  for (int i = 1; i < nodes; ++i) {
    int parent =
        rng.NextBool(0.6) ? i - 1 : static_cast<int>(rng.NextBelow(i));
    tree.AddChild(parent, static_cast<Symbol>(rng.NextBelow(6)));
  }
  return ToCompactMarkup(alphabet, Encode(tree));
}

// The offline ground truth: the same engine path the server runs.
struct OfflineVerdict {
  bool ok = false;
  std::vector<int64_t> counts;
  StreamError error;
};

OfflineVerdict OfflineRun(const std::vector<std::string>& queries,
                          std::string_view document) {
  std::vector<BatchQuery> batch;
  for (const std::string& text : queries) {
    batch.push_back(BatchQuery{QuerySyntax::kXPath, text});
  }
  auto plan = MultiQueryPlan::Compile(
      batch, Alphabet::FromLetters(kLetters), MultiQueryOptions{});
  BatchSession session(plan);
  OfflineVerdict verdict;
  verdict.ok = session.Feed(document) && session.Finish();
  if (verdict.ok) {
    verdict.counts = session.query_matches();
  } else {
    verdict.error = session.stream_error();
  }
  return verdict;
}

std::string DefaultRegisterPayload() {
  RegisterRequest request;
  request.alphabet = kLetters;
  request.queries = TestQueries();
  return EncodeRegister(request);
}

// Blocking loopback client; every read carries a poll deadline so a hung
// server fails the test instead of wedging the suite.
class TestClient {
 public:
  TestClient() = default;
  ~TestClient() { Close(); }

  bool Connect(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
  }

  void Send(FrameType type, std::string_view payload) {
    std::string out;
    AppendFrame(type, payload, &out);
    SendRaw(out);
  }

  void SendRaw(std::string_view bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      ssize_t n = send(fd_, bytes.data() + off, bytes.size() - off,
                       MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      return;  // peer closed; reads will surface the verdict
    }
  }

  // Next frame within `timeout_ms`; false on timeout, EOF, or error.
  bool ReadFrame(Frame* frame, int timeout_ms = 5000) {
    auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(timeout_ms);
    while (true) {
      switch (decoder_.Next(frame)) {
        case FrameDecoder::Status::kFrame:
          return true;
        case FrameDecoder::Status::kNeedMore:
          break;
        default:
          return false;  // server never sends malformed frames
      }
      if (eof_) return false;
      if (!FillBuffer(deadline)) return false;
    }
  }

  // True if the peer half-closes (EOF) within `timeout_ms` with no
  // further frames.
  bool ReadEof(int timeout_ms = 5000) {
    auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(timeout_ms);
    while (!eof_) {
      if (!FillBuffer(deadline)) return false;
    }
    Frame frame;
    return decoder_.Next(&frame) == FrameDecoder::Status::kNeedMore;
  }

  void CloseWrite() {
    if (fd_ >= 0) shutdown(fd_, SHUT_WR);
  }

  void Close() {
    if (fd_ >= 0) close(fd_);
    fd_ = -1;
  }

  int fd() const { return fd_; }

 private:
  // One poll+read; false on timeout or socket error, true on progress
  // (bytes appended or EOF recorded).
  bool FillBuffer(std::chrono::steady_clock::time_point deadline) {
    auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (remaining.count() <= 0) return false;
    pollfd pfd{fd_, POLLIN, 0};
    int ready = poll(&pfd, 1, static_cast<int>(remaining.count()));
    if (ready <= 0) return false;
    char buf[16 * 1024];
    ssize_t n = read(fd_, buf, sizeof buf);
    if (n > 0) {
      decoder_.Append(std::string_view(buf, static_cast<size_t>(n)));
      return true;
    }
    if (n < 0 && (errno == EINTR || errno == EAGAIN)) return true;
    eof_ = true;  // EOF, or error (ECONNRESET et al.): reads are over
    return true;
  }

  int fd_ = -1;
  bool eof_ = false;
  FrameDecoder decoder_{1 << 20};
};

// Registers the default batch and consumes the kRegistered ack.
bool RegisterDefault(TestClient* client, RegisteredInfo* info = nullptr) {
  client->Send(FrameType::kRegister, DefaultRegisterPayload());
  Frame frame;
  if (!client->ReadFrame(&frame)) return false;
  if (frame.type != FrameType::kRegistered) return false;
  if (info != nullptr && !ParseRegistered(frame.payload, info)) return false;
  return true;
}

// Streams one document in fixed-size chunks and finishes it.
void SendDocument(TestClient* client, std::string_view document,
                  size_t chunk = 1024) {
  for (size_t off = 0; off < document.size(); off += chunk) {
    client->Send(FrameType::kData,
                 document.substr(off, std::min(chunk, document.size() - off)));
  }
  client->Send(FrameType::kFinish, "");
}

// Polls an observable condition with a deadline — synchronization on
// state the server exports, not on a sleep being "long enough".
template <typename Predicate>
bool WaitFor(Predicate&& predicate, int timeout_ms = 5000) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  while (!predicate()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

int64_t RssKb() {
  std::FILE* file = std::fopen("/proc/self/status", "r");
  if (file == nullptr) return -1;
  char line[256];
  int64_t kb = -1;
  while (std::fgets(line, sizeof line, file) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kb = std::atoll(line + 6);
      break;
    }
  }
  std::fclose(file);
  return kb;
}

ServerOptions SmallServerOptions() {
  ServerOptions options;
  options.num_workers = 2;
  options.limits.max_connections = 64;
  options.limits.max_streams = 32;
  return options;
}

// --- end-to-end basics -------------------------------------------------------

TEST(Server, AnswersCleanDocumentsLikeTheOfflineEngine) {
  QueryServer server(SmallServerOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  RegisteredInfo info;
  ASSERT_TRUE(RegisterDefault(&client, &info));
  EXPECT_EQ(info.num_queries, 4);
  EXPECT_EQ(info.num_slots, 3);  // duplicate query deduplicated

  for (uint64_t seed : {11u, 22u, 33u}) {
    std::string document = MakeDocument(seed, 3000);
    OfflineVerdict offline = OfflineRun(TestQueries(), document);
    ASSERT_TRUE(offline.ok);

    SendDocument(&client, document);
    Frame frame;
    ASSERT_TRUE(client.ReadFrame(&frame));
    ASSERT_EQ(frame.type, FrameType::kCounts);
    std::vector<int64_t> counts;
    ASSERT_TRUE(ParseCounts(frame.payload, &counts));
    EXPECT_EQ(counts, offline.counts);
  }

  client.Send(FrameType::kGoodbye, "");
  EXPECT_TRUE(client.ReadEof());
  server.Stop();
  EXPECT_EQ(server.stats().streams_completed, 3);
}

// --- streamed match events over the wire -------------------------------------

// Drains kMatches frames into `records` until a non-kMatches frame (the
// document's verdict) arrives.
bool ReadMatchesUntilVerdict(TestClient* client,
                             std::vector<MatchWireRecord>* records,
                             Frame* verdict) {
  Frame frame;
  while (client->ReadFrame(&frame)) {
    if (frame.type == FrameType::kMatches) {
      std::vector<MatchWireRecord> decoded;
      if (!ParseMatches(frame.payload, &decoded)) return false;
      records->insert(records->end(), decoded.begin(), decoded.end());
      continue;
    }
    *verdict = std::move(frame);
    return true;
  }
  return false;
}

// The offline oracle's wire records: the same engine path with the same
// sink type, fed in one chunk (the product tier's event log is
// chunking-invariant, so the wire must replay it byte for byte).
std::vector<MatchWireRecord> OfflineMatchRecords(
    const std::vector<std::string>& queries, std::string_view document,
    bool* ok) {
  std::vector<BatchQuery> batch;
  for (const std::string& text : queries) {
    batch.push_back(BatchQuery{QuerySyntax::kXPath, text});
  }
  auto plan = MultiQueryPlan::Compile(
      batch, Alphabet::FromLetters(kLetters), MultiQueryOptions{});
  BatchSession session(plan);
  MatchWireBuffer sink;
  session.set_match_sink(&sink);
  *ok = session.Feed(document) && session.Finish();
  return sink.Take();
}

TEST(Server, MatchFramesReplayOfflineSinkExactly) {
  QueryServer server(SmallServerOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  RegisterRequest request;
  request.alphabet = kLetters;
  request.queries = TestQueries();
  request.matches = true;
  client.Send(FrameType::kRegister, EncodeRegister(request));
  Frame frame;
  ASSERT_TRUE(client.ReadFrame(&frame));
  ASSERT_EQ(frame.type, FrameType::kRegistered);

  int64_t total_opens = 0;
  for (uint64_t seed : {11u, 22u}) {
    std::string document = MakeDocument(seed, 2000);
    OfflineVerdict offline = OfflineRun(TestQueries(), document);
    ASSERT_TRUE(offline.ok);
    bool offline_ok = false;
    std::vector<MatchWireRecord> expected =
        OfflineMatchRecords(TestQueries(), document, &offline_ok);
    ASSERT_TRUE(offline_ok);

    SendDocument(&client, document, /*chunk=*/777);
    std::vector<MatchWireRecord> records;
    Frame verdict;
    ASSERT_TRUE(ReadMatchesUntilVerdict(&client, &records, &verdict));
    ASSERT_EQ(verdict.type, FrameType::kCounts);
    std::vector<int64_t> counts;
    ASSERT_TRUE(ParseCounts(verdict.payload, &counts));
    EXPECT_EQ(counts, offline.counts);
    EXPECT_EQ(records, expected);

    // Counting parity straight off the wire: OnMatch records per query
    // reproduce the kCounts verdict.
    std::vector<int64_t> wire_counts(counts.size(), 0);
    for (const MatchWireRecord& record : records) {
      if (!record.close) {
        ASSERT_GE(record.event.query_id, 0);
        ASSERT_LT(static_cast<size_t>(record.event.query_id),
                  wire_counts.size());
        ++wire_counts[static_cast<size_t>(record.event.query_id)];
        ++total_opens;
      }
    }
    EXPECT_EQ(wire_counts, counts);
  }

  // A truncated document: the spans still pending at the error arrive
  // truncated (end -1) before the kError verdict — reported, not dropped.
  std::string document = MakeDocument(33, 1500);
  document.resize(document.size() / 2);
  bool offline_ok = true;
  std::vector<MatchWireRecord> expected =
      OfflineMatchRecords(TestQueries(), document, &offline_ok);
  ASSERT_FALSE(offline_ok);
  SendDocument(&client, document, /*chunk=*/777);
  std::vector<MatchWireRecord> records;
  Frame verdict;
  ASSERT_TRUE(ReadMatchesUntilVerdict(&client, &records, &verdict));
  ASSERT_EQ(verdict.type, FrameType::kError);
  EXPECT_EQ(records, expected);
  bool saw_truncated = false;
  for (const MatchWireRecord& record : records) {
    saw_truncated |= record.close && record.event.end_offset == -1;
  }
  EXPECT_TRUE(saw_truncated);

  EXPECT_GE(server.stats().matches_emitted, total_opens);
  EXPECT_GE(server.stats().match_buffer_peak, 1);

  client.Send(FrameType::kGoodbye, "");
  EXPECT_TRUE(client.ReadEof());
  server.Stop();
}

// Counts-only registrations must never receive kMatches frames.
TEST(Server, CountsOnlyClientsSeeNoMatchFrames) {
  QueryServer server(SmallServerOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(RegisterDefault(&client));
  SendDocument(&client, MakeDocument(7, 1000));
  Frame frame;
  ASSERT_TRUE(client.ReadFrame(&frame));
  EXPECT_EQ(frame.type, FrameType::kCounts);
  EXPECT_EQ(server.stats().matches_emitted, 0);
  server.Stop();
}

TEST(Server, MetricsFrameAndStatsAgree) {
  QueryServer server(SmallServerOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(RegisterDefault(&client));
  SendDocument(&client, MakeDocument(1, 500));
  Frame frame;
  ASSERT_TRUE(client.ReadFrame(&frame));
  ASSERT_EQ(frame.type, FrameType::kCounts);

  client.Send(FrameType::kMetrics, "");
  ASSERT_TRUE(client.ReadFrame(&frame));
  ASSERT_EQ(frame.type, FrameType::kMetricsText);
  EXPECT_NE(frame.payload.find("server_streams_completed 1"),
            std::string::npos)
      << frame.payload;
  EXPECT_NE(frame.payload.find("server_batches_registered 1"),
            std::string::npos);
  server.Stop();
}

// Least-loaded adoption counts a connection against its worker at
// hand-off: connects accepted back to back, before any worker has run its
// adoption task, still alternate between the workers.
TEST(Server, BackToBackConnectsSpreadAcrossWorkers) {
  QueryServer server(SmallServerOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  std::vector<TestClient> clients(8);
  for (TestClient& client : clients) {
    ASSERT_TRUE(client.Connect(server.port()));
  }
  ASSERT_TRUE(WaitFor([&] {
    ServerStats stats = server.stats();
    return stats.connections_accepted == 8 &&
           stats.worker_connections.size() == 2 &&
           stats.worker_connections[0] + stats.worker_connections[1] == 8;
  }));
  EXPECT_EQ(server.stats().worker_connections,
            (std::vector<int64_t>{4, 4}));

  clients.front().Send(FrameType::kMetrics, "");
  Frame frame;
  ASSERT_TRUE(clients.front().ReadFrame(&frame));
  ASSERT_EQ(frame.type, FrameType::kMetricsText);
  EXPECT_NE(frame.payload.find("server_worker_connections{worker=\"0\"} 4"),
            std::string::npos)
      << frame.payload;
  EXPECT_NE(frame.payload.find("server_worker_connections{worker=\"1\"} 4"),
            std::string::npos)
      << frame.payload;
  server.Stop();
}

TEST(Server, RegistryDeduplicatesIdenticalBatches) {
  QueryServer server(SmallServerOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient first, second;
  ASSERT_TRUE(first.Connect(server.port()));
  ASSERT_TRUE(second.Connect(server.port()));
  ASSERT_TRUE(RegisterDefault(&first));
  ASSERT_TRUE(RegisterDefault(&second));
  EXPECT_EQ(server.stats().batches_registered, 1);

  // A textually different but canonically distinct batch adds a second.
  RegisterRequest request;
  request.alphabet = kLetters;
  request.queries = {"/f//a"};
  second.Send(FrameType::kGoodbye, "");
  ASSERT_TRUE(second.ReadEof());
  TestClient third;
  ASSERT_TRUE(third.Connect(server.port()));
  third.Send(FrameType::kRegister, EncodeRegister(request));
  Frame frame;
  ASSERT_TRUE(third.ReadFrame(&frame));
  ASSERT_EQ(frame.type, FrameType::kRegistered);
  EXPECT_EQ(server.stats().batches_registered, 2);
  server.Stop();
}

// --- malformed documents: wire verdict == offline StreamError ---------------

TEST(Server, MalformedDocumentVerdictMatchesOfflineFirstError) {
  QueryServer server(SmallServerOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(RegisterDefault(&client));

  int mutated_docs = 0;
  for (int kind = 0; kind < kNumFaultKinds; ++kind) {
    for (uint64_t seed : {1u, 9u, 77u}) {
      std::string document = MakeDocument(seed + 100, 2000);
      FaultInjector injector(seed);
      FaultReport report =
          injector.Apply(static_cast<FaultKind>(kind), &document);
      if (!report.changed) continue;
      ++mutated_docs;

      OfflineVerdict offline = OfflineRun(TestQueries(), document);
      SendDocument(&client, document, /*chunk=*/311);  // odd chunking
      Frame frame;
      ASSERT_TRUE(client.ReadFrame(&frame))
          << FaultKindName(static_cast<FaultKind>(kind)) << " seed " << seed;

      if (offline.ok) {
        // The mutation happened to keep the document well-formed; counts
        // must still match exactly.
        ASSERT_EQ(frame.type, FrameType::kCounts);
        std::vector<int64_t> counts;
        ASSERT_TRUE(ParseCounts(frame.payload, &counts));
        EXPECT_EQ(counts, offline.counts);
        continue;
      }
      ASSERT_EQ(frame.type, FrameType::kError)
          << FaultKindName(static_cast<FaultKind>(kind)) << " seed " << seed;
      ErrorInfo info;
      ASSERT_TRUE(ParseErrorInfo(frame.payload, &info));
      EXPECT_EQ(info.code, StreamErrorCodeName(offline.error.code));
      EXPECT_EQ(info.offset, offline.error.offset);
      EXPECT_EQ(info.depth, offline.error.depth);
    }
  }
  ASSERT_GT(mutated_docs, 10);  // the loop really exercised the harness

  // The connection survived every verdict: a clean document still answers.
  std::string clean = MakeDocument(5, 800);
  OfflineVerdict offline = OfflineRun(TestQueries(), clean);
  SendDocument(&client, clean);
  Frame frame;
  ASSERT_TRUE(client.ReadFrame(&frame));
  ASSERT_EQ(frame.type, FrameType::kCounts);
  std::vector<int64_t> counts;
  ASSERT_TRUE(ParseCounts(frame.payload, &counts));
  EXPECT_EQ(counts, offline.counts);
  server.Stop();
}

TEST(Server, ZeroChunkDocumentVerdictMatchesOffline) {
  QueryServer server(SmallServerOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(RegisterDefault(&client));

  OfflineVerdict offline = OfflineRun(TestQueries(), "");
  ASSERT_FALSE(offline.ok);
  client.Send(FrameType::kFinish, "");  // kFinish with no kData at all
  Frame frame;
  ASSERT_TRUE(client.ReadFrame(&frame));
  ASSERT_EQ(frame.type, FrameType::kError);
  ErrorInfo info;
  ASSERT_TRUE(ParseErrorInfo(frame.payload, &info));
  EXPECT_EQ(info.code, StreamErrorCodeName(offline.error.code));
  EXPECT_EQ(info.offset, offline.error.offset);
  server.Stop();
}

// --- protocol rejections ------------------------------------------------------

TEST(Server, BadRegistrationsAnsweredWithoutKillingTheServer) {
  QueryServer server(SmallServerOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  struct Case {
    const char* name;
    RegisterRequest request;
    const char* code;
  };
  std::vector<Case> cases;
  {
    Case unknown_label;
    unknown_label.name = "label outside alphabet";
    unknown_label.request.alphabet = kLetters;
    unknown_label.request.queries = {"/a//z"};
    unknown_label.code = "bad_register";
    cases.push_back(unknown_label);

    Case malformed;
    malformed.name = "malformed xpath";
    malformed.request.alphabet = kLetters;
    malformed.request.queries = {"a///"};
    malformed.code = "bad_register";
    cases.push_back(malformed);

    Case bad_alphabet;
    bad_alphabet.name = "non-letter alphabet";
    bad_alphabet.request.alphabet = "ab1";
    bad_alphabet.request.queries = {"/a"};
    bad_alphabet.code = "bad_register";
    cases.push_back(bad_alphabet);

    Case bad_limits;
    bad_limits.name = "unsatisfiable limits";
    bad_limits.request.alphabet = kLetters;
    bad_limits.request.queries = {"/a"};
    bad_limits.request.limits.max_depth = 0;
    bad_limits.code = "bad_limits";
    cases.push_back(bad_limits);
  }

  for (const Case& test_case : cases) {
    TestClient client;
    ASSERT_TRUE(client.Connect(server.port())) << test_case.name;
    client.Send(FrameType::kRegister, EncodeRegister(test_case.request));
    Frame frame;
    ASSERT_TRUE(client.ReadFrame(&frame)) << test_case.name;
    ASSERT_EQ(frame.type, FrameType::kError) << test_case.name;
    ErrorInfo info;
    ASSERT_TRUE(ParseErrorInfo(frame.payload, &info));
    EXPECT_EQ(info.code, test_case.code) << test_case.name;
    EXPECT_TRUE(client.ReadEof()) << test_case.name;
  }

  // The server survived every rejection.
  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(RegisterDefault(&client));
  EXPECT_GE(server.stats().protocol_errors, 4);
  server.Stop();
}

// With the stack fallback off, a batch member that is not stackless has
// no machine to ride the batch's scan: the registration is rejected with a
// typed error naming the query, and the server keeps serving everyone else.
TEST(Server, InexactBatchMemberRejectedAtRegistration) {
  ServerOptions options = SmallServerOptions();
  options.multi.plan.allow_stack_fallback = false;
  QueryServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient served;
  ASSERT_TRUE(served.Connect(server.port()));
  ASSERT_TRUE(RegisterDefault(&served));  // registerless + stackless: exact

  TestClient rejected;
  ASSERT_TRUE(rejected.Connect(server.port()));
  RegisterRequest request;
  request.alphabet = kLetters;
  request.queries = {"/a//b", "//a/b"};
  rejected.Send(FrameType::kRegister, EncodeRegister(request));
  Frame frame;
  ASSERT_TRUE(rejected.ReadFrame(&frame));
  ASSERT_EQ(frame.type, FrameType::kError);
  ErrorInfo info;
  ASSERT_TRUE(ParseErrorInfo(frame.payload, &info));
  EXPECT_EQ(info.code, "bad_register");
  EXPECT_EQ(info.message,
            "query \"//a/b\": admits no exact streaming evaluator");
  EXPECT_TRUE(rejected.ReadEof());

  // The connection registered before the rejection is still answered.
  std::string document = MakeDocument(44, 2000);
  OfflineVerdict offline = OfflineRun(TestQueries(), document);
  ASSERT_TRUE(offline.ok);
  SendDocument(&served, document);
  ASSERT_TRUE(served.ReadFrame(&frame));
  ASSERT_EQ(frame.type, FrameType::kCounts);
  std::vector<int64_t> counts;
  ASSERT_TRUE(ParseCounts(frame.payload, &counts));
  EXPECT_EQ(counts, offline.counts);

  // ...and so is a connection that arrives after it.
  TestClient later;
  ASSERT_TRUE(later.Connect(server.port()));
  ASSERT_TRUE(RegisterDefault(&later));
  SendDocument(&later, document);
  ASSERT_TRUE(later.ReadFrame(&frame));
  ASSERT_EQ(frame.type, FrameType::kCounts);
  ASSERT_TRUE(ParseCounts(frame.payload, &counts));
  EXPECT_EQ(counts, offline.counts);
  server.Stop();
}

TEST(Server, OversizedFrameRejectedFromItsHeader) {
  ServerOptions options = SmallServerOptions();
  options.limits.max_frame_payload = 4096;
  QueryServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  // Header declaring 1 MiB; the payload never needs to be sent for the
  // rejection to arrive.
  std::string header;
  header.push_back(static_cast<char>(FrameType::kData));
  uint32_t declared = 1 << 20;
  for (int i = 0; i < 4; ++i) {
    header.push_back(static_cast<char>((declared >> (8 * i)) & 0xff));
  }
  client.SendRaw(header);
  Frame frame;
  ASSERT_TRUE(client.ReadFrame(&frame));
  ASSERT_EQ(frame.type, FrameType::kError);
  ErrorInfo info;
  ASSERT_TRUE(ParseErrorInfo(frame.payload, &info));
  EXPECT_EQ(info.code, "frame_too_large");
  EXPECT_TRUE(client.ReadEof());
  server.Stop();
}

TEST(Server, UnknownFrameTypeAndUnregisteredDataRejected) {
  QueryServer server(SmallServerOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  {
    TestClient client;
    ASSERT_TRUE(client.Connect(server.port()));
    client.SendRaw(std::string("Z\0\0\0\0", 5));
    Frame frame;
    ASSERT_TRUE(client.ReadFrame(&frame));
    ASSERT_EQ(frame.type, FrameType::kError);
    ErrorInfo info;
    ASSERT_TRUE(ParseErrorInfo(frame.payload, &info));
    EXPECT_EQ(info.code, "bad_frame");
    EXPECT_TRUE(client.ReadEof());
  }
  {
    TestClient client;
    ASSERT_TRUE(client.Connect(server.port()));
    client.Send(FrameType::kData, "aA");
    Frame frame;
    ASSERT_TRUE(client.ReadFrame(&frame));
    ASSERT_EQ(frame.type, FrameType::kError);
    ErrorInfo info;
    ASSERT_TRUE(ParseErrorInfo(frame.payload, &info));
    EXPECT_EQ(info.code, "not_registered");
    EXPECT_TRUE(client.ReadEof());
  }
  server.Stop();
}

// --- chaos: disconnects, slow-loris, overload, backpressure ------------------

TEST(Server, MidStreamDisconnectReturnsTheLeasedSession) {
  QueryServer server(SmallServerOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  {
    TestClient client;
    ASSERT_TRUE(client.Connect(server.port()));
    ASSERT_TRUE(RegisterDefault(&client));
    // Half a document, then vanish.
    std::string document = MakeDocument(3, 4000);
    client.Send(FrameType::kData, document.substr(0, document.size() / 2));
    // Make sure the server actually started the stream before the cut.
    ASSERT_TRUE(WaitFor([&] { return server.stats().streams_started == 1; }));
    client.Close();
  }

  ASSERT_TRUE(WaitFor([&] {
    ServerStats stats = server.stats();
    return stats.disconnects_mid_stream == 1 && stats.active_streams == 0 &&
           stats.pool.outstanding == 0 && stats.active_connections == 0;
  })) << RenderMetrics(server.stats());
  server.Stop();
}

TEST(Server, SlowLorisHitsTheIdleTimeout) {
  ServerOptions options = SmallServerOptions();
  options.limits.idle_timeout_ms = 100;
  QueryServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(RegisterDefault(&client));
  // One byte of a frame header, then silence: the classic slow loris.
  client.SendRaw("D");
  Frame frame;
  ASSERT_TRUE(client.ReadFrame(&frame, /*timeout_ms=*/5000));
  ASSERT_EQ(frame.type, FrameType::kShed);
  ShedReason reason;
  ASSERT_TRUE(ParseShedReason(frame.payload, &reason));
  EXPECT_EQ(reason, ShedReason::kIdleTimeout);
  EXPECT_TRUE(client.ReadEof());
  EXPECT_EQ(server.stats().idle_timeouts, 1);
  server.Stop();
}

TEST(Server, OverloadShedsWithTypedVerdictsAndBoundedMemory) {
  ServerOptions options = SmallServerOptions();
  options.limits.max_streams = 2;
  QueryServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  std::string document = MakeDocument(8, 3000);
  OfflineVerdict offline = OfflineRun(TestQueries(), document);
  ASSERT_TRUE(offline.ok);

  // Two streams occupy the whole capacity (partial documents, no finish).
  TestClient holders[2];
  for (TestClient& holder : holders) {
    ASSERT_TRUE(holder.Connect(server.port()));
    ASSERT_TRUE(RegisterDefault(&holder));
    holder.Send(FrameType::kData, document.substr(0, 512));
  }
  ASSERT_TRUE(WaitFor([&] { return server.stats().active_streams == 2; }));

  // 2x the capacity on top: every extra document sheds with a typed frame,
  // the connection survives, and server memory stays flat.
  int64_t rss_before_kb = RssKb();
  TestClient extra;
  ASSERT_TRUE(extra.Connect(server.port()));
  ASSERT_TRUE(RegisterDefault(&extra));
  constexpr int kOverloadDocs = 50;
  for (int i = 0; i < kOverloadDocs; ++i) {
    SendDocument(&extra, document);
    Frame frame;
    ASSERT_TRUE(extra.ReadFrame(&frame)) << "overload doc " << i;
    ASSERT_EQ(frame.type, FrameType::kShed) << "overload doc " << i;
    ShedReason reason;
    ASSERT_TRUE(ParseShedReason(frame.payload, &reason));
    EXPECT_EQ(reason, ShedReason::kMaxStreams);
  }
  int64_t rss_after_kb = RssKb();
  EXPECT_EQ(server.stats().sheds_stream, kOverloadDocs);
  if (rss_before_kb > 0 && rss_after_kb > 0) {
    EXPECT_LT(rss_after_kb - rss_before_kb, 32 * 1024)  // < 32 MiB growth
        << "RSS grew from " << rss_before_kb << " to " << rss_after_kb;
  }

  // Capacity freed: the holders finish and verdict normally, after which
  // the shed-prone connection is admitted again.
  for (TestClient& holder : holders) {
    SendDocument(&holder, document.substr(512));
    Frame frame;
    ASSERT_TRUE(holder.ReadFrame(&frame));
    ASSERT_EQ(frame.type, FrameType::kCounts);
  }
  ASSERT_TRUE(WaitFor([&] { return server.stats().active_streams == 0; }));
  SendDocument(&extra, document);
  Frame frame;
  ASSERT_TRUE(extra.ReadFrame(&frame));
  ASSERT_EQ(frame.type, FrameType::kCounts);
  std::vector<int64_t> counts;
  ASSERT_TRUE(ParseCounts(frame.payload, &counts));
  EXPECT_EQ(counts, offline.counts);
  server.Stop();
}

TEST(Server, ConnectionShedBeyondMaxConnectionsIsTyped) {
  ServerOptions options = SmallServerOptions();
  options.limits.max_connections = 1;
  QueryServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient first;
  ASSERT_TRUE(first.Connect(server.port()));
  ASSERT_TRUE(RegisterDefault(&first));  // round trip: admission recorded

  TestClient second;
  ASSERT_TRUE(second.Connect(server.port()));
  Frame frame;
  ASSERT_TRUE(second.ReadFrame(&frame));
  ASSERT_EQ(frame.type, FrameType::kShed);
  ShedReason reason;
  ASSERT_TRUE(ParseShedReason(frame.payload, &reason));
  EXPECT_EQ(reason, ShedReason::kMaxConnections);
  EXPECT_TRUE(second.ReadEof());
  EXPECT_EQ(server.stats().sheds_connection, 1);
  server.Stop();
}

TEST(Server, BackpressurePausesReadsUntilTheClientDrains) {
  ServerOptions options = SmallServerOptions();
  options.limits.max_output_buffer = 4096;
  options.limits.resume_output_buffer = 1024;
  QueryServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(RegisterDefault(&client));

  // A burst of metrics requests without reading a byte back: each reply
  // is ~1 KiB, so the 4 KiB output bound trips and the server must stop
  // reading instead of buffering without limit.
  constexpr int kBurst = 64;
  for (int i = 0; i < kBurst; ++i) client.Send(FrameType::kMetrics, "");
  ASSERT_TRUE(
      WaitFor([&] { return server.stats().backpressure_pauses >= 1; }));

  // Draining the socket resumes the paused connection; every reply
  // eventually arrives, in order, none dropped.
  for (int i = 0; i < kBurst; ++i) {
    Frame frame;
    ASSERT_TRUE(client.ReadFrame(&frame)) << "reply " << i;
    ASSERT_EQ(frame.type, FrameType::kMetricsText) << "reply " << i;
  }
  server.Stop();
}

// --- drain -------------------------------------------------------------------

TEST(Server, DrainFinishesInFlightDocumentWithIdenticalCounts) {
  QueryServer server(SmallServerOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  std::string document = MakeDocument(21, 4000);
  OfflineVerdict offline = OfflineRun(TestQueries(), document);
  ASSERT_TRUE(offline.ok);

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(RegisterDefault(&client));
  client.Send(FrameType::kData, document.substr(0, document.size() / 2));
  ASSERT_TRUE(WaitFor([&] { return server.stats().active_streams == 1; }));

  server.RequestDrain();
  ASSERT_TRUE(WaitFor([&] { return server.draining(); }));

  // The in-flight document finishes normally — byte-identical verdict —
  // and only then does the typed drain verdict close the connection.
  client.Send(FrameType::kData, document.substr(document.size() / 2));
  client.Send(FrameType::kFinish, "");
  Frame frame;
  ASSERT_TRUE(client.ReadFrame(&frame));
  ASSERT_EQ(frame.type, FrameType::kCounts);
  std::vector<int64_t> counts;
  ASSERT_TRUE(ParseCounts(frame.payload, &counts));
  EXPECT_EQ(counts, offline.counts);

  ASSERT_TRUE(client.ReadFrame(&frame));
  ASSERT_EQ(frame.type, FrameType::kShed);
  ShedReason reason;
  ASSERT_TRUE(ParseShedReason(frame.payload, &reason));
  EXPECT_EQ(reason, ShedReason::kDraining);
  EXPECT_TRUE(client.ReadEof());
  client.Close();

  server.WaitUntilDrained();
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.drain_completed_streams, 1);
  EXPECT_EQ(stats.drain_forced_closes, 0);
  EXPECT_EQ(stats.active_connections, 0);
  EXPECT_EQ(stats.active_streams, 0);
}

TEST(Server, DrainDeadlineForceClosesStragglersWithTypedVerdict) {
  ServerOptions options = SmallServerOptions();
  options.limits.drain_deadline_ms = 100;
  QueryServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(RegisterDefault(&client));
  client.Send(FrameType::kData, MakeDocument(4, 2000).substr(0, 256));
  ASSERT_TRUE(WaitFor([&] { return server.stats().active_streams == 1; }));

  server.RequestDrain();
  // Never finish the document: the deadline hammer must fall.
  Frame frame;
  ASSERT_TRUE(client.ReadFrame(&frame, /*timeout_ms=*/5000));
  ASSERT_EQ(frame.type, FrameType::kShed);
  ShedReason reason;
  ASSERT_TRUE(ParseShedReason(frame.payload, &reason));
  EXPECT_EQ(reason, ShedReason::kDrainDeadline);
  EXPECT_TRUE(client.ReadEof());
  client.Close();

  server.WaitUntilDrained();
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.drain_forced_closes, 1);
  EXPECT_EQ(stats.active_streams, 0);
  EXPECT_EQ(stats.pool.outstanding, 0);
}

TEST(Server, SigtermDrainsThroughTheSignalPipe) {
  QueryServer server(SmallServerOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ASSERT_TRUE(server.InstallSignalDrain(SIGTERM));

  TestClient idle;
  ASSERT_TRUE(idle.Connect(server.port()));
  ASSERT_TRUE(RegisterDefault(&idle));

  raise(SIGTERM);

  // The idle connection is shed with the drain verdict and the server
  // winds down completely.
  Frame frame;
  ASSERT_TRUE(idle.ReadFrame(&frame));
  ASSERT_EQ(frame.type, FrameType::kShed);
  ShedReason reason;
  ASSERT_TRUE(ParseShedReason(frame.payload, &reason));
  EXPECT_EQ(reason, ShedReason::kDraining);
  EXPECT_TRUE(idle.ReadEof());
  idle.Close();

  server.WaitUntilDrained();
  EXPECT_TRUE(server.draining());
  EXPECT_EQ(server.stats().active_connections, 0);
}

}  // namespace
}  // namespace sst

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "automata/alphabet.h"
#include "base/rng.h"
#include "dra/stream_error.h"
#include "engine/multi_query.h"
#include "engine/plan_cache.h"
#include "engine/session.h"
#include "test_util.h"
#include "testing/fault_injection.h"
#include "trees/encoding.h"

namespace sst {
namespace {

std::vector<BatchQuery> XPathBatch(std::initializer_list<const char*> texts) {
  std::vector<BatchQuery> batch;
  for (const char* text : texts) {
    batch.push_back(BatchQuery{QuerySyntax::kXPath, text});
  }
  return batch;
}

// A registerless batch over {a, b, c} (verified where a test's tier
// assertion depends on it).
std::vector<BatchQuery> RegisterlessBatch() {
  return XPathBatch({"/a//b", "/a//c", "/b//a", "/c//b"});
}

// Registerless, stackless and stack-baseline members in one batch: the
// stackless /a/b rides a fused DRA on compact markup and a generic
// side-car on xml-lite and term; //a/b is always a stack side-car.
std::vector<BatchQuery> MixedBatch() {
  return XPathBatch({"/a//b", "/a//c", "/a/b", "/b/c", "//a/b"});
}

std::string Serialize(StreamFormat format, const Alphabet& alphabet,
                      const EventStream& events) {
  switch (format) {
    case StreamFormat::kCompactMarkup:
      return ToCompactMarkup(alphabet, events);
    case StreamFormat::kXmlLite:
      return ToXmlLite(alphabet, events);
    case StreamFormat::kCompactTerm:
      return ToCompactTerm(alphabet, events);
  }
  return {};
}

MultiQueryOptions OptionsFor(StreamFormat format) {
  MultiQueryOptions options;
  options.plan.format = format;
  options.plan.encoding = format == StreamFormat::kCompactTerm
                              ? StreamEncoding::kTerm
                              : StreamEncoding::kMarkup;
  return options;
}

constexpr StreamFormat kAllFormats[] = {StreamFormat::kCompactMarkup,
                                        StreamFormat::kXmlLite,
                                        StreamFormat::kCompactTerm};

// One Session per slot of `plan`, the independent reference's machines.
struct IndependentSessions {
  explicit IndependentSessions(const MultiQueryPlan& plan) {
    for (const auto& slot_plan : plan.slot_plans()) {
      owned.push_back(std::make_unique<Session>(slot_plan));
      ptrs.push_back(owned.back().get());
    }
  }
  std::vector<std::unique_ptr<Session>> owned;
  std::vector<Session*> ptrs;
};

// The StreamStats every member of a batch shares with its own Session:
// the framing counters. (matches, the emission counters and the stack
// diagnostics are per machine.)
std::vector<int64_t> FramingStats(const StreamStats& stats) {
  return {stats.bytes_fed,        stats.chunks_fed,
          stats.events,           stats.max_depth,
          stats.errors_recovered, stats.subtrees_skipped,
          stats.error_offset};
}

struct BatchRunRecord {
  bool ok = false;
  std::vector<int64_t> matches;
  StreamErrorCode error_code = StreamErrorCode::kNone;
  int64_t error_offset = -1;
  std::vector<int64_t> framing;  // FramingStats

  friend bool operator==(const BatchRunRecord&, const BatchRunRecord&) =
      default;
};

template <typename Stream>
BatchRunRecord DriveBatch(Stream* session, const std::string& text,
                          size_t chunk_size,
                          const StreamLimits& limits = StreamLimits{}) {
  session->set_limits(limits);
  session->Reset();
  BatchRunRecord record;
  record.ok = true;
  for (size_t i = 0; i < text.size() && record.ok; i += chunk_size) {
    record.ok = session->Feed(std::string_view(text).substr(i, chunk_size));
  }
  if (record.ok) record.ok = session->Finish();
  record.matches = session->query_matches();
  record.error_code = session->stream_error().code;
  record.error_offset = session->stream_error().offset;
  record.framing = FramingStats(session->stats());
  return record;
}

// The independent reference: one Session per query (each a plain
// StreamingSelector over that query's plan), driven with the same
// chunking and limits.
BatchRunRecord DriveIndependent(const std::vector<Session*>& sessions,
                                const std::string& text, size_t chunk_size,
                                const StreamLimits& limits = StreamLimits{}) {
  BatchRunRecord record;
  record.ok = true;
  for (Session* session : sessions) {
    session->selector().set_limits(limits);
    session->Reset();
    bool ok = true;
    for (size_t i = 0; i < text.size() && ok; i += chunk_size) {
      ok = session->Feed(std::string_view(text).substr(i, chunk_size));
    }
    if (ok) ok = session->Finish();
    record.ok = record.ok && ok;
    record.matches.push_back(session->matches());
  }
  record.error_code = sessions.front()->stream_error().code;
  record.error_offset = sessions.front()->stream_error().offset;
  record.framing = FramingStats(sessions.front()->stats());
  return record;
}

// Forwards to a machine without exporting its ProductStepper, so a
// selector steps the batch through the virtual interface.
class VirtualOnlyMachine final : public StreamMachine {
 public:
  explicit VirtualOnlyMachine(StreamMachine* inner) : inner_(inner) {}
  void Reset() override { inner_->Reset(); }
  void OnOpen(Symbol symbol) override { inner_->OnOpen(symbol); }
  void OnClose(Symbol symbol) override { inner_->OnClose(symbol); }
  bool InAcceptingState() const override {
    return inner_->InAcceptingState();
  }
  void AppendSelectedMembers(std::vector<int32_t>* out) const override {
    inner_->AppendSelectedMembers(out);
  }
  int64_t StackDepthPeak() const override { return inner_->StackDepthPeak(); }
  int64_t StackUnderflowCloses() const override {
    return inner_->StackUnderflowCloses();
  }

 private:
  StreamMachine* inner_;
};

// A batch plan's product machine on the generic scanner tier: the
// reference the inline product stepper must match event for event.
class GenericBatch {
 public:
  explicit GenericBatch(const MultiQueryPlan& plan)
      : plan_(plan),
        machine_(plan.eager(), plan.lazy(), plan.mixed_dras(),
                 plan.NewSideCars()),
        opaque_(&machine_),
        selector_(&opaque_, plan.options().plan.format, &plan.alphabet(),
                  &plan.scanner_tables(), nullptr) {}

  void set_limits(const StreamLimits& limits) {
    selector_.set_limits(limits);
  }
  void set_match_sink(MatchSink* sink) {
    fan_out_ = MatchFanOutSink(sink, &plan_.member_queries());
    selector_.set_match_sink(sink == nullptr ? nullptr : &fan_out_);
  }
  void Reset() { selector_.Reset(); }
  bool Feed(std::string_view chunk) { return selector_.Feed(chunk); }
  bool Finish() { return selector_.Finish(); }
  std::vector<int64_t> query_matches() const {
    return plan_.QueryCounts(machine_.counts());
  }
  const StreamError& stream_error() const { return selector_.stream_error(); }
  StreamStats stats() const { return selector_.stats(); }

 private:
  const MultiQueryPlan& plan_;
  ProductTagMachine machine_;
  VirtualOnlyMachine opaque_;
  StreamingSelector selector_;
  MatchFanOutSink fan_out_;
};

enum class SinkMode { kOff, kCounting, kCollecting };

// One run with a sink installed: the batch record plus every StreamStats
// field and whatever the sink saw.
struct SinkRunRecord {
  BatchRunRecord run;
  std::vector<int64_t> stats;
  std::vector<int64_t> sink_counts;
  std::vector<MatchEvent> matches;
  std::vector<MatchEvent> spans;

  friend bool operator==(const SinkRunRecord&, const SinkRunRecord&) =
      default;
};

template <typename Stream>
SinkRunRecord DriveWithSink(Stream* stream, int num_queries, SinkMode mode,
                            const std::string& text, size_t chunk_size,
                            const StreamLimits& limits) {
  CountingSink counting(num_queries);
  CollectingSink collecting;
  MatchSink* sink = nullptr;
  if (mode == SinkMode::kCounting) sink = &counting;
  if (mode == SinkMode::kCollecting) sink = &collecting;
  stream->set_match_sink(sink);
  SinkRunRecord record;
  record.run = DriveBatch(stream, text, chunk_size, limits);
  stream->set_match_sink(nullptr);
  StreamStats stats = stream->stats();
  record.stats = FramingStats(stats);
  record.stats.insert(record.stats.end(),
                      {stats.matches, stats.matches_emitted,
                       stats.pending_matches_peak, stats.max_stack_depth,
                       stats.underflow_closes});
  if (mode == SinkMode::kCounting) record.sink_counts = counting.counts();
  record.matches = collecting.matches();
  record.spans = collecting.spans();
  return record;
}

TEST(MultiQueryPlan, DedupsEquivalentQueriesThroughCanonicalKeys) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  PlanCache cache;
  auto plan = MultiQueryPlan::Compile(
      XPathBatch({"/a//b", " /a //b ", "//c", "/a//b"}), alphabet,
      MultiQueryOptions{}, &cache);
  EXPECT_EQ(plan->num_queries(), 4);
  EXPECT_EQ(plan->num_slots(), 2);
  EXPECT_EQ(plan->slot_of(0), plan->slot_of(1));
  EXPECT_EQ(plan->slot_of(0), plan->slot_of(3));
  EXPECT_NE(plan->slot_of(0), plan->slot_of(2));
  // Dedup happens on the canonical key BEFORE the cache lookup: exactly
  // one compilation per unique query, duplicates never touch the cache.
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.stats().hits, 0);

  // Duplicates answer identically on a real document, through the
  // counts, the one-scan walk and the match-event fan-out.
  const std::string doc = "abBcCacCAA";  // a(b, c, a(c))
  const std::vector<int64_t> want = {1, 1, 2, 1};
  BatchSession session(plan);
  CountingSink sink(plan->num_queries());
  session.set_match_sink(&sink);
  ASSERT_TRUE(session.Feed(doc) && session.Finish());
  EXPECT_EQ(session.query_matches(), want);
  EXPECT_EQ(sink.counts(), want);
  EXPECT_EQ(session.CountSelections(doc), want);
}

TEST(MultiQueryPlan, TierSelectionFollowsBatchVerdicts) {
  Alphabet alphabet = Alphabet::FromLetters("abc");

  auto fused = MultiQueryPlan::Compile(RegisterlessBatch(), alphabet,
                                       MultiQueryOptions{});
  EXPECT_EQ(fused->tier(), MultiTier::kFusedProduct);
  ASSERT_NE(fused->eager(), nullptr);
  EXPECT_EQ(fused->lazy(), nullptr);
  EXPECT_GT(fused->stats().eager_states, 0);
  EXPECT_TRUE(fused->stats().fused_byte_table);

  MultiQueryOptions lazy_options;
  lazy_options.eager_state_cap = 1;
  auto lazy = MultiQueryPlan::Compile(RegisterlessBatch(), alphabet,
                                      lazy_options);
  EXPECT_EQ(lazy->tier(), MultiTier::kLazyProduct);
  EXPECT_EQ(lazy->eager(), nullptr);
  ASSERT_NE(lazy->lazy(), nullptr);

  // A stackless query with a fused DRA joins the registerless members in
  // ONE scan: the mixed tier, registerless sub-product + DRA side-car.
  auto mixed = MultiQueryPlan::Compile(XPathBatch({"/a//b", "/a/b"}),
                                       alphabet, MultiQueryOptions{});
  EXPECT_EQ(mixed->tier(), MultiTier::kMixed);
  EXPECT_NE(mixed->eager(), nullptr);
  EXPECT_EQ(mixed->lazy(), nullptr);
  EXPECT_EQ(mixed->stats().stackless_members, 1);
  ASSERT_EQ(mixed->mixed_dras().size(), 1u);

  // The term encoding has a fused DRA too (the blind Thm B.2 machine,
  // whose universal close reads column 0), so the stackless member rides
  // the same scan as a DRA side-car.
  auto term_mixed = MultiQueryPlan::Compile(
      XPathBatch({"/a//b", "/a/b"}), alphabet,
      OptionsFor(StreamFormat::kCompactTerm));
  EXPECT_EQ(term_mixed->tier(), MultiTier::kMixed);
  EXPECT_NE(term_mixed->eager(), nullptr);
  EXPECT_EQ(term_mixed->lazy(), nullptr);
  EXPECT_EQ(term_mixed->mixed_dras().size(), 1u);
  EXPECT_EQ(term_mixed->stats().machine_members, 0);

  // An over-cap registerless sub-product goes lazy; the DRA side-car
  // stays on the same scan.
  MultiQueryOptions tiny_cap;
  tiny_cap.eager_state_cap = 1;
  auto capped = MultiQueryPlan::Compile(XPathBatch({"/a//b", "/a/b"}),
                                        alphabet, tiny_cap);
  EXPECT_EQ(capped->tier(), MultiTier::kMixed);
  EXPECT_EQ(capped->eager(), nullptr);
  EXPECT_NE(capped->lazy(), nullptr);
  EXPECT_EQ(capped->mixed_dras().size(), 1u);

  // An all-stackless batch is mixed too: no product members, every slot a
  // fused DRA, riding the one-state empty product.
  auto all_dra = MultiQueryPlan::Compile(XPathBatch({"/a/b", "/b/*//c"}),
                                         alphabet, MultiQueryOptions{});
  EXPECT_EQ(all_dra->tier(), MultiTier::kMixed);
  ASSERT_NE(all_dra->eager(), nullptr);
  EXPECT_EQ(all_dra->eager()->arity, 0);
  EXPECT_EQ(all_dra->stats().eager_states, 1);
  EXPECT_EQ(all_dra->stats().stackless_members, 2);
}

// Property test: 30 random trees, clean and with every fault kind, ×
// {markup, xml-lite, term} × testing::LimitSweep × chunk splits {1, 3,
// 16, whole} — BatchSession per-query results, first error and framing
// stats byte-identical to N independent StreamingSelector runs. Three
// batches: registerless (the eager product alone), eager product plus a
// stackless member (a fused-DRA side-car on every format, so the scanner
// steps the inline ProductStepper with its side-car) and a mixed batch
// with a stack member. Under every sink
// mode (off, CountingSink, CollectingSink) each run must also match the
// same plan's product machine driven through the virtual interface: every
// StreamStats field, the sink's counts and the whole match log.
TEST(BatchSession, ParityAcrossFormatsAndChunkings) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Rng rng(71);
  std::vector<Tree> trees = testing::SampleTrees(30, 3, &rng);
  FaultInjector injector(71);
  const std::vector<std::vector<BatchQuery>> batches = {
      RegisterlessBatch(), XPathBatch({"/a//b", "/a//c", "/a/b"}),
      MixedBatch()};

  for (StreamFormat format : kAllFormats) {
    for (const std::vector<BatchQuery>& queries : batches) {
      auto plan = MultiQueryPlan::Compile(queries, alphabet,
                                          OptionsFor(format));
      ASSERT_NE(plan->eager(), nullptr);
      const bool registerless = &queries == &batches[0];
      ASSERT_EQ(plan->tier() == MultiTier::kMixed, !registerless);
      if (&queries == &batches[1]) {
        ASSERT_EQ(plan->stats().stackless_members, 1);
        ASSERT_EQ(plan->stats().machine_members, 0);
      }
      BatchSession batch(plan);
      GenericBatch generic(*plan);
      IndependentSessions independent(*plan);

      for (const Tree& tree : trees) {
        std::string text = Serialize(format, alphabet, Encode(tree));
        std::vector<std::string> inputs = {text};
        for (int kind = 0; kind < kNumFaultKinds; ++kind) {
          inputs.push_back(text);
          injector.Apply(static_cast<FaultKind>(kind), &inputs.back());
        }
        for (const StreamLimits& limits : testing::LimitSweep()) {
          for (const std::string& input : inputs) {
            for (size_t chunk : {size_t{1}, size_t{3}, size_t{16},
                                 std::max<size_t>(input.size(), 1)}) {
              BatchRunRecord reference =
                  DriveIndependent(independent.ptrs, input, chunk, limits);
              for (SinkMode mode : {SinkMode::kOff, SinkMode::kCounting,
                                    SinkMode::kCollecting}) {
                SinkRunRecord got = DriveWithSink(
                    &batch, plan->num_queries(), mode, input, chunk, limits);
                EXPECT_EQ(got.run, reference)
                    << static_cast<int>(format) << " chunk " << chunk
                    << ": " << input;
                EXPECT_EQ(got, DriveWithSink(&generic, plan->num_queries(),
                                             mode, input, chunk, limits))
                    << static_cast<int>(format) << " sink "
                    << static_cast<int>(mode) << " chunk " << chunk << ": "
                    << input;
                if (mode == SinkMode::kCounting) {
                  EXPECT_EQ(got.sink_counts, got.run.matches) << input;
                }
              }
            }
          }
        }
      }
    }
  }
}

TEST(BatchSession, FaultedInputsFirstErrorParity) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  auto plan = MultiQueryPlan::Compile(RegisterlessBatch(), alphabet,
                                      MultiQueryOptions{});
  ASSERT_EQ(plan->tier(), MultiTier::kFusedProduct);
  BatchSession batch(plan);

  IndependentSessions independent(*plan);

  Rng rng(83);
  FaultInjector injector(83);
  for (const Tree& tree : testing::SampleTrees(30, 3, &rng)) {
    std::string doc = ToCompactMarkup(alphabet, Encode(tree));
    for (int kind = 0; kind < kNumFaultKinds; ++kind) {
      std::string mutated = doc;
      injector.Apply(static_cast<FaultKind>(kind), &mutated);
      for (size_t chunk : {size_t{1}, size_t{3}, size_t{16}}) {
        BatchRunRecord fused = DriveBatch(&batch, mutated, chunk);
        BatchRunRecord reference =
            DriveIndependent(independent.ptrs, mutated, chunk);
        EXPECT_EQ(fused, reference)
            << FaultKindName(static_cast<FaultKind>(kind)) << " chunk "
            << chunk << ": " << mutated;
      }
    }
  }
}

TEST(BatchSession, StackSideCarRidesTheMixedTier) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  // "/a/b" is stackless (fused DRA), "//a/b" needs the stack baseline: the
  // batch still runs one scan, the stack member as a generic side-car.
  auto plan = MultiQueryPlan::Compile(
      XPathBatch({"/a//b", "/a/b", "//a/b"}), alphabet, MultiQueryOptions{});
  ASSERT_EQ(plan->tier(), MultiTier::kMixed);
  EXPECT_EQ(plan->stats().stackless_members, 1);
  EXPECT_EQ(plan->stats().machine_members, 1);
  BatchSession batch(plan);
  EXPECT_EQ(batch.active_tier(), MultiTier::kMixed);
  EXPECT_FALSE(batch.one_scan_eligible());
  IndependentSessions independent(*plan);

  Rng rng(89);
  for (const Tree& tree : testing::SampleTrees(20, 3, &rng)) {
    std::string doc = ToCompactMarkup(alphabet, Encode(tree));
    for (size_t chunk : {size_t{1}, size_t{16}}) {
      EXPECT_EQ(DriveBatch(&batch, doc, chunk),
                DriveIndependent(independent.ptrs, doc, chunk));
    }
  }
}

// The product machine forwards its side-cars' stack diagnostics, so a
// batch with stack members reports what each member's own Session does:
// the peak is the largest side-car peak (two stack members on one document
// peak together, and must not add up), underflows are summed.
TEST(BatchSession, StackDiagnosticsMatchTheStackMembersSession) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  for (StreamFormat format : kAllFormats) {
    std::vector<BatchQuery> queries = MixedBatch();
    queries.push_back(BatchQuery{QuerySyntax::kXPath, "//b/c"});
    auto plan = MultiQueryPlan::Compile(queries, alphabet,
                                        OptionsFor(format));
    const auto& stack_plan = plan->slot_plans()[4];  // "//a/b"
    ASSERT_EQ(stack_plan->kind(), EvaluatorKind::kStackBaseline);
    ASSERT_EQ(plan->slot_plans()[5]->kind(), EvaluatorKind::kStackBaseline);
    BatchSession batch(plan);
    Session alone(stack_plan);

    Rng rng(113);
    int64_t deepest = 0;
    for (const Tree& tree : testing::SampleTrees(20, 3, &rng)) {
      std::string doc = Serialize(format, alphabet, Encode(tree));
      DriveBatch(&batch, doc, 7);
      alone.Reset();
      if (alone.Feed(doc)) alone.Finish();
      EXPECT_EQ(batch.stats().max_stack_depth,
                alone.stats().max_stack_depth)
          << doc;
      EXPECT_EQ(batch.stats().underflow_closes,
                alone.stats().underflow_closes)
          << doc;
      deepest = std::max(deepest, batch.stats().max_stack_depth);
    }
    EXPECT_GT(deepest, 1) << static_cast<int>(format);
  }
}

// Mixed tier: registerless + stackless in ONE scan must agree
// query-for-query with independent per-query sessions — clean and faulted
// inputs, every chunking, and the one-scan byte entry points.
TEST(BatchSession, MixedTierMatchesIndependentReference) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  // Eager sub-product by default; eager_state_cap 1 puts the same DRA
  // side-cars beside a lazy sub-product.
  for (int eager_cap : {MultiQueryOptions{}.eager_state_cap, 1}) {
    MultiQueryOptions options;
    options.eager_state_cap = eager_cap;
    auto plan = MultiQueryPlan::Compile(
        XPathBatch({"/a//b", "/a/b", "/c//b", "/b/*//c"}), alphabet,
        options);
    ASSERT_EQ(plan->tier(), MultiTier::kMixed);
    ASSERT_EQ(plan->lazy() != nullptr, eager_cap == 1);
    EXPECT_EQ(plan->stats().stackless_members, 2);
    BatchSession batch(plan);
    EXPECT_EQ(batch.active_tier(), MultiTier::kMixed);
    ASSERT_TRUE(batch.one_scan_eligible());
    IndependentSessions independent(*plan);

    Rng rng(107);
    FaultInjector injector(107);
    for (const Tree& tree : testing::SampleTrees(30, 3, &rng)) {
      std::string doc = ToCompactMarkup(alphabet, Encode(tree));
      for (size_t chunk : {size_t{1}, size_t{3}, size_t{16}}) {
        BatchRunRecord mixed = DriveBatch(&batch, doc, chunk);
        BatchRunRecord reference =
            DriveIndependent(independent.ptrs, doc, chunk);
        EXPECT_EQ(mixed, reference) << "chunk " << chunk << ": " << doc;
        if (mixed.ok) {
          EXPECT_EQ(batch.CountSelections(doc), mixed.matches) << doc;
        }
      }
      std::string mutated = doc;
      injector.Apply(
          static_cast<FaultKind>(rng.NextBelow(
              static_cast<uint64_t>(kNumFaultKinds))),
          &mutated);
      for (size_t chunk : {size_t{1}, size_t{16}}) {
        EXPECT_EQ(DriveBatch(&batch, mutated, chunk),
                  DriveIndependent(independent.ptrs, mutated, chunk))
            << mutated;
      }
    }
  }
}

// All-stackless mixed batch: no registerless member, so the product is
// the one-state empty one, and every member is a fused DRA stepped in the
// same scan.
TEST(BatchSession, AllStacklessBatchRunsMixed) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  auto plan = MultiQueryPlan::Compile(XPathBatch({"/a/b", "/b/*//c"}),
                                      alphabet, MultiQueryOptions{});
  ASSERT_EQ(plan->tier(), MultiTier::kMixed);
  ASSERT_NE(plan->eager(), nullptr);
  ASSERT_EQ(plan->eager()->arity, 0);
  BatchSession batch(plan);

  IndependentSessions independent(*plan);

  Rng rng(109);
  for (const Tree& tree : testing::SampleTrees(20, 3, &rng)) {
    std::string doc = ToCompactMarkup(alphabet, Encode(tree));
    for (size_t chunk : {size_t{1}, size_t{7}}) {
      BatchRunRecord mixed = DriveBatch(&batch, doc, chunk);
      EXPECT_EQ(mixed, DriveIndependent(independent.ptrs, doc, chunk))
          << doc;
      if (mixed.ok) {
        EXPECT_EQ(batch.CountSelections(doc), mixed.matches) << doc;
      }
    }
  }
}

TEST(BatchSession, LazyTierAndWideDemotionKeepParity) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  MultiQueryOptions lazy_options;
  lazy_options.eager_state_cap = 1;  // force the lazy tier
  lazy_options.lazy_state_cap = 2;   // ...and mid-stream wide demotion
  auto plan = MultiQueryPlan::Compile(RegisterlessBatch(), alphabet,
                                      lazy_options);
  ASSERT_EQ(plan->tier(), MultiTier::kLazyProduct);
  BatchSession batch(plan);

  IndependentSessions independent(*plan);

  Rng rng(97);
  bool saw_demotion = false;
  for (const Tree& tree : testing::SampleTrees(30, 3, &rng)) {
    std::string doc = ToCompactMarkup(alphabet, Encode(tree));
    for (size_t chunk : {size_t{1}, size_t{7}}) {
      EXPECT_EQ(DriveBatch(&batch, doc, chunk),
                DriveIndependent(independent.ptrs, doc, chunk))
          << doc;
      saw_demotion |= batch.active_tier() == MultiTier::kIndependent;
    }
  }
  EXPECT_TRUE(saw_demotion);
  EXPECT_TRUE(plan->stats().lazy_overflowed);
  EXPECT_LE(plan->stats().lazy_states, 2);
}

TEST(BatchSession, OneScanCountsMatchStreaming) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  auto plan = MultiQueryPlan::Compile(
      XPathBatch({"/a//b", " /a //b ", "/b//a", "/c//b"}), alphabet,
      MultiQueryOptions{});
  ASSERT_EQ(plan->tier(), MultiTier::kFusedProduct);
  BatchSession batch(plan);
  ASSERT_TRUE(batch.one_scan_eligible());

  Rng rng(101);
  for (const Tree& tree : testing::SampleTrees(20, 3, &rng)) {
    std::string doc = ToCompactMarkup(alphabet, Encode(tree));
    BatchRunRecord streamed = DriveBatch(&batch, doc, 16);
    ASSERT_TRUE(streamed.ok);
    EXPECT_EQ(batch.CountSelections(doc), streamed.matches) << doc;
  }

  // Letters name tags only in compact markup: xml-lite and term batches
  // over single-letter labels are not eligible, whatever their members.
  for (StreamFormat format :
       {StreamFormat::kXmlLite, StreamFormat::kCompactTerm}) {
    BatchSession other(MultiQueryPlan::Compile(
        XPathBatch({"/a//b", "/a//c"}), alphabet, OptionsFor(format)));
    EXPECT_FALSE(other.one_scan_eligible()) << static_cast<int>(format);
  }
  BatchSession xml(MultiQueryPlan::Compile(XPathBatch({"/a//b", "/a//c"}),
                                           alphabet,
                                           OptionsFor(StreamFormat::kXmlLite)));
  ASSERT_TRUE(xml.Feed("<a><b></b><c><b></b></c></a>") && xml.Finish());
  EXPECT_EQ(xml.query_matches(), (std::vector<int64_t>{2, 1}));
}

// 8 threads stream the same documents through their own BatchSessions
// over one shared plan; every thread must match a sequential independent
// reference driven with the thread's chunking.
void ExpectConcurrentParity(const std::shared_ptr<const MultiQueryPlan>& plan,
                            const std::vector<std::string>& documents) {
  constexpr int kThreads = 8;
  IndependentSessions independent(*plan);
  std::vector<std::vector<BatchRunRecord>> expected(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (const std::string& doc : documents) {
      expected[t].push_back(DriveIndependent(independent.ptrs, doc,
                                             static_cast<size_t>(t) + 1));
    }
  }

  std::vector<std::vector<BatchRunRecord>> concurrent(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      BatchSession session(plan);
      for (const std::string& doc : documents) {
        concurrent[t].push_back(
            DriveBatch(&session, doc, static_cast<size_t>(t) + 1));
        // The one-scan walk races the streams on the shared lazy product.
        if (session.one_scan_eligible() && concurrent[t].back().ok) {
          EXPECT_EQ(session.CountSelections(doc), concurrent[t].back().matches);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(concurrent[t], expected[t]) << "thread " << t;
  }
}

TEST(BatchSession, ConcurrentSessionsShareOneLazyPlan) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  MultiQueryOptions lazy_options;
  lazy_options.eager_state_cap = 1;
  auto plan = MultiQueryPlan::Compile(RegisterlessBatch(), alphabet,
                                      lazy_options);
  ASSERT_EQ(plan->tier(), MultiTier::kLazyProduct);

  Rng rng(103);
  std::vector<std::string> documents;
  for (const Tree& tree : testing::SampleTrees(40, 3, &rng)) {
    documents.push_back(ToCompactMarkup(alphabet, Encode(tree)));
  }
  documents.push_back("abBAabA");  // truncated
  documents.push_back("abXBA");    // unknown label
  ExpectConcurrentParity(plan, documents);
}

// The lazy sub-product and the DRA side-cars' tables are shared across
// threads while every session owns its side-car configurations and its
// generic side-car machine (the stack-baseline member //a/b).
TEST(BatchSession, ConcurrentSessionsShareOneLazyPlanWithSideCars) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  MultiQueryOptions options = OptionsFor(StreamFormat::kXmlLite);
  options.eager_state_cap = 1;
  auto plan = MultiQueryPlan::Compile(MixedBatch(), alphabet, options);
  ASSERT_EQ(plan->tier(), MultiTier::kMixed);
  ASSERT_NE(plan->lazy(), nullptr);
  ASSERT_EQ(plan->stats().stackless_members, 2);
  ASSERT_EQ(plan->stats().machine_members, 1);

  Rng rng(127);
  std::vector<std::string> documents;
  for (const Tree& tree : testing::SampleTrees(40, 3, &rng)) {
    documents.push_back(ToXmlLite(alphabet, Encode(tree)));
  }
  documents.push_back("<a><b></b></a><a>");  // trailing content
  documents.push_back("<a><b></a>");         // label mismatch
  ExpectConcurrentParity(plan, documents);
}

TEST(BatchSessionPool, ReusesSessionsAcrossAcquires) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  auto plan = MultiQueryPlan::Compile(RegisterlessBatch(), alphabet,
                                      MultiQueryOptions{});
  BatchSessionPool pool(plan, /*max_idle=*/2);

  std::string doc = "abBA";
  auto first = pool.Acquire();
  ASSERT_TRUE(first->Feed(doc) && first->Finish());
  std::vector<int64_t> counts = first->query_matches();
  pool.Release(std::move(first));
  EXPECT_EQ(pool.idle(), 1u);

  auto second = pool.Acquire();
  EXPECT_EQ(pool.stats().reused, 1);
  EXPECT_EQ(pool.stats().created, 1);
  // Reset-on-acquire: counts start from zero again.
  ASSERT_TRUE(second->Feed(doc) && second->Finish());
  EXPECT_EQ(second->query_matches(), counts);
  pool.Release(std::move(second));
}

}  // namespace
}  // namespace sst

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "automata/alphabet.h"
#include "automata/product.h"
#include "automata/selection_mask.h"
#include "base/rng.h"
#include "dra/multi_runner.h"
#include "dra/stream_error.h"
#include "engine/query_plan.h"
#include "engine/session.h"
#include "query/rpq.h"
#include "test_util.h"
#include "testing/fault_injection.h"
#include "testing/reference_validator.h"
#include "trees/encoding.h"

namespace sst {
namespace {

std::shared_ptr<const QueryPlan> CompileXPath(const std::string& xpath,
                                              const Alphabet& alphabet,
                                              PlanOptions options = {}) {
  return QueryPlan::Compile(Rpq::FromXPath(xpath, alphabet), options);
}

// Registerless plans over {a, b, c}: the candidates every other test draws
// its batches from. Filtered by verdict so the suite never depends on the
// exact classification of any one query shape.
std::vector<std::shared_ptr<const QueryPlan>> RegisterlessPlans(
    const Alphabet& alphabet) {
  std::vector<std::shared_ptr<const QueryPlan>> plans;
  for (const char* xpath :
       {"/a//b", "/a//c", "/b//a", "/b//c", "/c//a", "/c//b", "/a", "/b"}) {
    auto plan = CompileXPath(xpath, alphabet);
    if (plan->kind() == EvaluatorKind::kRegisterless &&
        plan->tag_dfa() != nullptr && plan->fused() != nullptr) {
      plans.push_back(std::move(plan));
    }
  }
  return plans;
}

std::vector<const TagDfa*> Components(
    const std::vector<std::shared_ptr<const QueryPlan>>& plans) {
  std::vector<const TagDfa*> components;
  for (const auto& plan : plans) components.push_back(plan->tag_dfa());
  return components;
}

std::vector<std::string> MarkupDocuments(const Alphabet& alphabet, int count,
                                         uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> documents;
  for (const Tree& tree : testing::SampleTrees(count, alphabet.size(), &rng)) {
    documents.push_back(ToCompactMarkup(alphabet, Encode(tree)));
  }
  return documents;
}

// Clean documents followed by one copy per fault kind of each.
std::vector<std::string> FaultedMarkupDocuments(const Alphabet& alphabet,
                                                int count, uint64_t seed) {
  FaultInjector injector(seed);
  std::vector<std::string> documents = MarkupDocuments(alphabet, count, seed);
  const size_t clean = documents.size();
  for (size_t d = 0; d < clean; ++d) {
    for (int kind = 0; kind < kNumFaultKinds; ++kind) {
      std::string mutated = documents[d];
      injector.Apply(static_cast<FaultKind>(kind), &mutated);
      documents.push_back(std::move(mutated));
    }
  }
  return documents;
}

// Streams `doc` through a batch runner under `limits` and checks the
// outcome against one reference run per member: `references[q]` is member
// q's own machine. Every member must see the batch's first StreamError,
// its counters, and its own selection count. Returns whether the batch
// finished cleanly.
bool ExpectBatchMatchesReference(
    MultiTagDfaRunner* runner, const Alphabet& alphabet,
    const std::vector<std::unique_ptr<StreamMachine>>& references,
    const std::string& doc, const StreamLimits& limits, size_t chunk) {
  runner->selector().set_limits(limits);
  runner->Reset();
  bool ok = true;
  for (size_t i = 0; i < doc.size() && ok; i += chunk) {
    ok = runner->Feed(std::string_view(doc).substr(i, chunk));
  }
  ok = ok && runner->Finish();
  EXPECT_EQ(static_cast<size_t>(runner->num_queries()), references.size());
  for (size_t q = 0; q < references.size(); ++q) {
    testing::ValidatedRun single = testing::ReferenceValidate(
        references[q].get(), alphabet, doc, limits);
    EXPECT_EQ(ok, single.ok()) << "member " << q << ": " << doc;
    EXPECT_EQ(runner->stream_error(), single.error)
        << "member " << q << ": " << doc;
    EXPECT_EQ(runner->query_matches()[q], single.matches)
        << "member " << q << ": " << doc;
    EXPECT_EQ(runner->selector().nodes(), single.nodes) << doc;
    EXPECT_EQ(runner->stats().events, single.events) << doc;
    EXPECT_EQ(runner->stats().max_depth, single.max_depth) << doc;
  }
  return ok;
}

TEST(SelectionMask, NarrowBasics) {
  SelectionMask mask(8);
  EXPECT_FALSE(mask.Any());
  EXPECT_EQ(mask.Count(), 0);
  mask.Set(0);
  mask.Set(5);
  EXPECT_TRUE(mask.Any());
  EXPECT_TRUE(mask.Test(0));
  EXPECT_FALSE(mask.Test(1));
  EXPECT_TRUE(mask.Test(5));
  EXPECT_EQ(mask.Count(), 2);
  EXPECT_TRUE(mask.narrow());
  EXPECT_EQ(mask.word(), (uint64_t{1} << 0) | (uint64_t{1} << 5));

  int64_t counts[8] = {0};
  mask.AccumulateInto(counts);
  mask.AccumulateInto(counts);
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(counts[5], 2);
  EXPECT_EQ(counts[1], 0);
}

TEST(SelectionMask, WideBatches) {
  SelectionMask mask(130);
  EXPECT_FALSE(mask.narrow());
  mask.Set(3);
  mask.Set(64);
  mask.Set(129);
  EXPECT_TRUE(mask.Test(3));
  EXPECT_TRUE(mask.Test(64));
  EXPECT_TRUE(mask.Test(129));
  EXPECT_FALSE(mask.Test(63));
  EXPECT_FALSE(mask.Test(128));
  EXPECT_EQ(mask.Count(), 3);
  EXPECT_TRUE(mask.Any());

  std::vector<int64_t> counts(130, 0);
  mask.AccumulateInto(counts.data());
  EXPECT_EQ(counts[3], 1);
  EXPECT_EQ(counts[64], 1);
  EXPECT_EQ(counts[129], 1);
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  EXPECT_EQ(total, 3);

  SelectionMask other(130);
  other.Set(3);
  other.Set(64);
  other.Set(129);
  EXPECT_EQ(mask, other);
  other.Set(70);
  EXPECT_NE(mask, other);
}

// Satellite audit: the narrow/wide representation boundary. Exactly 64
// queries is the last single-word batch; 65 and 128 must spill into the
// wide representation with no bit lost at the seams (bits 63, 64, 127).
TEST(SelectionMask, BoundaryWidthsMatchScalarReference) {
  for (int arity : {64, 65, 128}) {
    SelectionMask mask(arity);
    EXPECT_EQ(mask.narrow(), arity <= 64) << arity;

    std::vector<bool> reference(static_cast<size_t>(arity), false);
    std::vector<int> bits = {0, arity / 2, arity - 1};
    if (arity > 64) {
      bits.push_back(63);  // last bit of the first word
      bits.push_back(64);  // first bit of the second word
    }
    Rng rng(static_cast<uint64_t>(arity));
    for (int extra = 0; extra < 10; ++extra) {
      bits.push_back(
          static_cast<int>(rng.NextBelow(static_cast<uint64_t>(arity))));
    }
    for (int bit : bits) {
      mask.Set(bit);
      reference[static_cast<size_t>(bit)] = true;
    }

    int want_count = 0;
    for (bool b : reference) want_count += static_cast<int>(b);
    EXPECT_EQ(mask.Count(), want_count) << arity;
    EXPECT_TRUE(mask.Any()) << arity;
    for (int i = 0; i < arity; ++i) {
      EXPECT_EQ(mask.Test(i), reference[static_cast<size_t>(i)])
          << "arity " << arity << " bit " << i;
    }

    std::vector<int64_t> counts(static_cast<size_t>(arity), 0);
    mask.AccumulateInto(counts.data());
    mask.AccumulateInto(counts.data());
    for (int i = 0; i < arity; ++i) {
      EXPECT_EQ(counts[static_cast<size_t>(i)],
                reference[static_cast<size_t>(i)] ? 2 : 0)
          << "arity " << arity << " bit " << i;
    }

    // Equality must compare the full width, not just the first word.
    SelectionMask twin(arity);
    for (int bit : bits) twin.Set(bit);
    EXPECT_EQ(mask, twin) << arity;
    if (!twin.Test(1)) {
      twin.Set(1);
      EXPECT_NE(mask, twin) << arity;
    }
  }
}

// The same boundary, end to end: batches of exactly 64, 65, and 128
// queries through the product runner, checked per query against the
// independent scalar (single-query fused) counts.
TEST(MultiTagDfaRunner, BatchWidth64And65And128MatchScalarReference) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  auto base = RegisterlessPlans(alphabet);
  ASSERT_GE(base.size(), 4u);
  for (int width : {64, 65, 128}) {
    std::vector<std::shared_ptr<const QueryPlan>> plans;
    for (int i = 0; i < width; ++i) {
      plans.push_back(base[static_cast<size_t>(i) % base.size()]);
    }
    auto product = BuildTagDfaProduct(Components(plans), 1 << 16);
    ASSERT_TRUE(product.has_value()) << width;
    EXPECT_EQ(product->arity, width);
    EXPECT_EQ(product->narrow, width <= 64);

    MultiTagDfaRunner runner(StreamFormat::kCompactMarkup, &alphabet,
                             nullptr, &*product, nullptr, nullptr);
    for (const std::string& doc :
         MarkupDocuments(alphabet, 10, 200 + static_cast<uint64_t>(width))) {
      std::vector<int64_t> counts = runner.CountSelections(doc);
      ASSERT_EQ(counts.size(), static_cast<size_t>(width));
      for (size_t q = 0; q < counts.size(); ++q) {
        EXPECT_EQ(counts[q], plans[q]->fused()->CountSelections(doc))
            << "width " << width << " query " << q << ": " << doc;
      }
    }
  }
}

TEST(TagDfaProduct, EagerCountsMatchComponentsOnRandomTrees) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  auto plans = RegisterlessPlans(alphabet);
  ASSERT_GE(plans.size(), 4u);
  auto product = BuildTagDfaProduct(Components(plans), 1 << 16);
  ASSERT_TRUE(product.has_value());
  EXPECT_EQ(product->arity, static_cast<int>(plans.size()));
  EXPECT_TRUE(product->narrow);

  MultiTagDfaRunner runner(StreamFormat::kCompactMarkup, &alphabet,
                           /*tables=*/nullptr, &*product,
                           /*eager_fused=*/nullptr, /*lazy=*/nullptr);
  ASSERT_TRUE(runner.one_scan_eligible());
  EXPECT_EQ(runner.tier(), MultiTier::kFusedProduct);
  for (const std::string& doc : MarkupDocuments(alphabet, 30, 17)) {
    std::vector<int64_t> counts = runner.CountSelections(doc);
    ASSERT_EQ(counts.size(), plans.size());
    for (size_t i = 0; i < plans.size(); ++i) {
      EXPECT_EQ(counts[i], plans[i]->fused()->CountSelections(doc)) << doc;
    }
  }
}

TEST(TagDfaProduct, EagerFusedByteTableMatchesTableFreeWalk) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  auto plans = RegisterlessPlans(alphabet);
  ASSERT_GE(plans.size(), 2u);
  auto product = BuildTagDfaProduct(Components(plans), 1 << 16);
  ASSERT_TRUE(product.has_value());
  ByteTagDfaRunner fused(product->dfa, alphabet);

  MultiTagDfaRunner with_table(StreamFormat::kCompactMarkup, &alphabet,
                               nullptr, &*product, &fused, nullptr);
  MultiTagDfaRunner without_table(StreamFormat::kCompactMarkup, &alphabet,
                                  nullptr, &*product, nullptr, nullptr);
  for (const std::string& doc : MarkupDocuments(alphabet, 20, 23)) {
    EXPECT_EQ(with_table.CountSelections(doc),
              without_table.CountSelections(doc));
  }
  // Junk bytes self-loop in the fused table; both paths must agree there
  // too (unknown lowercase letters still sample acceptance).
  for (const char* doc : {"a zb BA", "aq b BA", "a!bB?A"}) {
    EXPECT_EQ(with_table.CountSelections(doc),
              without_table.CountSelections(doc))
        << doc;
  }
}

TEST(TagDfaProduct, EagerRespectsStateCap) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  auto plans = RegisterlessPlans(alphabet);
  ASSERT_GE(plans.size(), 2u);
  EXPECT_FALSE(BuildTagDfaProduct(Components(plans), 1).has_value());
  EXPECT_TRUE(BuildTagDfaProduct(Components(plans), 1 << 16).has_value());
}

TEST(LazyProduct, MatchesEagerOnRandomTrees) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  auto plans = RegisterlessPlans(alphabet);
  ASSERT_GE(plans.size(), 4u);
  auto eager = BuildTagDfaProduct(Components(plans), 1 << 16);
  ASSERT_TRUE(eager.has_value());
  LazyTagDfaProduct lazy(Components(plans), 1 << 16);

  MultiTagDfaRunner eager_runner(StreamFormat::kCompactMarkup, &alphabet,
                                 nullptr, &*eager, nullptr, nullptr);
  MultiTagDfaRunner lazy_runner(StreamFormat::kCompactMarkup, &alphabet,
                                nullptr, nullptr, nullptr, &lazy);
  EXPECT_EQ(lazy_runner.tier(), MultiTier::kLazyProduct);
  for (const std::string& doc : MarkupDocuments(alphabet, 30, 31)) {
    EXPECT_EQ(eager_runner.CountSelections(doc),
              lazy_runner.CountSelections(doc))
        << doc;
  }
  // Only reached states materialized, and never more than the full product.
  EXPECT_GT(lazy.num_states(), 0);
  EXPECT_LE(lazy.num_states(), eager->dfa.num_states);
  EXPECT_FALSE(lazy.overflowed());
}

TEST(LazyProduct, OverflowDemotesToWideModeWithIdenticalCounts) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  auto plans = RegisterlessPlans(alphabet);
  ASSERT_GE(plans.size(), 4u);
  auto eager = BuildTagDfaProduct(Components(plans), 1 << 16);
  ASSERT_TRUE(eager.has_value());
  ASSERT_GT(eager->dfa.num_states, 2);

  // A cap below the reachable product forces mid-stream demotion.
  LazyTagDfaProduct lazy(Components(plans), 2);
  MultiTagDfaRunner eager_runner(StreamFormat::kCompactMarkup, &alphabet,
                                 nullptr, &*eager, nullptr, nullptr);
  MultiTagDfaRunner lazy_runner(StreamFormat::kCompactMarkup, &alphabet,
                                nullptr, nullptr, nullptr, &lazy);
  for (const std::string& doc : MarkupDocuments(alphabet, 30, 37)) {
    EXPECT_EQ(eager_runner.CountSelections(doc),
              lazy_runner.CountSelections(doc))
        << doc;
  }
  EXPECT_TRUE(lazy.overflowed());
  EXPECT_LE(lazy.num_states(), 2);

  // The chunked front-end latches wide mode per stream and reports it.
  std::string doc = MarkupDocuments(alphabet, 1, 41).front();
  ASSERT_TRUE(lazy_runner.Feed(doc) && lazy_runner.Finish());
  EXPECT_EQ(lazy_runner.active_tier(), MultiTier::kIndependent);
  lazy_runner.Reset();
  EXPECT_EQ(lazy_runner.active_tier(), MultiTier::kLazyProduct);
}

TEST(MultiTagDfaRunner, ChunkedFeedMatchesIndependentSelectors) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  auto plans = RegisterlessPlans(alphabet);
  ASSERT_GE(plans.size(), 4u);
  auto eager = BuildTagDfaProduct(Components(plans), 1 << 16);
  ASSERT_TRUE(eager.has_value());
  MultiTagDfaRunner runner(StreamFormat::kCompactMarkup, &alphabet, nullptr,
                           &*eager, nullptr, nullptr);

  std::vector<std::unique_ptr<Session>> sessions;
  for (const auto& plan : plans) {
    sessions.push_back(std::make_unique<Session>(plan));
  }

  for (const std::string& doc : MarkupDocuments(alphabet, 30, 43)) {
    for (size_t chunk : {size_t{1}, size_t{3}, size_t{16}}) {
      runner.Reset();
      bool ok = true;
      for (size_t i = 0; i < doc.size() && ok; i += chunk) {
        ok = runner.Feed(std::string_view(doc).substr(i, chunk));
      }
      if (ok) ok = runner.Finish();
      ASSERT_TRUE(ok) << doc;
      for (size_t q = 0; q < plans.size(); ++q) {
        sessions[q]->Reset();
        bool session_ok = true;
        for (size_t i = 0; i < doc.size() && session_ok; i += chunk) {
          session_ok =
              sessions[q]->Feed(std::string_view(doc).substr(i, chunk));
        }
        ASSERT_TRUE(session_ok && sessions[q]->Finish());
        EXPECT_EQ(runner.query_matches()[q], sessions[q]->matches())
            << "query " << q << " chunk " << chunk << " doc " << doc;
      }
    }
  }
}

TEST(MultiTagDfaRunner, EagerAndLazyStreamingMatchPerMemberReference) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  auto plans = RegisterlessPlans(alphabet);
  ASSERT_GE(plans.size(), 4u);
  auto eager = BuildTagDfaProduct(Components(plans), 1 << 16);
  ASSERT_TRUE(eager.has_value());
  ByteTagDfaRunner fused(eager->dfa, alphabet);
  LazyTagDfaProduct lazy(Components(plans), 1 << 16);
  MultiTagDfaRunner eager_runner(StreamFormat::kCompactMarkup, &alphabet,
                                 nullptr, &*eager, &fused, nullptr);
  MultiTagDfaRunner lazy_runner(StreamFormat::kCompactMarkup, &alphabet,
                                nullptr, nullptr, nullptr, &lazy);
  ASSERT_EQ(eager_runner.tier(), MultiTier::kFusedProduct);
  ASSERT_EQ(lazy_runner.tier(), MultiTier::kLazyProduct);
  std::vector<std::unique_ptr<StreamMachine>> references;
  for (const auto& plan : plans) references.push_back(plan->NewMachine());

  for (const StreamLimits& limits : testing::LimitSweep()) {
    for (const std::string& doc : FaultedMarkupDocuments(alphabet, 30, 59)) {
      for (size_t chunk : {size_t{3}, std::max<size_t>(doc.size(), 1)}) {
        ExpectBatchMatchesReference(&eager_runner, alphabet, references, doc,
                                    limits, chunk);
        ExpectBatchMatchesReference(&lazy_runner, alphabet, references, doc,
                                    limits, chunk);
      }
    }
  }
}

// Satellite audit: a stream that demotes to wide mode MID-chunk must
// report the same first StreamError (code + offset) as a run that was
// wide from its very first event, and as the independent per-query
// sessions — demotion may never move or change the error.
TEST(MultiTagDfaRunner, WideDemotionMidChunkKeepsFirstErrorParity) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  auto plans = RegisterlessPlans(alphabet);
  ASSERT_GE(plans.size(), 4u);
  // Cap 2: the stream runs dense for a couple of states, then demotes
  // mid-document. Cap 1: the very first transition overflows, so the
  // stream is effectively wide from scratch.
  LazyTagDfaProduct lazy_mid(Components(plans), 2);
  LazyTagDfaProduct lazy_scratch(Components(plans), 1);
  MultiTagDfaRunner mid(StreamFormat::kCompactMarkup, &alphabet, nullptr,
                        nullptr, nullptr, &lazy_mid);
  MultiTagDfaRunner scratch(StreamFormat::kCompactMarkup, &alphabet, nullptr,
                            nullptr, nullptr, &lazy_scratch);

  std::vector<std::unique_ptr<Session>> sessions;
  for (const auto& plan : plans) {
    sessions.push_back(std::make_unique<Session>(plan));
  }

  auto drive = [](auto* target, const std::string& doc, size_t chunk) {
    target->Reset();
    bool ok = true;
    for (size_t i = 0; i < doc.size() && ok; i += chunk) {
      ok = target->Feed(std::string_view(doc).substr(i, chunk));
    }
    if (ok) ok = target->Finish();
    return ok;
  };

  FaultInjector injector(73);
  bool saw_mid_demotion = false;
  for (const std::string& doc : MarkupDocuments(alphabet, 30, 73)) {
    for (int kind = 0; kind < kNumFaultKinds; ++kind) {
      std::string mutated = doc;
      injector.Apply(static_cast<FaultKind>(kind), &mutated);
      for (size_t chunk : {size_t{3}, size_t{16}}) {
        bool mid_ok = drive(&mid, mutated, chunk);
        bool scratch_ok = drive(&scratch, mutated, chunk);
        EXPECT_EQ(mid_ok, scratch_ok) << mutated;
        EXPECT_EQ(mid.stream_error().code, scratch.stream_error().code)
            << mutated;
        EXPECT_EQ(mid.stream_error().offset, scratch.stream_error().offset)
            << mutated;
        EXPECT_EQ(mid.query_matches(), scratch.query_matches()) << mutated;
        saw_mid_demotion |=
            mid.active_tier() == MultiTier::kIndependent;

        // And both agree with the per-query reference sessions.
        bool session_ok = drive(sessions.front().get(), mutated, chunk);
        EXPECT_EQ(mid_ok, session_ok) << mutated;
        EXPECT_EQ(mid.stream_error().code,
                  sessions.front()->stream_error().code)
            << mutated;
        EXPECT_EQ(mid.stream_error().offset,
                  sessions.front()->stream_error().offset)
            << mutated;
      }
    }
  }
  EXPECT_TRUE(saw_mid_demotion);
  EXPECT_TRUE(lazy_mid.overflowed());
}

// Mixed batch (registerless product + fused DRAs) streaming: same first
// error, same counters, and per-member counts equal to each member's own
// reference run; clean documents also agree with the one-scan entry point.
TEST(MultiTagDfaRunner, MixedBatchStreamingMatchesPerMemberReference) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  auto product_plans = RegisterlessPlans(alphabet);
  ASSERT_GE(product_plans.size(), 2u);
  product_plans.resize(2);
  std::vector<std::shared_ptr<const QueryPlan>> dra_plans;
  for (const char* xpath : {"/a/b", "/b/*//c"}) {
    auto plan = CompileXPath(xpath, alphabet);
    ASSERT_EQ(plan->kind(), EvaluatorKind::kStackless) << xpath;
    ASSERT_NE(plan->fused_dra(), nullptr) << xpath;
    dra_plans.push_back(std::move(plan));
  }
  auto eager = BuildTagDfaProduct(Components(product_plans), 1 << 16);
  ASSERT_TRUE(eager.has_value());
  std::vector<const ByteDraRunner*> dras;
  for (const auto& plan : dra_plans) dras.push_back(plan->fused_dra());

  MultiTagDfaRunner runner(StreamFormat::kCompactMarkup, &alphabet, nullptr,
                           &*eager, nullptr, nullptr, dras);
  EXPECT_EQ(runner.tier(), MultiTier::kMixed);
  ASSERT_TRUE(runner.one_scan_eligible());
  // Members in batch order: product bits first, then the DRA members.
  std::vector<std::unique_ptr<StreamMachine>> references;
  for (const auto& plan : product_plans) {
    references.push_back(plan->NewMachine());
  }
  for (const auto& plan : dra_plans) references.push_back(plan->NewMachine());

  for (const StreamLimits& limits : testing::LimitSweep()) {
    for (const std::string& doc : FaultedMarkupDocuments(alphabet, 30, 79)) {
      for (size_t chunk : {size_t{3}, std::max<size_t>(doc.size(), 1)}) {
        bool ok = ExpectBatchMatchesReference(&runner, alphabet, references,
                                              doc, limits, chunk);
        if (ok) {
          EXPECT_EQ(runner.CountSelections(doc), runner.query_matches())
              << doc;
        }
      }
    }
  }
}

TEST(MultiTagDfaRunner, WideBatchesBeyond64Queries) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  auto base = RegisterlessPlans(alphabet);
  ASSERT_GE(base.size(), 4u);
  // 70 queries cycling the base set: duplicated components stay in
  // lockstep, so the product stays small while the masks go wide.
  std::vector<std::shared_ptr<const QueryPlan>> plans;
  for (int i = 0; i < 70; ++i) plans.push_back(base[i % base.size()]);
  auto product = BuildTagDfaProduct(Components(plans), 1 << 16);
  ASSERT_TRUE(product.has_value());
  EXPECT_EQ(product->arity, 70);
  EXPECT_FALSE(product->narrow);

  MultiTagDfaRunner runner(StreamFormat::kCompactMarkup, &alphabet, nullptr,
                           &*product, nullptr, nullptr);
  for (const std::string& doc : MarkupDocuments(alphabet, 10, 61)) {
    std::vector<int64_t> counts = runner.CountSelections(doc);
    ASSERT_EQ(counts.size(), 70u);
    for (size_t q = 0; q < counts.size(); ++q) {
      EXPECT_EQ(counts[q],
                plans[q]->fused()->CountSelections(doc))
          << "query " << q << ": " << doc;
    }
  }
}

TEST(MultiTagDfaRunner, ConcurrentStreamsShareOneLazyProduct) {
  constexpr int kThreads = 8;
  Alphabet alphabet = Alphabet::FromLetters("abc");
  auto plans = RegisterlessPlans(alphabet);
  ASSERT_GE(plans.size(), 4u);
  LazyTagDfaProduct lazy(Components(plans), 1 << 16);
  std::vector<std::string> documents = MarkupDocuments(alphabet, 40, 67);

  // Per-query reference from the independent fused runners.
  std::vector<std::vector<int64_t>> expected;
  for (const std::string& doc : documents) {
    std::vector<int64_t> counts;
    for (const auto& plan : plans) {
      counts.push_back(plan->fused()->CountSelections(doc));
    }
    expected.push_back(std::move(counts));
  }

  // Every thread streams the whole corpus, racing to materialize product
  // states; each must still see exact per-query counts.
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      MultiTagDfaRunner runner(StreamFormat::kCompactMarkup, &alphabet,
                               nullptr, nullptr, nullptr, &lazy);
      size_t chunk = static_cast<size_t>(t) + 1;
      for (size_t d = 0; d < documents.size(); ++d) {
        const std::string& doc = documents[d];
        runner.Reset();
        bool ok = true;
        for (size_t i = 0; i < doc.size() && ok; i += chunk) {
          ok = runner.Feed(std::string_view(doc).substr(i, chunk));
        }
        if (!(ok && runner.Finish()) ||
            runner.query_matches() != expected[d]) {
          ++mismatches[static_cast<size_t>(t)];
        }
        if (runner.CountSelections(doc) != expected[d]) {
          ++mismatches[static_cast<size_t>(t)];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<size_t>(t)], 0) << "thread " << t;
  }
  EXPECT_FALSE(lazy.overflowed());
}

}  // namespace
}  // namespace sst

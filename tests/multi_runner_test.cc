// The product tier of batch evaluation (dra/multi_runner.h) driven through
// its public path, MultiQueryPlan + BatchSession: selection masks, the
// eager products and their split into lanes, the one-scan walk's three
// branches (fused product byte table, eager rows, one walk per lane) and
// streaming parity with each member's own reference run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "automata/alphabet.h"
#include "automata/selection_mask.h"
#include "base/rng.h"
#include "dra/multi_runner.h"
#include "dra/stream_error.h"
#include "engine/multi_query.h"
#include "engine/query_plan.h"
#include "engine/session.h"
#include "query/rpq.h"
#include "test_util.h"
#include "testing/fault_injection.h"
#include "testing/reference_validator.h"
#include "trees/encoding.h"

namespace sst {
namespace {

BatchQuery XPath(std::string text) {
  return BatchQuery{QuerySyntax::kXPath, std::move(text)};
}

std::shared_ptr<const QueryPlan> CompileXPath(const std::string& xpath,
                                              const Alphabet& alphabet) {
  return QueryPlan::Compile(Rpq::FromXPath(xpath, alphabet), {});
}

// Registerless queries over {a, b, c}: the members every other test draws
// its batches from. Filtered by verdict so the suite never depends on the
// exact classification of any one query shape.
std::vector<BatchQuery> RegisterlessQueries(const Alphabet& alphabet) {
  std::vector<BatchQuery> queries;
  for (const char* xpath :
       {"/a//b", "/a//c", "/b//a", "/b//c", "/c//a", "/c//b", "/a", "/b"}) {
    auto plan = CompileXPath(xpath, alphabet);
    if (plan->kind() == EvaluatorKind::kRegisterless &&
        plan->tag_dfa() != nullptr && plan->fused() != nullptr) {
      queries.push_back(XPath(xpath));
    }
  }
  return queries;
}

std::shared_ptr<const MultiQueryPlan> CompileBatch(
    const std::vector<BatchQuery>& queries, const Alphabet& alphabet,
    int eager_state_cap = MultiQueryOptions{}.eager_state_cap) {
  MultiQueryOptions options;
  options.eager_state_cap = eager_state_cap;
  return MultiQueryPlan::Compile(queries, alphabet, options);
}

// Each registerless query's own fused count, in submission order.
std::vector<int64_t> ScalarCounts(const MultiQueryPlan& plan,
                                  const std::string& doc) {
  std::vector<int64_t> counts;
  for (int q = 0; q < plan.num_queries(); ++q) {
    counts.push_back(
        plan.slot_plans()[static_cast<size_t>(plan.slot_of(q))]
            ->fused()
            ->CountSelections(doc));
  }
  return counts;
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

bool Drive(BatchSession* session, const std::string& doc, size_t chunk) {
  session->Reset();
  bool ok = true;
  for (size_t i = 0; i < doc.size() && ok; i += chunk) {
    ok = session->Feed(std::string_view(doc).substr(i, chunk));
  }
  return ok && session->Finish();
}

// Streams `doc` through a batch session under `limits` and checks the
// outcome against one reference run per query: `references[q]` is query
// q's own machine. Every query must see the batch's first StreamError,
// its counters, and its own selection count. Returns whether the batch
// finished cleanly.
bool ExpectBatchMatchesReference(
    BatchSession* session, const Alphabet& alphabet,
    const std::vector<std::unique_ptr<StreamMachine>>& references,
    const std::string& doc, const StreamLimits& limits, size_t chunk) {
  session->set_limits(limits);
  const bool ok = Drive(session, doc, chunk);
  EXPECT_EQ(static_cast<size_t>(session->plan().num_queries()),
            references.size());
  for (size_t q = 0; q < references.size(); ++q) {
    testing::ValidatedRun single = testing::ReferenceValidate(
        references[q].get(), alphabet, doc, limits);
    EXPECT_EQ(ok, single.ok()) << "query " << q << ": " << doc;
    EXPECT_EQ(session->stream_error(), single.error)
        << "query " << q << ": " << doc;
    EXPECT_EQ(session->query_matches()[q], single.matches)
        << "query " << q << ": " << doc;
    EXPECT_EQ(session->stats().events, single.events) << doc;
    EXPECT_EQ(session->stats().max_depth, single.max_depth) << doc;
  }
  return ok;
}

std::vector<std::unique_ptr<StreamMachine>> ReferenceMachines(
    const MultiQueryPlan& plan) {
  std::vector<std::unique_ptr<StreamMachine>> references;
  for (int q = 0; q < plan.num_queries(); ++q) {
    references.push_back(
        plan.slot_plans()[static_cast<size_t>(plan.slot_of(q))]
            ->NewMachine());
  }
  return references;
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

// The same boundary, end to end: batches of exactly 64, 65, 70 and 128
// distinct /x//y queries over twelve letters (canonical-key dedup would
// merge repeats), checked per query against the independent scalar
// (single-query fused) counts. 64 walks the fused product byte table;
// wider batches walk the eager product rows with wide masks.
TEST(BatchSession, WidthBoundaryMatchesScalarReference) {
  Alphabet alphabet = Alphabet::FromLetters("abcdefghijkl");
  std::vector<BatchQuery> all;
  for (char x = 'a'; x <= 'l'; ++x) {
    for (char y = 'a'; y <= 'l'; ++y) {
      all.push_back(XPath(std::string("/") + x + "//" + y));
    }
  }
  for (size_t width : {64u, 65u, 70u, 128u}) {
    auto plan = CompileBatch(
        std::vector<BatchQuery>(all.begin(), all.begin() + width), alphabet);
    ASSERT_EQ(plan->tier(), MultiTier::kFusedProduct) << width;
    ASSERT_EQ(plan->num_slots(), static_cast<int>(width));
    ASSERT_EQ(plan->stats().lanes, 1);
    EXPECT_EQ(plan->lanes()[0].arity, static_cast<int>(width));
    EXPECT_EQ(plan->lanes()[0].narrow, width <= 64);
    EXPECT_EQ(plan->stats().fused_byte_table, width <= 64);
    ASSERT_TRUE(plan->one_scan_eligible());
    BatchSession session(plan);
    for (const std::string& doc : MarkupDocuments(alphabet, 10, 200 + width)) {
      std::vector<int64_t> counts = plan->CountSelections(doc);
      EXPECT_EQ(counts, ScalarCounts(*plan, doc))
          << "width " << width << ": " << doc;
      ASSERT_TRUE(Drive(&session, doc, 7)) << doc;
      EXPECT_EQ(session.query_matches(), counts) << doc;
    }
  }
}

TEST(TagDfaProduct, EagerRespectsStateCap) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  auto plan = CompileBatch(RegisterlessQueries(alphabet), alphabet);
  ASSERT_GE(plan->num_slots(), 2);
  std::vector<const TagDfa*> components;
  for (const auto& slot : plan->slot_plans()) {
    components.push_back(slot->tag_dfa());
  }
  EXPECT_FALSE(BuildTagDfaProduct(components, 1).has_value());
  EXPECT_TRUE(BuildTagDfaProduct(components, 1 << 16).has_value());
}

// The one-scan walk's three branches agree with the members' own fused
// runners on the same registerless queries: the fused product byte table
// (kFusedProduct), the eager product rows walked beside a DRA side-car
// (kMixed), and one walk per lane. Junk bytes self-loop in the fused table;
// every branch must agree there too (unknown lowercase letters still
// sample acceptance).
TEST(BatchSession, OneScanBranchesMatchComponents) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  std::vector<BatchQuery> queries = RegisterlessQueries(alphabet);
  ASSERT_GE(queries.size(), 4u);
  std::vector<BatchQuery> with_dra = queries;
  with_dra.push_back(XPath("/a/b"));
  auto fused = CompileBatch(queries, alphabet);
  auto rows = CompileBatch(with_dra, alphabet);
  auto split = CompileBatch(queries, alphabet, /*eager_state_cap=*/1);
  ASSERT_TRUE(fused->stats().fused_byte_table);
  ASSERT_EQ(rows->tier(), MultiTier::kMixed);
  ASSERT_EQ(rows->stats().lanes, 1);
  ASSERT_EQ(split->stats().lanes, static_cast<int>(queries.size()));
  for (const auto& plan : {fused, rows, split}) {
    ASSERT_TRUE(plan->one_scan_eligible());
  }

  std::vector<std::string> documents = MarkupDocuments(alphabet, 30, 17);
  for (const char* doc : {"a zb BA", "aq b BA", "a!bB?A"}) {
    documents.push_back(doc);
  }
  for (const std::string& doc : documents) {
    std::vector<int64_t> want = ScalarCounts(*fused, doc);
    EXPECT_EQ(fused->CountSelections(doc), want) << doc;
    std::vector<int64_t> beside_dra = rows->CountSelections(doc);
    beside_dra.pop_back();  // the DRA member
    EXPECT_EQ(beside_dra, want) << doc;
    EXPECT_EQ(split->CountSelections(doc), want) << doc;
  }
}

TEST(BatchSession, OneAndSplitLanesStreamingMatchPerMemberReference) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  std::vector<BatchQuery> queries = RegisterlessQueries(alphabet);
  ASSERT_GE(queries.size(), 4u);
  auto eager_plan = CompileBatch(queries, alphabet);
  auto split_plan = CompileBatch(queries, alphabet, /*eager_state_cap=*/1);
  ASSERT_EQ(eager_plan->stats().lanes, 1);
  ASSERT_EQ(split_plan->stats().lanes, static_cast<int>(queries.size()));
  BatchSession eager(eager_plan);
  BatchSession split(split_plan);
  std::vector<std::unique_ptr<StreamMachine>> references =
      ReferenceMachines(*eager_plan);

  for (const StreamLimits& limits : testing::LimitSweep()) {
    for (const std::string& doc : FaultedMarkupDocuments(alphabet, 30, 59)) {
      for (size_t chunk : {size_t{3}, std::max<size_t>(doc.size(), 1)}) {
        ExpectBatchMatchesReference(&eager, alphabet, references, doc, limits,
                                    chunk);
        ExpectBatchMatchesReference(&split, alphabet, references, doc, limits,
                                    chunk);
      }
    }
  }
}

// Mixed batch (registerless product + fused DRAs) streaming: same first
// error, same counters, and per-query counts equal to each query's own
// reference run; clean documents also agree with the one-scan walk.
TEST(BatchSession, MixedBatchStreamingMatchesPerMemberReference) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  std::vector<BatchQuery> queries = RegisterlessQueries(alphabet);
  ASSERT_GE(queries.size(), 2u);
  queries.resize(2);
  for (const char* xpath : {"/a/b", "/b/*//c"}) {
    auto plan = CompileXPath(xpath, alphabet);
    ASSERT_EQ(plan->kind(), EvaluatorKind::kStackless) << xpath;
    ASSERT_NE(plan->fused_dra(), nullptr) << xpath;
    queries.push_back(XPath(xpath));
  }
  auto plan = CompileBatch(queries, alphabet);
  ASSERT_EQ(plan->tier(), MultiTier::kMixed);
  ASSERT_EQ(plan->stats().stackless_members, 2);
  ASSERT_TRUE(plan->one_scan_eligible());
  BatchSession session(plan);
  std::vector<std::unique_ptr<StreamMachine>> references =
      ReferenceMachines(*plan);

  for (const StreamLimits& limits : testing::LimitSweep()) {
    for (const std::string& doc : FaultedMarkupDocuments(alphabet, 30, 79)) {
      for (size_t chunk : {size_t{3}, std::max<size_t>(doc.size(), 1)}) {
        bool ok = ExpectBatchMatchesReference(&session, alphabet, references,
                                              doc, limits, chunk);
        if (ok) {
          EXPECT_EQ(session.CountSelections(doc), session.query_matches())
              << doc;
        }
      }
    }
  }
}

}  // namespace
}  // namespace sst

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "automata/alphabet.h"
#include "core/stackless.h"
#include "engine/query_plan.h"
#include "engine/session.h"
#include "query/rpq.h"
#include "test_util.h"
#include "trees/encoding.h"
#include "trees/ground_truth.h"

// Global allocation counter so tests can assert that pooled session reuse
// performs no heap allocation (acceptance criterion of the engine layer).
// Counts every operator new in the binary; tests only look at deltas.
namespace {
std::atomic<int64_t> g_heap_allocations{0};
}  // namespace

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace sst {
namespace {

std::shared_ptr<const QueryPlan> CompileXPath(const std::string& xpath,
                                              const Alphabet& alphabet,
                                              PlanOptions options = {}) {
  return QueryPlan::Compile(Rpq::FromXPath(xpath, alphabet), options);
}

TEST(QueryPlan, TierSelectionMatchesCharacterization) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  // Example 2.12 of the paper: the three XPath shapes land on the three
  // evaluation tiers under the markup encoding.
  auto registerless = CompileXPath("/a//b", alphabet);
  EXPECT_EQ(registerless->kind(), EvaluatorKind::kRegisterless);
  EXPECT_TRUE(registerless->exact());
  EXPECT_NE(registerless->tag_dfa(), nullptr);
  EXPECT_EQ(registerless->stackless(), nullptr);

  auto stackless = CompileXPath("/a/b", alphabet);
  EXPECT_EQ(stackless->kind(), EvaluatorKind::kStackless);
  EXPECT_TRUE(stackless->exact());
  EXPECT_EQ(stackless->tag_dfa(), nullptr);
  EXPECT_NE(stackless->stackless(), nullptr);

  auto baseline = CompileXPath("//a/b", alphabet);
  EXPECT_EQ(baseline->kind(), EvaluatorKind::kStackBaseline);
  EXPECT_TRUE(baseline->exact());
  EXPECT_EQ(baseline->fused(), nullptr);
}

TEST(QueryPlan, StackFallbackCanBeDisabled) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  PlanOptions options;
  options.allow_stack_fallback = false;
  auto plan = CompileXPath("//a/b", alphabet, options);
  EXPECT_FALSE(plan->exact());
  EXPECT_EQ(plan->NewMachine(), nullptr);
  // The classification verdicts are still available on an inexact plan.
  EXPECT_FALSE(plan->classification().har);
}

TEST(QueryPlan, FusedRunnerAgreesWithScannerTablesOnAllBytes) {
  // Satellite 1: the fused byte table and the scanner's byte tables are
  // built once, in the plan, from the same alphabet — they must agree on
  // every one of the 256 byte values.
  Alphabet alphabet = Alphabet::FromLetters("abc");
  auto plan = CompileXPath("/a//b", alphabet);
  ASSERT_NE(plan->fused(), nullptr);
  const ScannerTables& tables = plan->scanner_tables();
  for (int b = 0; b < 256; ++b) {
    unsigned char byte = static_cast<unsigned char>(b);
    Symbol fused_symbol = plan->fused()->byte_symbol(byte);
    uint8_t cls = tables.byte_class(byte);
    if (cls == ScannerTables::kOpen || cls == ScannerTables::kClose) {
      EXPECT_EQ(fused_symbol, tables.byte_symbol(byte))
          << "byte " << b << " disagrees between fused and scanner tables";
    } else {
      // Bytes the scanner does not treat as tags must not map to a symbol
      // in the fused table either.
      EXPECT_LT(fused_symbol, 0) << "byte " << b;
    }
  }
}

TEST(QueryPlan, SessionsMatchLegacyFacadeAndGroundTruth) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Rng rng(11);
  std::vector<Tree> trees = testing::SampleTrees(40, 3, &rng);
  for (const char* xpath : {"/a//b", "/a/b", "//a/b"}) {
    Rpq rpq = Rpq::FromXPath(xpath, alphabet);
    auto plan = QueryPlan::Compile(rpq, PlanOptions{});
    CompiledQuery legacy = CompileQuery(rpq, StreamEncoding::kMarkup);
    ASSERT_TRUE(legacy.exact);
    // The facade is an adapter over the engine: it exposes the plan it
    // compiled, with identical verdicts.
    ASSERT_NE(legacy.plan, nullptr);
    EXPECT_EQ(legacy.plan->kind(), plan->kind());

    Session session(plan);
    for (const Tree& tree : trees) {
      std::string text = ToCompactMarkup(alphabet, Encode(tree));
      std::vector<bool> expected = SelectNodes(rpq.minimal_dfa, tree);
      int64_t expected_matches = 0;
      for (bool b : expected) expected_matches += b ? 1 : 0;

      session.Reset();
      ASSERT_TRUE(session.Feed(text) && session.Finish())
          << xpath << ": " << session.selector().error();
      EXPECT_EQ(session.matches(), expected_matches) << xpath;

      legacy.machine->Reset();
      StreamingSelector selector(legacy.machine.get(),
                                 StreamFormat::kCompactMarkup, &alphabet);
      ASSERT_TRUE(selector.Feed(text) && selector.Finish());
      EXPECT_EQ(session.matches(), selector.matches()) << xpath;
    }
  }
}

TEST(Session, BorrowsFusedFastPathFromPlan) {
  Alphabet alphabet = Alphabet::FromLetters("ab");
  auto plan = CompileXPath("/a//b", alphabet);
  ASSERT_NE(plan->fused(), nullptr);
  Session session(plan);
  EXPECT_TRUE(session.selector().using_fused_fast_path());
}

TEST(SessionPool, PooledAcquirePerformsNoHeapAllocation) {
  // Acceptance criterion: opening a pooled session on a compiled plan is
  // allocation-free — all tables live in the plan, Reset touches no heap.
  Alphabet alphabet = Alphabet::FromLetters("abc");
  auto plan = CompileXPath("/a//b", alphabet);
  SessionPool pool(plan, /*max_idle=*/4);
  // Warm the pool: first acquisition constructs the session.
  pool.Release(pool.Acquire());
  ASSERT_EQ(pool.idle(), 1u);

  int64_t before = g_heap_allocations.load(std::memory_order_relaxed);
  std::unique_ptr<Session> session = pool.Acquire();
  int64_t after = g_heap_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0)
      << "pooled Acquire() must not touch the heap";
  EXPECT_EQ(session->matches(), 0);
  pool.Release(std::move(session));

  SessionPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.created, 1);
  EXPECT_EQ(stats.reused, 1);
}

TEST(SessionPool, SteadyStateStreamingIsAllocationFree) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  auto plan = CompileXPath("/a//b", alphabet);
  SessionPool pool(plan, /*max_idle=*/4);
  const std::string text = "abBabBAbBA";  // a(b, a(b), b)
  // Warm-up request (constructs the session, sizes any lazy buffers).
  {
    auto session = pool.Acquire();
    ASSERT_TRUE(session->Feed(text) && session->Finish());
    pool.Release(std::move(session));
  }
  int64_t before = g_heap_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 16; ++i) {
    auto session = pool.Acquire();
    ASSERT_TRUE(session->Feed(text) && session->Finish());
    pool.Release(std::move(session));
  }
  int64_t after = g_heap_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0)
      << "a warm acquire/stream/release cycle must be allocation-free";
}

TEST(SessionPool, BoundsIdleListAndSharesOnePlan) {
  Alphabet alphabet = Alphabet::FromLetters("ab");
  auto plan = CompileXPath("/a/b", alphabet);
  SessionPool pool(plan, /*max_idle=*/2);
  std::vector<std::unique_ptr<Session>> out;
  for (int i = 0; i < 5; ++i) out.push_back(pool.Acquire());
  for (auto& session : out) {
    EXPECT_EQ(session->plan_ptr().get(), plan.get());
    pool.Release(std::move(session));
  }
  EXPECT_EQ(pool.idle(), 2u);  // releases beyond max_idle are destroyed
  EXPECT_EQ(pool.stats().created, 5);
}

TEST(SessionPool, LeaseReturnsSessionOnScopeExit) {
  Alphabet alphabet = Alphabet::FromLetters("ab");
  auto plan = CompileXPath("/a/b", alphabet);
  SessionPool pool(plan);
  {
    SessionLease lease = Lease(pool);
    ASSERT_TRUE(lease->Feed("abBA") && lease->Finish());
  }
  EXPECT_EQ(pool.idle(), 1u);
  EXPECT_EQ(pool.stats().created, 1);
}

TEST(QueryPlan, TermEncodingUsesBlindVerdicts) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  PlanOptions options;
  options.encoding = StreamEncoding::kTerm;
  options.format = StreamFormat::kCompactTerm;
  Rpq rpq = Rpq::FromXPath("/a//b", alphabet);
  auto plan = QueryPlan::Compile(rpq, options);
  // /a//b is blindly almost-reversible, so the term-encoding plan is still
  // registerless — but the fused byte table only exists for compact
  // markup.
  EXPECT_EQ(plan->kind(), EvaluatorKind::kRegisterless);
  EXPECT_EQ(plan->fused(), nullptr);

  Session session(plan);
  Rng rng(7);
  for (const Tree& tree : testing::SampleTrees(20, 3, &rng)) {
    std::string text = ToCompactTerm(alphabet, Encode(tree));
    std::vector<bool> expected = SelectNodes(rpq.minimal_dfa, tree);
    int64_t expected_matches = 0;
    for (bool b : expected) expected_matches += b ? 1 : 0;
    session.Reset();
    ASSERT_TRUE(session.Feed(text) && session.Finish())
        << session.selector().error();
    EXPECT_EQ(session.matches(), expected_matches);
  }
}

}  // namespace
}  // namespace sst

// Property suite for incremental re-evaluation (engine/incremental.h):
// after any edit, ApplyEdit's results — match count, match events, first
// StreamError, recovered errors, and every chunking-invariant StreamStats
// counter — must be byte-identical to a full fail-fast rescan of the
// edited document by a fresh selector that never checkpoints. The sweep
// crosses random trees x three stream formats x the three execution tiers
// x generated edit kinds x checkpoint intervals {1, 7, 64, 4096}, so edits
// land before, on, after, and straddling checkpoint boundaries, and (with
// kCorruptByte under the recovery policies) inside malformed and
// recovered regions.

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "automata/alphabet.h"
#include "base/rng.h"
#include "dra/stream_error.h"
#include "dra/streaming.h"
#include "engine/incremental.h"
#include "engine/query_plan.h"
#include "query/rpq.h"
#include "test_util.h"
#include "testing/edit_workload.h"
#include "trees/encoding.h"
#include "trees/generators.h"
#include "trees/tree.h"

namespace sst {
namespace {

// Iteration multiplier for the scheduled long-fuzz CI job: SST_FUZZ_ITERS
// scales every sweep (default 1 keeps the suite fast for tier-1 runs).
int FuzzIters() {
  const char* env = std::getenv("SST_FUZZ_ITERS");
  if (env == nullptr) return 1;
  int iters = std::atoi(env);
  return iters > 0 ? iters : 1;
}

// The three rungs of the degradation ladder over Alphabet "abc" (see
// engine_plan_test.cc for the tier verdicts these queries compile to).
struct TierCase {
  const char* name;
  const char* xpath;
  EvaluatorKind kind;
};

constexpr TierCase kTiers[] = {
    {"registerless", "/a//b", EvaluatorKind::kRegisterless},
    {"stackless", "/a/b", EvaluatorKind::kStackless},
    {"stack", "//a/b", EvaluatorKind::kStackBaseline},
};

constexpr StreamFormat kFormats[] = {StreamFormat::kCompactMarkup,
                                     StreamFormat::kXmlLite,
                                     StreamFormat::kCompactTerm};

constexpr int64_t kIntervals[] = {1, 7, 64, 4096};

const char* FormatName(StreamFormat format) {
  switch (format) {
    case StreamFormat::kCompactMarkup:
      return "markup";
    case StreamFormat::kXmlLite:
      return "xml";
    case StreamFormat::kCompactTerm:
      return "term";
  }
  return "?";
}

std::shared_ptr<const QueryPlan> CompileTier(const TierCase& tier,
                                             const Alphabet& alphabet,
                                             StreamFormat format) {
  PlanOptions options;
  options.format = format;
  options.encoding = format == StreamFormat::kCompactTerm
                         ? StreamEncoding::kTerm
                         : StreamEncoding::kMarkup;
  auto plan = QueryPlan::Compile(Rpq::FromXPath(tier.xpath, alphabet),
                                 options);
  EXPECT_EQ(plan->kind(), tier.kind) << tier.xpath;
  EXPECT_TRUE(plan->exact());
  return plan;
}

std::string Serialize(const Alphabet& alphabet, const Tree& tree,
                      StreamFormat format) {
  const EventStream events = Encode(tree);
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

// Verdict-only event log — the same sink shape IncrementalSession
// installs, so oracle and session agree on matches_emitted and pending
// peaks by construction.
class LogSink final : public MatchSink {
 public:
  void OnMatch(const MatchEvent& event) override { events.push_back(event); }
  void OnSpanClose(const MatchEvent&) override {}
  bool wants_spans() const override { return false; }
  std::vector<MatchEvent> events;
};

// Everything a run of a document produces that an edit must reproduce.
struct RunResult {
  std::vector<MatchEvent> events;
  StreamStats stats;
  bool failed = false;
  bool complete = false;
  bool accepting = false;
  StreamError error;
  std::vector<StreamingSelector::RecoveredError> recovered;
};

// The oracle: a fresh plain selector (no checkpoints, no resume) scanning
// the whole document in one Feed.
RunResult FullRescan(const QueryPlan& plan, RecoveryPolicy policy,
                     const StreamLimits& limits, std::string_view doc) {
  auto machine = plan.NewMachine();
  StreamingSelector selector(machine.get(), plan.options().format,
                             &plan.alphabet(), &plan.scanner_tables(),
                             plan.fused(), plan.fused_dra());
  selector.set_recovery_policy(policy);
  selector.set_limits(limits);
  LogSink sink;
  selector.set_match_sink(&sink);
  if (selector.Feed(doc)) selector.Finish();
  RunResult r;
  r.events = std::move(sink.events);
  r.stats = selector.stats();
  r.failed = selector.failed();
  r.complete = selector.document_complete();
  r.accepting = selector.machine_accepting();
  r.error = selector.stream_error();
  r.recovered = selector.recovered_errors();
  return r;
}

RunResult FromSession(const IncrementalSession& session) {
  RunResult r;
  r.events = session.match_events();
  r.stats = session.stats();
  r.failed = session.failed();
  r.complete = session.document_complete();
  r.accepting = session.machine_accepting();
  r.error = session.stream_error();
  r.recovered = session.recovered_errors();
  return r;
}

void ExpectSameError(const StreamError& got, const StreamError& want,
                     const std::string& ctx) {
  EXPECT_EQ(got.code, want.code) << ctx;
  EXPECT_EQ(got.offset, want.offset) << ctx;
  if (got.code == want.code && !got.ok()) {
    EXPECT_EQ(got.depth, want.depth) << ctx;
  }
}

// Full-rescan parity, field by field. chunks_fed is excluded by design:
// it counts Feed calls, and resuming from a checkpoint necessarily feeds
// different chunks than a single-Feed rescan.
void ExpectParity(const RunResult& got, const RunResult& want,
                  const std::string& ctx) {
  EXPECT_EQ(got.events, want.events) << ctx;
  EXPECT_EQ(got.failed, want.failed) << ctx;
  EXPECT_EQ(got.complete, want.complete) << ctx;
  EXPECT_EQ(got.accepting, want.accepting) << ctx;
  ExpectSameError(got.error, want.error, ctx);

  ASSERT_EQ(got.recovered.size(), want.recovered.size()) << ctx;
  for (size_t i = 0; i < got.recovered.size(); ++i) {
    ExpectSameError(got.recovered[i].error, want.recovered[i].error, ctx);
    EXPECT_EQ(got.recovered[i].excise_from, want.recovered[i].excise_from)
        << ctx;
    EXPECT_EQ(got.recovered[i].resume_offset, want.recovered[i].resume_offset)
        << ctx;
    EXPECT_EQ(got.recovered[i].closed_label, want.recovered[i].closed_label)
        << ctx;
  }

  EXPECT_EQ(got.stats.bytes_fed, want.stats.bytes_fed) << ctx;
  EXPECT_EQ(got.stats.events, want.stats.events) << ctx;
  EXPECT_EQ(got.stats.max_depth, want.stats.max_depth) << ctx;
  EXPECT_EQ(got.stats.matches, want.stats.matches) << ctx;
  EXPECT_EQ(got.stats.errors_recovered, want.stats.errors_recovered) << ctx;
  EXPECT_EQ(got.stats.subtrees_skipped, want.stats.subtrees_skipped) << ctx;
  EXPECT_EQ(got.stats.error_offset, want.stats.error_offset) << ctx;
  EXPECT_EQ(got.stats.matches_emitted, want.stats.matches_emitted) << ctx;
  EXPECT_EQ(got.stats.max_stack_depth, want.stats.max_stack_depth) << ctx;
  EXPECT_EQ(got.stats.underflow_closes, want.stats.underflow_closes) << ctx;
}

// The core property loop: scan a document, then apply a chain of edits,
// checking full-rescan parity after the initial scan and after every
// edit. `corrupt_every` > 0 makes every corrupt_every-th edit a
// kCorruptByte injection (malformed region), exercising resumes from and
// convergence across recovered/failed regions.
void RunEditChain(const QueryPlan& plan, std::shared_ptr<const QueryPlan> sp,
                  StreamFormat format, RecoveryPolicy policy,
                  const StreamLimits& limits, std::string_view initial_doc,
                  int64_t interval, int edits, int corrupt_every,
                  uint64_t seed, const std::string& ctx) {
  IncrementalOptions options;
  options.checkpoint_interval = interval;
  options.policy = policy;
  options.limits = limits;
  IncrementalSession session(sp, options);

  std::string doc(initial_doc);
  session.Scan(doc);
  ExpectParity(FromSession(session),
               FullRescan(plan, policy, limits, doc), ctx + " scan");

  EditWorkload workload(&plan.alphabet(), format, seed);
  for (int e = 0; e < edits; ++e) {
    const bool corrupt = corrupt_every > 0 && (e + 1) % corrupt_every == 0;
    const DocEdit edit = corrupt
                             ? workload.Make(EditKind::kCorruptByte, doc)
                             : workload.Next(doc);
    const std::string next = EditWorkload::Apply(doc, edit);
    const std::string edit_ctx =
        ctx + " edit " + std::to_string(e) + " [" +
        std::to_string(edit.offset) + "," +
        std::to_string(edit.offset + edit.old_len) + ")->" +
        std::to_string(edit.new_bytes.size()) + "B";
    session.ApplyEdit(edit.offset, edit.old_len, edit.new_bytes, next);
    ExpectParity(FromSession(session),
                 FullRescan(plan, policy, limits, next), edit_ctx);
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "stopping chain after first divergence: " << edit_ctx;
      return;
    }
    doc = next;
  }
}

// --- Initial-scan parity ---------------------------------------------

// A checkpointing Scan must itself be invisible: same results as a plain
// selector run across formats and tiers, including at interval 1 (a
// checkpoint at every byte boundary the grid hits).
TEST(IncrementalScan, MatchesPlainSelector) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Rng rng(2024);
  const auto trees = testing::SampleTrees(10 * FuzzIters(), alphabet.size(),
                                          &rng);
  for (const TierCase& tier : kTiers) {
    for (StreamFormat format : kFormats) {
      auto plan = CompileTier(tier, alphabet, format);
      for (const Tree& tree : trees) {
        const std::string doc = Serialize(alphabet, tree, format);
        for (int64_t interval : kIntervals) {
          IncrementalOptions options;
          options.checkpoint_interval = interval;
          IncrementalSession session(plan, options);
          session.Scan(doc);
          const std::string ctx = std::string(tier.name) + "/" +
                                  FormatName(format) + " K=" +
                                  std::to_string(interval);
          ExpectParity(FromSession(session),
                       FullRescan(*plan, RecoveryPolicy::kFailFast,
                                  StreamLimits{}, doc),
                       ctx);
        }
      }
    }
  }
}

// Rescanning (Scan called again) resets cleanly, including the checkpoint
// stream: counts reflect only the latest document.
TEST(IncrementalScan, RescanResets) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  auto plan = CompileTier(kTiers[2], alphabet, StreamFormat::kCompactMarkup);
  IncrementalOptions options;
  options.checkpoint_interval = 4;
  IncrementalSession session(plan, options);

  ASSERT_TRUE(session.Scan("a b B a bB A cC A"));
  const int64_t first_matches = session.matches();
  EXPECT_GT(first_matches, 0);
  const size_t first_cps = session.checkpoint_count();

  ASSERT_TRUE(session.Scan("cC"));
  EXPECT_EQ(session.matches(), 0);
  EXPECT_LT(session.checkpoint_count(), first_cps);
  ExpectParity(FromSession(session),
               FullRescan(*plan, RecoveryPolicy::kFailFast, StreamLimits{},
                          "cC"),
               "rescan");
}

// --- Edit parity: the main sweep -------------------------------------

// Well-formed edit chains under fail-fast, across every tier x format x
// interval. 30 trees per configuration (scaled by SST_FUZZ_ITERS).
TEST(IncrementalEdit, WellFormedEditParity) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Rng rng(7);
  const int trees_per_config = 30 * FuzzIters();
  for (const TierCase& tier : kTiers) {
    for (StreamFormat format : kFormats) {
      auto plan = CompileTier(tier, alphabet, format);
      const auto trees =
          testing::SampleTrees(trees_per_config, alphabet.size(), &rng);
      int tree_index = 0;
      for (const Tree& tree : trees) {
        const std::string doc = Serialize(alphabet, tree, format);
        const int64_t interval =
            kIntervals[tree_index % std::size(kIntervals)];
        const std::string ctx = std::string(tier.name) + "/" +
                                FormatName(format) + " tree " +
                                std::to_string(tree_index) + " K=" +
                                std::to_string(interval);
        RunEditChain(*plan, plan, format, RecoveryPolicy::kFailFast,
                     StreamLimits{}, doc, interval, /*edits=*/4,
                     /*corrupt_every=*/0,
                     /*seed=*/1000 + static_cast<uint64_t>(tree_index), ctx);
        ++tree_index;
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

// Corrupting edits under fail-fast: the session must reproduce the fatal
// first error (code + offset + depth), and later edits must resume from a
// document whose previous run failed — including edits that repair the
// corruption so the document becomes clean again.
TEST(IncrementalEdit, FailFastCorruptionParity) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Rng rng(11);
  const int trees_per_config = 10 * FuzzIters();
  for (const TierCase& tier : kTiers) {
    for (StreamFormat format : kFormats) {
      auto plan = CompileTier(tier, alphabet, format);
      const auto trees =
          testing::SampleTrees(trees_per_config, alphabet.size(), &rng);
      int tree_index = 0;
      for (const Tree& tree : trees) {
        const std::string doc = Serialize(alphabet, tree, format);
        const int64_t interval =
            kIntervals[tree_index % std::size(kIntervals)];
        const std::string ctx = std::string(tier.name) + "/" +
                                FormatName(format) + " corrupt tree " +
                                std::to_string(tree_index) + " K=" +
                                std::to_string(interval);
        RunEditChain(*plan, plan, format, RecoveryPolicy::kFailFast,
                     StreamLimits{}, doc, interval, /*edits=*/6,
                     /*corrupt_every=*/2,
                     /*seed=*/2000 + static_cast<uint64_t>(tree_index), ctx);
        ++tree_index;
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

// Corrupting edits under the recovery policies: edits land inside and
// around skipped/recovered regions, and the recovered-error list (with
// its absolute excise/resume offsets) must splice exactly.
TEST(IncrementalEdit, RecoveryPolicyParity) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Rng rng(13);
  const int trees_per_config = 8 * FuzzIters();
  for (RecoveryPolicy policy : {RecoveryPolicy::kSkipMalformedSubtree,
                                RecoveryPolicy::kAutoClose}) {
    for (const TierCase& tier : kTiers) {
      for (StreamFormat format : kFormats) {
        auto plan = CompileTier(tier, alphabet, format);
        const auto trees =
            testing::SampleTrees(trees_per_config, alphabet.size(), &rng);
        int tree_index = 0;
        for (const Tree& tree : trees) {
          const std::string doc = Serialize(alphabet, tree, format);
          const int64_t interval =
              kIntervals[tree_index % std::size(kIntervals)];
          const std::string ctx =
              std::string(tier.name) + "/" + FormatName(format) +
              (policy == RecoveryPolicy::kAutoClose ? " autoclose "
                                                    : " skip ") +
              "tree " + std::to_string(tree_index) + " K=" +
              std::to_string(interval);
          RunEditChain(*plan, plan, format, policy, StreamLimits{}, doc,
                       interval, /*edits=*/6, /*corrupt_every=*/2,
                       /*seed=*/3000 + static_cast<uint64_t>(tree_index),
                       ctx);
          ++tree_index;
          if (::testing::Test::HasFailure()) return;
        }
      }
    }
  }
}

// --- Edit-path observability ------------------------------------------

// A small edit deep inside a large document must take the spliced-suffix
// fast path: convergence soon after the edit, the far suffix untouched,
// bytes_rescanned a small fraction of the document.
TEST(IncrementalEdit, SmallEditSplicesSuffix) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  auto plan = CompileTier(kTiers[1], alphabet, StreamFormat::kCompactMarkup);
  Rng rng(17);
  const Tree tree = RandomTree(80000, alphabet.size(), 0.3, &rng);
  const std::string doc =
      Serialize(alphabet, tree, StreamFormat::kCompactMarkup);
  ASSERT_GT(doc.size(), 16u * 4096u);  // 2 bytes/node: ~160k > 16 intervals

  IncrementalOptions options;
  options.checkpoint_interval = 4096;
  IncrementalSession session(plan, options);
  ASSERT_TRUE(session.Scan(doc));

  EditWorkload workload(&alphabet, StreamFormat::kCompactMarkup, 99);
  std::string cur = doc;
  bool saw_splice = false;
  for (int e = 0; e < 8; ++e) {
    const DocEdit edit = workload.Next(cur);
    const std::string next = EditWorkload::Apply(cur, edit);
    const auto outcome =
        session.ApplyEdit(edit.offset, edit.old_len, edit.new_bytes, next);
    ExpectParity(FromSession(session),
                 FullRescan(*plan, RecoveryPolicy::kFailFast, StreamLimits{},
                            next),
                 "splice edit " + std::to_string(e));
    if (outcome.path == IncrementalSession::EditPath::kSplicedSuffix) {
      saw_splice = true;
      EXPECT_GE(outcome.converged_at, edit.offset);
      EXPECT_LT(outcome.bytes_rescanned,
                static_cast<int64_t>(next.size()) / 2)
          << "spliced edit rescanned most of the document";
      EXPECT_LE(outcome.resumed_from, edit.offset);
    }
    cur = next;
  }
  EXPECT_TRUE(saw_splice)
      << "no edit of a 20k-node document took the fast path";
}

// Thinning: an edit shifts the suffix checkpoints off the grid and its
// rescan records grid-aligned ones, so without thinning the stream gains
// about one checkpoint per edit. Over 8,000 edits with no rescan to the
// end in between, the count stays within 1.25x the grid's cell count of
// the current document, and the results still match a fresh scan. The
// workload's edits grow the document, so the segments lengthen between
// rescans; splitting a long one in the middle keeps the count at 0.9x the
// cells or more at the end. Each tier runs on its own format.
TEST(IncrementalEdit, CheckpointCountTracksTheGrid) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  constexpr int64_t kInterval = 1024;
  constexpr int kEdits = 8000;
  auto cells = [](const std::string& doc) {
    return (static_cast<int64_t>(doc.size()) + kInterval - 1) / kInterval;
  };
  Rng rng(29);
  for (size_t t = 0; t < std::size(kTiers); ++t) {
    const TierCase& tier = kTiers[t];
    const StreamFormat format = kFormats[t];
    auto plan = CompileTier(tier, alphabet, format);
    std::string doc;
    for (int nodes = 4000; doc.size() < 48u * 1024u; nodes *= 2) {
      doc = Serialize(alphabet, RandomTree(nodes, alphabet.size(), 0.3, &rng),
                      format);
    }
    IncrementalOptions options;
    options.checkpoint_interval = kInterval;
    IncrementalSession session(plan, options);
    ASSERT_TRUE(session.Scan(doc));
    const std::string ctx = std::string(tier.name) + "/" + FormatName(format);

    EditWorkload workload(&alphabet, format, 41 + t);
    for (int e = 0; e < kEdits; ++e) {
      const DocEdit edit = workload.Next(doc);
      doc.replace(static_cast<size_t>(edit.offset),
                  static_cast<size_t>(edit.old_len), edit.new_bytes);
      session.ApplyEdit(edit.offset, edit.old_len, edit.new_bytes, doc);
      ASSERT_LE(static_cast<double>(session.checkpoint_count()),
                1.25 * static_cast<double>(cells(doc)))
          << ctx << " after edit " << e;
    }
    EXPECT_GE(static_cast<double>(session.checkpoint_count()),
              0.9 * static_cast<double>(cells(doc)))
        << ctx << ": " << session.checkpoint_count() << " checkpoints for "
        << cells(doc) << " cells";
    ExpectParity(FromSession(session),
                 FullRescan(*plan, RecoveryPolicy::kFailFast, StreamLimits{},
                            doc),
                 ctx + " after " + std::to_string(kEdits) + " edits");
  }
}

// A chain whose first edit deletes most of a checkpoint segment, so the
// splice thins away the converged checkpoint and its segment — and the
// match events it owns — joins the rescanned one; later edits resume
// inside that merged segment and inside the suffix the first edit
// shifted. The document is a root over "bB" leaves each followed by
// twelve spaces; at interval 7 the checkpoint at 14 owns the match at 15,
// and deleting [8, 13) converges at 9, under half an interval past the
// resume point 7. Interval 1 never thins and runs the same chain.
TEST(IncrementalEdit, ChainThroughThinnedSegment) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  std::string doc = "a";
  for (int i = 0; i < 12; ++i) doc += "bB            ";
  doc += "A";
  struct Step {
    int64_t offset;
    int64_t old_len;
    const char* replacement;
  };
  const Step steps[] = {{8, 5, ""}, {9, 0, "  "}, {40, 0, " "}, {30, 3, ""}};
  for (const TierCase& tier : kTiers) {
    auto plan = CompileTier(tier, alphabet, StreamFormat::kCompactMarkup);
    for (int64_t interval : {int64_t{1}, int64_t{7}}) {
      IncrementalOptions options;
      options.checkpoint_interval = interval;
      IncrementalSession session(plan, options);
      ASSERT_TRUE(session.Scan(doc));
      std::string cur = doc;
      for (const Step& step : steps) {
        const std::string ctx = std::string(tier.name) + " K=" +
                                std::to_string(interval) + " edit @" +
                                std::to_string(step.offset);
        cur.replace(static_cast<size_t>(step.offset),
                    static_cast<size_t>(step.old_len), step.replacement);
        const auto outcome = session.ApplyEdit(step.offset, step.old_len,
                                               step.replacement, cur);
        EXPECT_EQ(outcome.path, IncrementalSession::EditPath::kSplicedSuffix)
            << ctx;
        if (interval == 7 && &step == &steps[0]) {
          EXPECT_EQ(outcome.checkpoints_dropped, 1) << ctx << " thinning";
        }
        ExpectParity(FromSession(session),
                     FullRescan(*plan, RecoveryPolicy::kFailFast,
                                StreamLimits{}, cur),
                     ctx);
      }
    }
  }
}

// Finite limits disable suffix splicing (prefix-dependent guards) but not
// checkpoint resume: edits still answer correctly via scan-to-end, and
// limit-triggered errors land at the same offsets as a full rescan.
TEST(IncrementalEdit, FiniteLimitsScanToEnd) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Rng rng(19);
  StreamLimits limits;
  limits.max_depth = 6;
  for (const TierCase& tier : kTiers) {
    auto plan = CompileTier(tier, alphabet, StreamFormat::kCompactMarkup);
    const auto trees = testing::SampleTrees(6 * FuzzIters(), alphabet.size(),
                                            &rng);
    int tree_index = 0;
    for (const Tree& tree : trees) {
      const std::string doc =
          Serialize(alphabet, tree, StreamFormat::kCompactMarkup);
      IncrementalOptions options;
      options.checkpoint_interval = 7;
      options.limits = limits;
      IncrementalSession session(plan, options);
      session.Scan(doc);
      EditWorkload workload(&alphabet, StreamFormat::kCompactMarkup,
                            500 + static_cast<uint64_t>(tree_index));
      std::string cur = doc;
      for (int e = 0; e < 3; ++e) {
        const DocEdit edit = workload.Next(cur);
        const std::string next = EditWorkload::Apply(cur, edit);
        const auto outcome = session.ApplyEdit(edit.offset, edit.old_len,
                                               edit.new_bytes, next);
        EXPECT_NE(outcome.path,
                  IncrementalSession::EditPath::kSplicedSuffix)
            << "splice must be disabled under finite limits";
        ExpectParity(
            FromSession(session),
            FullRescan(*plan, RecoveryPolicy::kFailFast, limits, next),
            std::string(tier.name) + " limits tree " +
                std::to_string(tree_index) + " edit " + std::to_string(e));
        cur = next;
      }
      ++tree_index;
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// Edge-position edits: prepending whitespace at offset 0 (before every
// checkpoint — forces the origin-checkpoint resume) and appending
// whitespace at EOF (after every checkpoint).
TEST(IncrementalEdit, DocumentEdgeEdits) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Rng rng(23);
  for (const TierCase& tier : kTiers) {
    for (StreamFormat format : kFormats) {
      auto plan = CompileTier(tier, alphabet, format);
      const Tree tree = RandomTree(30, alphabet.size(), 0.5, &rng);
      const std::string doc = Serialize(alphabet, tree, format);
      for (int64_t interval : kIntervals) {
        IncrementalOptions options;
        options.checkpoint_interval = interval;
        IncrementalSession session(plan, options);
        ASSERT_TRUE(session.Scan(doc));
        const std::string ctx = std::string(tier.name) + "/" +
                                FormatName(format) + " K=" +
                                std::to_string(interval);

        // Prepend.
        std::string cur = "  " + doc;
        session.ApplyEdit(0, 0, "  ", cur);
        ExpectParity(FromSession(session),
                     FullRescan(*plan, RecoveryPolicy::kFailFast,
                                StreamLimits{}, cur),
                     ctx + " prepend");

        // Append.
        const std::string next = cur + "\n";
        session.ApplyEdit(static_cast<int64_t>(cur.size()), 0, "\n", next);
        ExpectParity(FromSession(session),
                     FullRescan(*plan, RecoveryPolicy::kFailFast,
                                StreamLimits{}, next),
                     ctx + " append");

        // Delete the whole document, then rebuild it with one edit.
        session.ApplyEdit(0, static_cast<int64_t>(next.size()), "", "");
        ExpectParity(FromSession(session),
                     FullRescan(*plan, RecoveryPolicy::kFailFast,
                                StreamLimits{}, ""),
                     ctx + " clear");
        session.ApplyEdit(0, 0, doc, doc);
        ExpectParity(FromSession(session),
                     FullRescan(*plan, RecoveryPolicy::kFailFast,
                                StreamLimits{}, doc),
                     ctx + " rebuild");
      }
    }
  }
}

// An edit that exactly replaces the byte range between two checkpoints
// (straddling both boundaries) and one wholly inside a single checkpoint
// segment, deterministic rather than workload-generated.
TEST(IncrementalEdit, EditStraddlingCheckpointBoundary) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  auto plan = CompileTier(kTiers[2], alphabet, StreamFormat::kCompactMarkup);
  // 26 two-byte elements under one root: "a bB bB ... A" with checkpoints
  // every 8 bytes landing mid-element and between elements.
  std::string doc = "a";
  for (int i = 0; i < 26; ++i) doc += " bB";
  doc += " A";

  IncrementalOptions options;
  options.checkpoint_interval = 8;
  IncrementalSession session(plan, options);
  ASSERT_TRUE(session.Scan(doc));
  ASSERT_GT(session.checkpoint_count(), 4u);

  struct Case {
    int64_t offset;
    int64_t old_len;
    const char* replacement;
  };
  // Interval 8: checkpoints at 8, 16, 24, ... The first case replaces
  // [6, 18) — across two boundaries; the second edits inside [16, 24).
  const Case cases[] = {{6, 12, " cC cC"}, {17, 2, "cCbB"}};
  std::string cur = doc;
  for (const Case& c : cases) {
    const std::string next =
        cur.substr(0, static_cast<size_t>(c.offset)) + c.replacement +
        cur.substr(static_cast<size_t>(c.offset + c.old_len));
    session.ApplyEdit(c.offset, c.old_len, c.replacement, next);
    ExpectParity(FromSession(session),
                 FullRescan(*plan, RecoveryPolicy::kFailFast, StreamLimits{},
                            next),
                 "straddle @" + std::to_string(c.offset));
    cur = next;
  }
}

// An edit inside a token the scan has begun but not finished — an XML-lite
// tag name, a term label still waiting for its '{' — leaves the live state
// just past the edit equal to the recorded one in everything but the open
// partial token. Converging there would splice the old suffix onto a
// different token.
TEST(IncrementalEdit, EditInsideAnOpenTokenDoesNotConverge) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  struct Case {
    StreamFormat format;
    const char* doc;
    int64_t offset;  // of the one byte replaced by 'c'
  };
  const Case cases[] = {
      {StreamFormat::kXmlLite, "<a><b></b><c></c></a>", 4},
      {StreamFormat::kCompactTerm, "a{b{}c{}}", 2},
  };
  for (const TierCase& tier : kTiers) {
    for (const Case& c : cases) {
      auto plan = CompileTier(tier, alphabet, c.format);
      IncrementalOptions options;
      options.checkpoint_interval = 1;
      IncrementalSession session(plan, options);
      const std::string doc = c.doc;
      ASSERT_TRUE(session.Scan(doc));
      std::string next = doc;
      next[static_cast<size_t>(c.offset)] = 'c';
      session.ApplyEdit(c.offset, 1, "c", next);
      ExpectParity(FromSession(session),
                   FullRescan(*plan, RecoveryPolicy::kFailFast,
                              StreamLimits{}, next),
                   std::string(tier.name) + "/" + FormatName(c.format));
    }
  }
}

// A compact-markup document of `children` `b` children under the root,
// each a junk byte then `pairs` "cC" pairs: under kSkipMalformedSubtree
// every junk byte opens a skip that spans the pairs, and the child's `B`
// resyncs it. `tail` clean "cC" children follow.
std::string SkipDoc(int children, int pairs, int tail) {
  std::string doc = "a";
  for (int i = 0; i < children; ++i) {
    doc += "b#";
    for (int k = 0; k < pairs; ++k) doc += "cC";
    doc += "B";
  }
  for (int k = 0; k < tail; ++k) doc += "cC";
  return doc + "A";
}

// Convergence inside an open skip. The junk byte of SkipDoc's one child
// opens a skip that spans several checkpoints; each edit, before the first
// of them, moves the junk (a different byte at a different offset). The
// rescan converges while the skip is still open, so the skip's entry is
// the live run's and its resync lies in the spliced suffix.
TEST(IncrementalEdit, ConvergenceInsideAnOpenSkip) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  const DocEdit edits[] = {{2, 1, " !"}, {2, 2, "%"}, {2, 1, "  ?"}};
  for (const TierCase& tier : kTiers) {
    auto plan = CompileTier(tier, alphabet, StreamFormat::kCompactMarkup);
    IncrementalOptions options;
    options.checkpoint_interval = 64;
    options.policy = RecoveryPolicy::kSkipMalformedSubtree;
    IncrementalSession session(plan, options);
    std::string doc = SkipDoc(/*children=*/1, /*pairs=*/200, /*tail=*/200);
    ASSERT_TRUE(session.Scan(doc));
    for (const DocEdit& edit : edits) {
      const std::string ctx =
          std::string(tier.name) + " edit to " + edit.new_bytes;
      doc = EditWorkload::Apply(doc, edit);
      const auto outcome =
          session.ApplyEdit(edit.offset, edit.old_len, edit.new_bytes, doc);
      ExpectParity(FromSession(session),
                   FullRescan(*plan, options.policy, StreamLimits{}, doc),
                   ctx);
      EXPECT_EQ(outcome.path, IncrementalSession::EditPath::kSplicedSuffix)
          << ctx;
      ASSERT_EQ(session.recovered_errors().size(), 1u) << ctx;
      EXPECT_LT(outcome.converged_at,
                session.recovered_errors()[0].resume_offset)
          << ctx;
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// --- Parked suffix ------------------------------------------------------
//
// Under fail-fast a corrupting edit fails the live run, and the
// checkpoints its rescan never reached are parked; the edit that repairs
// the corruption converges on one of them instead of rescanning to the
// end. Every case runs on each tier x format at intervals 1, 7 and 64 and
// checks full-rescan parity after every edit.

constexpr int64_t kParkedIntervals[] = {1, 7, 64};

// One session over an edited document. Corruptions insert a '?' (no token
// starts with it, so the run fails right there); their current offsets
// are tracked so a later edit can repair each one exactly.
class ParkedChain {
 public:
  ParkedChain(std::shared_ptr<const QueryPlan> plan, StreamFormat format,
              int64_t interval, std::string doc, uint64_t seed,
              std::string ctx,
              RecoveryPolicy policy = RecoveryPolicy::kFailFast)
      : plan_(plan),
        policy_(policy),
        session_(plan, Options(interval, policy)),
        workload_(&plan->alphabet(), format, seed),
        interval_(interval),
        doc_(std::move(doc)),
        ctx_(std::move(ctx)) {
    session_.Scan(doc_);
  }

  IncrementalSession& session() { return session_; }
  const std::string& doc() const { return doc_; }
  int64_t interval() const { return interval_; }
  int64_t size() const { return static_cast<int64_t>(doc_.size()); }
  // Offset of the i-th corruption still in place, in insertion order.
  int64_t corruption(size_t i) const { return corruptions_[i]; }

  // A generated edit of `kind` whose offset lies in [lo, hi).
  DocEdit Find(EditKind kind, int64_t lo, int64_t hi) {
    for (int tries = 0; tries < 1000; ++tries) {
      DocEdit edit = workload_.Make(kind, doc_);
      if (edit.offset >= lo && edit.offset < hi) return edit;
    }
    ADD_FAILURE() << ctx_ << ": no " << EditKindName(kind) << " edit in ["
                  << lo << ", " << hi << ")";
    return {};
  }

  IncrementalSession::EditOutcome Apply(const DocEdit& edit,
                                        const std::string& what) {
    const int64_t delta =
        static_cast<int64_t>(edit.new_bytes.size()) - edit.old_len;
    for (int64_t& at : corruptions_) {
      if (at >= edit.offset + edit.old_len) at += delta;
    }
    doc_ = EditWorkload::Apply(doc_, edit);
    const auto outcome = session_.ApplyEdit(edit.offset, edit.old_len,
                                            edit.new_bytes, doc_);
    ExpectParity(FromSession(session_),
                 FullRescan(*plan_, policy_, StreamLimits{}, doc_),
                 ctx_ + " " + what);
    return outcome;
  }

  // Inserts a corruption at an offset in [lo, hi); the run fails there.
  IncrementalSession::EditOutcome Corrupt(int64_t lo, int64_t hi) {
    return CorruptAt(Find(EditKind::kCorruptByte, lo, hi).offset);
  }
  IncrementalSession::EditOutcome CorruptAt(int64_t at) {
    const auto outcome = Apply({at, 0, "?"}, "corrupt @" + std::to_string(at));
    corruptions_.push_back(at);
    EXPECT_TRUE(session_.failed()) << ctx_;
    return outcome;
  }

  // Removes the i-th corruption still in place. An exact repair of every
  // corruption after no other edit leaves the scanned document.
  IncrementalSession::EditOutcome Repair(size_t i) {
    const int64_t at = corruptions_[i];
    corruptions_.erase(corruptions_.begin() + static_cast<std::ptrdiff_t>(i));
    return Apply({at, 1, ""}, "repair @" + std::to_string(at));
  }

  void ExpectSpliced(const IncrementalSession::EditOutcome& outcome,
                     const std::string& what) const {
    EXPECT_EQ(outcome.path, IncrementalSession::EditPath::kSplicedSuffix)
        << ctx_ << " " << what;
  }

 private:
  static IncrementalOptions Options(int64_t interval, RecoveryPolicy policy) {
    IncrementalOptions options;
    options.checkpoint_interval = interval;
    options.policy = policy;
    return options;
  }

  std::shared_ptr<const QueryPlan> plan_;
  RecoveryPolicy policy_;
  IncrementalSession session_;
  EditWorkload workload_;
  int64_t interval_;
  std::string doc_;
  std::string ctx_;
  std::vector<int64_t> corruptions_;
};

// Runs `body` on a fresh ParkedChain for every tier x format x parked
// interval x document. The documents hold at least eight 64-byte
// intervals and are bushy enough (depth bias at most 0.5) that every
// stretch of a hundred bytes has a place to insert a subtree.
template <typename Body>
void ForEachParkedChain(uint64_t seed, Body body) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Rng rng(seed);
  const int docs = 2 * FuzzIters();
  for (const TierCase& tier : kTiers) {
    for (StreamFormat format : kFormats) {
      auto plan = CompileTier(tier, alphabet, format);
      for (int d = 0; d < docs; ++d) {
        std::string doc;
        while (doc.size() < 512) {
          doc = Serialize(alphabet,
                          RandomTree(300, alphabet.size(),
                                     0.5 * rng.NextDouble(), &rng),
                          format);
        }
        for (int64_t interval : kParkedIntervals) {
          const std::string ctx = std::string(tier.name) + "/" +
                                  FormatName(format) + " doc " +
                                  std::to_string(d) + " K=" +
                                  std::to_string(interval);
          ParkedChain chain(plan, format, interval, doc,
                            seed + static_cast<uint64_t>(d), ctx);
          body(chain);
          if (::testing::Test::HasFailure()) return;
        }
      }
    }
  }
}

// The repair of a corruption converges on the first parked checkpoint
// past it: spliced, rescanning at most two intervals.
TEST(ParkedSuffix, RepairConvergesWithinAnInterval) {
  ForEachParkedChain(4100, [](ParkedChain& chain) {
    const auto corrupt = chain.Corrupt(0, chain.size() / 2);
    EXPECT_EQ(corrupt.path, IncrementalSession::EditPath::kScannedToEnd);
    const auto repair = chain.Repair(0);
    chain.ExpectSpliced(repair, "repair");
    EXPECT_LE(repair.bytes_rescanned, 2 * chain.interval()) << "repair";
  });
}

// An edit before the corruption splices on a live checkpoint or fails at
// the corruption again; either way it shifts the parked suffix, whose
// counters stay those of the run that recorded it, and the repair still
// converges on it.
TEST(ParkedSuffix, EditBeforeTheCorruption) {
  ForEachParkedChain(4200, [](ParkedChain& chain) {
    chain.Corrupt(chain.size() / 4, chain.size() / 2);
    const DocEdit before =
        chain.Find(EditKind::kInsertSubtree, 0, chain.corruption(0));
    chain.Apply(before, "insert before");
    chain.ExpectSpliced(chain.Repair(0), "repair");
  });
}

// An edit past the corruption changes the suffix of every parked
// checkpoint before it: those are dropped, and the repair converges on
// one past the edit, never on one whose recorded suffix is stale.
TEST(ParkedSuffix, EditInsideTheParkedRegion) {
  ForEachParkedChain(4300, [](ParkedChain& chain) {
    chain.Corrupt(0, chain.size() / 2);
    const int64_t k = chain.interval();
    const DocEdit inside = chain.Find(EditKind::kInsertSubtree,
                                      chain.corruption(0) + 2 * k + 2,
                                      chain.size() - 2 * k);
    const auto outcome = chain.Apply(inside, "insert inside");
    EXPECT_EQ(outcome.path, IncrementalSession::EditPath::kScannedToEnd);
    EXPECT_TRUE(chain.session().failed());
    const auto repair = chain.Repair(0);
    chain.ExpectSpliced(repair, "repair");
    // Past the inserted subtree, in the repaired document.
    EXPECT_GE(repair.converged_at,
              inside.offset + static_cast<int64_t>(inside.new_bytes.size()) -
                  1)
        << "repair";
  });
}

// Two corruptions in the first half, the second before or after the first
// as the workload draws it, repaired early one first or late one first:
// the parked suffix past the later one survives every failing rescan in
// between, and the last repair converges on it.
TEST(ParkedSuffix, TwoCorruptionsRepairedInEitherOrder) {
  for (bool early_first : {true, false}) {
    ForEachParkedChain(early_first ? 4400 : 4410, [&](ParkedChain& chain) {
      chain.Corrupt(0, chain.size() / 2);
      chain.Corrupt(0, chain.size() / 2);
      const size_t early = chain.corruption(0) < chain.corruption(1) ? 0 : 1;
      chain.Repair(early_first ? early : 1 - early);
      chain.ExpectSpliced(chain.Repair(0), "last repair");
    });
  }
}

// Under the skip policy the parked run's segments hold recovered errors,
// some of them skips open across a checkpoint. A '?' before the root is
// fatal even so, and parks every checkpoint; its repair converges on the
// first of them, and the errors are the parked run's.
TEST(ParkedSuffix, RepairUnderTheSkipPolicy) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  for (const TierCase& tier : kTiers) {
    auto plan = CompileTier(tier, alphabet, StreamFormat::kCompactMarkup);
    for (int64_t interval : kParkedIntervals) {
      ParkedChain chain(plan, StreamFormat::kCompactMarkup, interval,
                        SkipDoc(/*children=*/20, /*pairs=*/40, /*tail=*/0),
                        /*seed=*/4600,
                        std::string(tier.name) + " K=" +
                            std::to_string(interval),
                        RecoveryPolicy::kSkipMalformedSubtree);
      chain.CorruptAt(0);
      chain.ExpectSpliced(chain.Repair(0), "repair");
      EXPECT_EQ(chain.session().recovered_errors().size(), 20u);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// Scan while a suffix is parked releases it; the session then answers
// further edits from the new stream. A session destroyed while parked
// releases nothing twice (run under ASan).
TEST(ParkedSuffix, ScanAndDestructionWhileParked) {
  ForEachParkedChain(4500, [](ParkedChain& chain) {
    chain.Corrupt(0, chain.size() / 2);
    chain.session().Scan(chain.doc());
    ExpectParity(FromSession(chain.session()),
                 FullRescan(chain.session().plan(), RecoveryPolicy::kFailFast,
                            StreamLimits{}, chain.doc()),
                 "scan while parked");
    chain.Repair(0);
    chain.Corrupt(0, chain.size() / 2);
    for (int e = 0; e < 3; ++e) {
      chain.Apply(chain.Find(EditKind::kInsertSubtree, 0, chain.size()),
                  "edit " + std::to_string(e));
    }
    chain.Corrupt(0, chain.size());
  });
}

}  // namespace
}  // namespace sst

#include "engine/multi_query.h"

#include <unordered_map>
#include <utility>

#include "base/check.h"

namespace sst {

std::shared_ptr<const MultiQueryPlan> MultiQueryPlan::Compile(
    const std::vector<BatchQuery>& queries, const Alphabet& alphabet,
    const MultiQueryOptions& options, PlanCache* cache) {
  SST_CHECK_MSG(!queries.empty(), "a batch needs at least one query");
  // The per-query plans come from the PlanCache (the caller's, so batch
  // compilation shares work with single-query serving; a private one
  // otherwise): dedup below reuses its canonical key, so the batch sees
  // through whitespace and textual variants.
  PlanCache local_cache;
  PlanCache& plans = cache != nullptr ? *cache : local_cache;

  auto plan = std::shared_ptr<MultiQueryPlan>(new MultiQueryPlan());
  plan->options_ = options;
  plan->alphabet_ = alphabet;
  plan->scanner_tables_ =
      ScannerTables::Build(options.plan.format, alphabet);

  std::unordered_map<std::string, int> slot_index;
  plan->slot_of_.reserve(queries.size());
  for (const BatchQuery& query : queries) {
    std::string key = PlanCache::CanonicalKey(query.syntax, query.text,
                                              alphabet, options.plan);
    auto [it, inserted] =
        slot_index.emplace(std::move(key), plan->num_slots());
    if (inserted) {
      plan->slot_plans_.push_back(plans.GetOrCompile(
          query.syntax, query.text, alphabet, options.plan));
    }
    plan->slot_of_.push_back(it->second);
  }

  // Member order: registerless slots (the product's mask bits), then
  // slots with a fused DRA, then every other slot (generic side-cars).
  std::vector<int> dra_slot;
  for (int slot = 0; slot < plan->num_slots(); ++slot) {
    const QueryPlan& slot_plan = *plan->slot_plans_[static_cast<size_t>(slot)];
    plan->exact_ = plan->exact_ && slot_plan.exact();
    if (slot_plan.tag_dfa() != nullptr) {
      plan->member_slot_.push_back(slot);
      plan->components_.push_back(slot_plan.tag_dfa());
    } else if (slot_plan.fused_dra() != nullptr) {
      dra_slot.push_back(slot);
      plan->mixed_dras_.push_back(slot_plan.fused_dra());
    } else {
      plan->machine_slot_.push_back(slot);
    }
  }
  plan->member_slot_.insert(plan->member_slot_.end(), dra_slot.begin(),
                            dra_slot.end());
  plan->member_slot_.insert(plan->member_slot_.end(),
                            plan->machine_slot_.begin(),
                            plan->machine_slot_.end());

  if (plan->components_.empty()) {
    plan->eager_ = EmptyTagDfaProduct(alphabet.size());
  } else {
    plan->eager_ =
        BuildTagDfaProduct(plan->components_, options.eager_state_cap);
    if (!plan->eager_.has_value()) {
      plan->lazy_ = std::make_unique<LazyTagDfaProduct>(
          plan->components_, options.lazy_state_cap);
    }
  }
  if (plan->components_.size() < plan->slot_plans_.size()) {
    plan->tier_ = MultiTier::kMixed;
  } else if (plan->eager_.has_value()) {
    plan->tier_ = MultiTier::kFusedProduct;
    if (options.plan.format == StreamFormat::kCompactMarkup &&
        alphabet.CompactLabels()) {
      plan->eager_fused_ =
          std::make_unique<ByteTagDfaRunner>(plan->eager_->dfa, alphabet);
    }
  } else {
    plan->tier_ = MultiTier::kLazyProduct;
  }
  return plan;
}

std::vector<int64_t> MultiQueryPlan::ExpandCounts(
    const std::vector<int64_t>& slot_counts) const {
  SST_CHECK(static_cast<int>(slot_counts.size()) == num_slots());
  std::vector<int64_t> counts(slot_of_.size());
  for (size_t i = 0; i < slot_of_.size(); ++i) {
    counts[i] = slot_counts[static_cast<size_t>(slot_of_[i])];
  }
  return counts;
}

std::vector<int64_t> MultiQueryPlan::MemberCountsToSlots(
    const std::vector<int64_t>& member_counts) const {
  SST_CHECK(member_counts.size() == member_slot_.size());
  std::vector<int64_t> slot_counts(member_slot_.size(), 0);
  for (size_t i = 0; i < member_slot_.size(); ++i) {
    slot_counts[static_cast<size_t>(member_slot_[i])] = member_counts[i];
  }
  return slot_counts;
}

std::vector<std::vector<int32_t>> MultiQueryPlan::MemberQueryIds() const {
  std::vector<std::vector<int32_t>> by_slot(
      static_cast<size_t>(num_slots()));
  for (size_t i = 0; i < slot_of_.size(); ++i) {
    by_slot[static_cast<size_t>(slot_of_[i])].push_back(
        static_cast<int32_t>(i));
  }
  std::vector<std::vector<int32_t>> by_member;
  by_member.reserve(by_slot.size());
  for (int slot : member_slot_) {
    by_member.push_back(std::move(by_slot[static_cast<size_t>(slot)]));
  }
  return by_member;
}

std::vector<std::unique_ptr<StreamMachine>> MultiQueryPlan::NewSideCars()
    const {
  std::vector<std::unique_ptr<StreamMachine>> machines;
  machines.reserve(machine_slot_.size());
  for (int slot : machine_slot_) {
    machines.push_back(slot_plans_[static_cast<size_t>(slot)]->NewMachine());
    SST_CHECK_MSG(machines.back() != nullptr,
                  "BatchSession requires an exact plan (plan->exact())");
  }
  return machines;
}

MultiQueryPlan::Stats MultiQueryPlan::stats() const {
  Stats stats;
  stats.num_queries = num_queries();
  stats.num_slots = num_slots();
  stats.tier = tier_;
  stats.fused_byte_table = eager_fused_ != nullptr;
  stats.eager_states = eager_ ? eager_->dfa.num_states : 0;
  stats.lazy_states = lazy_ ? lazy_->num_states() : 0;
  stats.lazy_overflowed = lazy_ ? lazy_->overflowed() : false;
  stats.stackless_members = static_cast<int>(mixed_dras_.size());
  stats.machine_members = static_cast<int>(machine_slot_.size());
  return stats;
}

// --- BatchSession --------------------------------------------------------

BatchSession::BatchSession(std::shared_ptr<const MultiQueryPlan> plan)
    : plan_(std::move(plan)),
      runner_(plan_->options().plan.format, &plan_->alphabet(),
              &plan_->scanner_tables(), plan_->eager(), plan_->eager_fused(),
              plan_->lazy(), plan_->mixed_dras(), plan_->NewSideCars()) {}

bool BatchSession::Feed(std::string_view chunk) {
  return runner_.Feed(chunk);
}

bool BatchSession::Finish() { return runner_.Finish(); }

void BatchSession::Reset() { runner_.Reset(); }

void BatchSession::set_limits(const StreamLimits& limits) {
  runner_.selector().set_limits(limits);
}

void BatchSession::set_recovery_policy(RecoveryPolicy policy) {
  runner_.selector().set_recovery_policy(policy);
}

void BatchSession::set_match_sink(MatchSink* sink) {
  if (sink == nullptr) {
    runner_.selector().set_match_sink(nullptr);
    return;
  }
  fan_out_ = MatchFanOutSink(sink, plan_->MemberQueryIds());
  runner_.selector().set_match_sink(&fan_out_);
}

std::vector<int64_t> BatchSession::query_matches() const {
  return plan_->ExpandCounts(
      plan_->MemberCountsToSlots(runner_.query_matches()));
}

bool BatchSession::failed() const { return runner_.failed(); }

const StreamError& BatchSession::stream_error() const {
  return runner_.stream_error();
}

MultiTier BatchSession::active_tier() const { return runner_.active_tier(); }

bool BatchSession::one_scan_eligible() const {
  return runner_.one_scan_eligible();
}

std::vector<int64_t> BatchSession::CountSelections(
    std::string_view bytes) const {
  return plan_->ExpandCounts(
      plan_->MemberCountsToSlots(runner_.CountSelections(bytes)));
}

// --- BatchSessionPool ----------------------------------------------------

BatchSessionPool::BatchSessionPool(std::shared_ptr<const MultiQueryPlan> plan,
                                   size_t max_idle)
    : plan_(std::move(plan)), max_idle_(max_idle) {}

std::unique_ptr<BatchSession> BatchSessionPool::Acquire() {
  std::unique_ptr<BatchSession> session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!idle_.empty()) {
      session = std::move(idle_.back());
      idle_.pop_back();
      ++stats_.reused;
    } else {
      ++stats_.created;
    }
    ++stats_.outstanding;
    if (stats_.outstanding > stats_.peak_outstanding) {
      stats_.peak_outstanding = stats_.outstanding;
    }
  }
  if (session == nullptr) return std::make_unique<BatchSession>(plan_);
  session->Reset();
  return session;
}

void BatchSessionPool::Release(std::unique_ptr<BatchSession> session) {
  if (session == nullptr) return;
  SST_CHECK(session->plan_ptr() == plan_);
  std::lock_guard<std::mutex> lock(mu_);
  --stats_.outstanding;
  if (idle_.size() < max_idle_) {
    idle_.push_back(std::move(session));
  } else {
    ++stats_.destroyed;
  }
}

SessionPool::Stats BatchSessionPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  SessionPool::Stats snapshot = stats_;
  snapshot.idle = static_cast<int64_t>(idle_.size());
  return snapshot;
}

size_t BatchSessionPool::idle() const {
  std::lock_guard<std::mutex> lock(mu_);
  return idle_.size();
}

}  // namespace sst

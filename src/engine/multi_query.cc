#include "engine/multi_query.h"

#include <array>
#include <unordered_map>
#include <utility>

#include "base/byte_scan.h"
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
  std::vector<int> member_slot;
  std::vector<int> dra_slot;
  for (int slot = 0; slot < plan->num_slots(); ++slot) {
    const QueryPlan& slot_plan = *plan->slot_plans_[static_cast<size_t>(slot)];
    plan->exact_ = plan->exact_ && slot_plan.exact();
    if (slot_plan.tag_dfa() != nullptr) {
      member_slot.push_back(slot);
      plan->components_.push_back(slot_plan.tag_dfa());
    } else if (slot_plan.fused_dra() != nullptr) {
      dra_slot.push_back(slot);
      plan->mixed_dras_.push_back(slot_plan.fused_dra());
    } else {
      plan->machine_slot_.push_back(slot);
    }
  }
  member_slot.insert(member_slot.end(), dra_slot.begin(), dra_slot.end());
  member_slot.insert(member_slot.end(), plan->machine_slot_.begin(),
                     plan->machine_slot_.end());
  std::vector<std::vector<int32_t>> slot_queries(plan->slot_plans_.size());
  for (size_t i = 0; i < plan->slot_of_.size(); ++i) {
    slot_queries[static_cast<size_t>(plan->slot_of_[i])].push_back(
        static_cast<int32_t>(i));
  }
  for (int slot : member_slot) {
    plan->member_queries_.push_back(
        std::move(slot_queries[static_cast<size_t>(slot)]));
  }
  // The fused byte table and the one-scan walk key the automata by raw
  // letter bytes, which name tags only in compact markup with single-letter
  // labels.
  const bool letter_bytes =
      options.plan.format == StreamFormat::kCompactMarkup &&
      alphabet.CompactLabels();
  plan->one_scan_eligible_ = letter_bytes && plan->machine_slot_.empty();

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
    // The table's walk counts through one mask word per state, so only
    // narrow (at most 64-query) products get one.
    if (letter_bytes && plan->eager_->narrow) {
      plan->eager_fused_ =
          std::make_unique<ByteTagDfaRunner>(plan->eager_->dfa, alphabet);
    }
  } else {
    plan->tier_ = MultiTier::kLazyProduct;
  }
  return plan;
}

std::vector<int64_t> MultiQueryPlan::QueryCounts(
    const std::vector<int64_t>& member_counts) const {
  SST_CHECK(member_counts.size() == member_queries_.size());
  std::vector<int64_t> counts(slot_of_.size());
  for (size_t m = 0; m < member_queries_.size(); ++m) {
    for (int32_t query : member_queries_[m]) {
      counts[static_cast<size_t>(query)] = member_counts[m];
    }
  }
  return counts;
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

template <typename T>
void MultiQueryPlan::CountSelectionsFused(const T* table,
                                          std::string_view bytes,
                                          int64_t* counts) const {
  const uint64_t* mask_words = eager_->mask_words.data();
  int state = eager_fused_->initial_state();
  // Structural-index walk: the product table's whitespace rows self-loop
  // and never count (checked when the table is built), so the stage-1
  // scan drops every text byte before the table walk.
  ForEachStructural(bytes.data(), bytes.size(), [&](size_t i) {
    const unsigned char byte = static_cast<unsigned char>(bytes[i]);
    state = table[static_cast<size_t>(state) * 256 + byte];
    if (byte >= 'a' && byte <= 'z') {
      uint64_t mask = mask_words[state];
      for (; mask != 0; mask &= mask - 1) {
#if defined(__GNUC__) || defined(__clang__)
        ++counts[__builtin_ctzll(mask)];
#else
        uint64_t low = mask & (~mask + 1);
        int bit = 0;
        while ((low >> bit) != 1) ++bit;
        ++counts[bit];
#endif
      }
    }
  });
}

template <typename Stepper>
void MultiQueryPlan::CountSelectionsWalk(Stepper& stepper,
                                         std::string_view bytes) const {
  const std::array<Symbol, 256>& byte_symbol = scanner_tables_.byte_symbol;
  // The product and every DRA side-car step only on tag letters, so
  // whitespace is identity on all of them at once and the structural index
  // is sound unconditionally (including across a lazy cursor's mid-scan
  // wide-mode demotion: the latched state rides along through every gap).
  ForEachStructural(bytes.data(), bytes.size(), [&](size_t i) {
    unsigned char byte = static_cast<unsigned char>(bytes[i]);
    if (byte >= 'a' && byte <= 'z') {
      Symbol s = byte_symbol[byte];
      // Unknown lowercase letters self-loop but still sample acceptance
      // (ByteTagDfaRunner parity).
      if (s >= 0) {
        stepper.Step(true, s);
      } else {
        stepper.Resample();
      }
    } else if (byte >= 'A' && byte <= 'Z') {
      Symbol s = byte_symbol[byte];
      if (s >= 0) stepper.Step(false, s);
    }
    // All other structural bytes self-loop and never count.
  });
}

std::vector<int64_t> MultiQueryPlan::CountSelections(
    std::string_view bytes) const {
  SST_CHECK_MSG(one_scan_eligible_,
                "one-scan counting requires compact markup, single-letter "
                "labels and no generic side-car");
  std::vector<int64_t> counts(member_queries_.size(), 0);  // member order
  // The byte table exists only for narrow kFusedProduct batches.
  if (eager_fused_ != nullptr) {
    if (eager_fused_->uses_compact_table()) {
      CountSelectionsFused(eager_fused_->table16(), bytes, counts.data());
    } else {
      CountSelectionsFused(eager_fused_->table32(), bytes, counts.data());
    }
    return QueryCounts(counts);
  }
  // Everything else (a mixed batch, the lazy product, an eager product
  // wider than 64 queries) walks the automata directly over the structural
  // index, on private copies of the steppers the streaming machine uses.
  std::vector<DraConfig> configs(mixed_dras_.size());
  DraSideCars cars{mixed_dras_.data(), configs.data(),
                   counts.data() + (counts.size() - mixed_dras_.size()),
                   mixed_dras_.size()};
  if (eager_) {
    std::vector<int64_t> hits(static_cast<size_t>(eager_->rows.num_states()),
                              0);
    ProductStepper stepper(&*eager_, counts.data(), hits.data(), cars);
    CountSelectionsWalk(stepper, bytes);
    stepper.Fold();
  } else {
    LazyStepper stepper(lazy_.get(), counts.data(), cars);
    CountSelectionsWalk(stepper, bytes);
  }
  return QueryCounts(counts);
}

// --- BatchSession --------------------------------------------------------

BatchSession::BatchSession(std::shared_ptr<const MultiQueryPlan> plan)
    : plan_(std::move(plan)),
      machine_(plan_->eager(), plan_->lazy(), plan_->mixed_dras(),
               plan_->NewSideCars()),
      selector_(&machine_, plan_->options().plan.format, &plan_->alphabet(),
                &plan_->scanner_tables(), /*fused=*/nullptr) {}

void BatchSession::set_match_sink(MatchSink* sink) {
  if (sink == nullptr) {
    selector_.set_match_sink(nullptr);
    return;
  }
  fan_out_ = MatchFanOutSink(sink, &plan_->member_queries());
  selector_.set_match_sink(&fan_out_);
}

}  // namespace sst

#include "engine/session.h"

#include "base/check.h"

namespace sst {

Session::Session(std::shared_ptr<const QueryPlan> plan)
    : plan_(std::move(plan)),
      machine_(plan_->NewMachine()),
      selector_(machine_.get(), plan_->options().format, &plan_->alphabet(),
                &plan_->scanner_tables(), plan_->fused(),
                plan_->fused_dra()) {
  SST_CHECK_MSG(machine_ != nullptr,
                "Session requires an exact plan (plan->exact())");
}

}  // namespace sst

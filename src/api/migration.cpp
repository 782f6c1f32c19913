#include "api/migration.hpp"

#include <stdexcept>

#include "api/reselect.hpp"
#include "select/context.hpp"
#include "util/log.hpp"

namespace netsel::api {

MigrationController::MigrationController(remos::Remos& remos,
                                         appsim::LooselySynchronousApp& app,
                                         MigrationPolicy policy,
                                         select::SelectionOptions base_options)
    : remos_(&remos), app_(&app), policy_(policy), base_(std::move(base_options)) {
  if (policy_.check_interval <= 0.0)
    throw std::invalid_argument("MigrationPolicy: check_interval must be > 0");
  if (policy_.improvement_threshold < 0.0)
    throw std::invalid_argument("MigrationPolicy: threshold must be >= 0");
  base_.num_nodes = app.required_nodes();
}

void MigrationController::start() {
  if (running_) return;
  running_ = true;
  ++epoch_;
  schedule_next();
}

void MigrationController::stop() {
  running_ = false;
  ++epoch_;
}

void MigrationController::schedule_next() {
  std::uint64_t my_epoch = epoch_;
  remos_->monitor().net().sim().schedule_after(
      policy_.check_interval, [this, my_epoch] {
        if (!running_ || epoch_ != my_epoch) return;
        if (app_->finished()) {
          running_ = false;
          return;
        }
        check();
        schedule_next();
      });
}

void MigrationController::check() {
  ++checks_;
  double now = remos_->monitor().net().sim().now();
  if (now - last_migration_time_ < policy_.cooldown) return;

  // Query with the application's own load and traffic excluded (§3.3).
  remos::QueryOptions q;
  q.exclude_owner = app_->owner();
  auto snap = remos_->snapshot(q);
  select::SelectionContext ctx(snap);

  // Unbounded reselect: the unconstrained optimum, with both placements
  // scored by the same yardstick (exact pairwise evaluation).
  ReselectOptions ropt;
  ropt.criterion = policy_.criterion;
  ropt.selection = base_;
  const ReselectResult r = reselect(ctx, app_->placement(), ropt);
  if (!r.feasible) return;

  if (r.objective_after >
      r.objective_before * (1.0 + policy_.improvement_threshold)) {
    NETSEL_LOG_INFO << "migration triggered at t=" << now << " for app '"
                    << app_->name() << "': objective " << r.objective_before
                    << " -> " << r.objective_after;
    app_->migrate(r.nodes, policy_.state_bytes_per_node);
    ++migrations_;
    last_migration_time_ = now;
  } else {
    NETSEL_LOG_DEBUG << "migration check at t=" << now << ": current "
                     << r.objective_before << ", best " << r.objective_after
                     << " (below threshold)";
  }
}

}  // namespace netsel::api

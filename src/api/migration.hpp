#pragma once
// MigrationController: applies the node-selection procedures "directly to
// the problem of dynamic migration to avoid network congestion and busy
// nodes" (paper §3.3). Periodically re-evaluates a running
// loosely-synchronous application's placement against the current best
// selection (api::reselect, unbounded) — with the application's own load and
// traffic excluded from the query, as the paper requires — and triggers
// migration when the predicted improvement clears a threshold.

#include "appsim/loosely_synchronous.hpp"
#include "remos/remos.hpp"
#include "select/algorithms.hpp"

namespace netsel::api {

struct MigrationPolicy {
  double check_interval = 30.0;  ///< seconds between re-evaluations
  /// Trigger when best objective > current objective * (1 + threshold);
  /// guards against thrashing on measurement noise.
  double improvement_threshold = 0.5;
  /// Bytes of state each migrating rank ships to its new node.
  double state_bytes_per_node = 8e6;
  /// Minimum time between two migrations.
  double cooldown = 60.0;
  select::Criterion criterion = select::Criterion::Balanced;
};

class MigrationController {
 public:
  MigrationController(remos::Remos& remos, appsim::LooselySynchronousApp& app,
                      MigrationPolicy policy = {},
                      select::SelectionOptions base_options = {});

  /// Begin periodic checks (call after the app has started).
  void start();
  void stop();

  int migrations_triggered() const { return migrations_; }
  int checks_performed() const { return checks_; }

 private:
  void schedule_next();
  void check();

  remos::Remos* remos_;
  appsim::LooselySynchronousApp* app_;
  MigrationPolicy policy_;
  select::SelectionOptions base_;
  bool running_ = false;
  std::uint64_t epoch_ = 0;
  int migrations_ = 0;
  int checks_ = 0;
  double last_migration_time_ = -1e18;
};

}  // namespace netsel::api

// ElasticDriver: the epoch-boundary hook that ties the subsystem together.
//
// Called collectively once per epoch (e.g. from the trainer's epoch-end
// hook), it runs three steps in order:
//   1. fault recovery — ranks exchange their continuous per-target health
//      scores (a timed min-reduce; an open breaker scores 0), confirm
//      low-scoring suspects against the fault injector's ground truth at a
//      uniform virtual time, and rebuild each confirmed dead rank's chunk
//      from a surviving twin (then revive the rank and reset its health
//      everywhere) instead of serving degraded forever;
//   2. observation — per-epoch counter and latency deltas are summed
//      across ranks with a timed allreduce into one WidthObservation
//      every rank sees identically;
//   3. width control — the AdaptiveWidthController weighs the modeled
//      benefit of one divisor step down against the planned reshard's
//      estimated cost, and the executor applies any decision.
//
// Everything here is deterministic given identical inputs, so all ranks
// make the same decision and the reshard stays collective with no leader.
#pragma once

#include <cstdint>
#include <vector>

#include "core/ddstore.hpp"
#include "elastic/controller.hpp"

namespace dds::elastic {

struct ElasticConfig {
  /// Run the adaptive width controller each epoch (off = fault recovery
  /// only).
  bool adapt_width = true;
  /// Rebuild a confirmed-dead rank's chunk from a surviving twin group.
  bool rebuild_on_fault = true;
  /// A target whose min-reduced health score falls below this is suspected
  /// dead and checked against ground truth.  An open breaker scores 0, so
  /// the PR-1 binary breaker signal is a special case; with hedging armed,
  /// quarantined gray ranks surface here too (false suspicions cost one
  /// injector lookup and are dropped).
  double suspect_below = 0.3;
  /// Per-rank chunk memory budget in nominal bytes (0 = unlimited).
  std::uint64_t memory_budget_per_rank = 0;
  int amortize_epochs = 4;
  double step_tolerance = 0.02;
};

class ElasticDriver {
 public:
  /// Works on any store; `store` must outlive the driver.
  ElasticDriver(core::DDStore& store, const ElasticConfig& config);

  /// Collective epoch-boundary step; `epoch_seconds` is this rank's wall
  /// time for the finished epoch (the max across ranks feeds the
  /// controller).  Returns the width in force for the next epoch.
  int on_epoch_end(double epoch_seconds);

  /// The width after construction and after every on_epoch_end call — the
  /// controller's trajectory, printed by the examples.
  const std::vector<int>& width_trajectory() const { return trajectory_; }

  /// Why the controller did what it did last epoch ("hold", "step_down",
  /// "revert", ...; "recovering" while a rebuild preempted adaptation).
  const char* last_reason() const { return last_reason_; }

  const AdaptiveWidthController& controller() const { return controller_; }

 private:
  void recover_faults();
  WidthObservation observe(double epoch_seconds);
  void snapshot();

  core::DDStore& store_;
  ElasticConfig config_;
  AdaptiveWidthController controller_;
  std::vector<std::uint64_t> last_counters_;
  std::size_t last_latency_count_ = 0;
  std::vector<int> trajectory_;
  const char* last_reason_ = "hold";
};

}  // namespace dds::elastic

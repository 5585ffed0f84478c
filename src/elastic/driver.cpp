#include "elastic/driver.hpp"

#include <array>

#include "elastic/executor.hpp"

namespace dds::elastic {

namespace {

std::uint64_t delta_of(const MetricsRegistry& metrics,
                       const std::vector<std::uint64_t>& now,
                       const std::vector<std::uint64_t>& before,
                       const std::string& name) {
  const std::vector<std::string>& names = metrics.counter_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] != name) continue;
    const std::uint64_t prev = i < before.size() ? before[i] : 0;
    return now[i] - prev;
  }
  return 0;
}

}  // namespace

ElasticDriver::ElasticDriver(core::DDStore& store, const ElasticConfig& config)
    : store_(store),
      config_(config),
      controller_(store.comm().size(),
                  store.num_samples() * store.nominal_sample_bytes(),
                  WidthControllerConfig{config.memory_budget_per_rank,
                                        config.amortize_epochs,
                                        config.step_tolerance}) {
  trajectory_.push_back(store_.width());
  snapshot();
}

void ElasticDriver::snapshot() {
  last_counters_ = store_.metrics().counter_values();
  const LatencyRecorder* lat = store_.metrics().find_latency("sample_load_s");
  last_latency_count_ = lat == nullptr ? 0 : lat->count();
}

void ElasticDriver::recover_faults() {
  auto* injector = store_.comm().runtime().fault_injector();
  if (injector == nullptr || !config_.rebuild_on_fault) return;
  simmpi::Comm& comm = store_.comm();
  const int n = comm.size();

  // Min-reduce every rank's continuous health scores (timed: a controller
  // pays to exchange its inputs).  A target is suspect when ANY rank scores
  // it below the threshold; an open breaker reads as score 0, so the binary
  // breaker-OR signal is the degenerate case.  The result is identical on
  // all ranks, which keeps the rebuild below collective.
  std::vector<double> score(static_cast<std::size_t>(n), 1.0);
  for (int t = 0; t < n; ++t) {
    score[static_cast<std::size_t>(t)] = store_.health_score(t);
  }
  comm.allreduce_inplace(std::span<double>(score), simmpi::Op::Min);

  // Confirm against ground truth at a uniform time (ranks' clocks differ;
  // the max is the same everywhere, so the verdicts agree).
  const double now =
      comm.allreduce_untimed(comm.clock().now(), simmpi::Op::Max);

  for (int t = 0; t < n; ++t) {
    if (score[static_cast<std::size_t>(t)] >= config_.suspect_below) continue;
    const int world = comm.world_rank_of(t);
    if (!injector->target_dead(world, now)) continue;  // straggler, not dead
    if (store_.num_replicas() < 2) continue;  // no twin: stay degraded
    rebuild_rank(store_, t);
    injector->revive(world);
    store_.reset_target_health(t);
    last_reason_ = "recovering";
  }
}

WidthObservation ElasticDriver::observe(double epoch_seconds) {
  const MetricsRegistry& metrics = store_.metrics();
  const std::vector<std::uint64_t> now = metrics.counter_values();

  double fetch_seconds = 0.0;
  const LatencyRecorder* lat = metrics.find_latency("sample_load_s");
  if (lat != nullptr) {
    const std::vector<double>& raw = lat->raw();
    const std::size_t from =
        last_latency_count_ <= raw.size() ? last_latency_count_ : 0;
    for (std::size_t i = from; i < raw.size(); ++i) fetch_seconds += raw[i];
  }

  // Cross-rank aggregation, timed: the controller must see one global
  // observation, not this rank's slice, and exchanging it costs traffic.
  std::array<double, 4> sums = {
      static_cast<double>(delta_of(metrics, now, last_counters_, "local_gets")),
      static_cast<double>(
          delta_of(metrics, now, last_counters_, "remote_gets")),
      static_cast<double>(delta_of(metrics, now, last_counters_, "cache_hits")),
      fetch_seconds};
  simmpi::Comm& comm = store_.comm();
  comm.allreduce_inplace(std::span<double>(sums), simmpi::Op::Sum);

  WidthObservation obs;
  obs.epoch_seconds = comm.allreduce_untimed(epoch_seconds, simmpi::Op::Max);
  obs.fetch_seconds = sums[3];
  obs.local_gets = static_cast<std::uint64_t>(sums[0]);
  obs.remote_gets = static_cast<std::uint64_t>(sums[1]);
  obs.cache_hits = static_cast<std::uint64_t>(sums[2]);
  obs.owner_greedy =
      store_.config().locality_mode == core::LocalityMode::OwnerGreedy;
  return obs;
}

int ElasticDriver::on_epoch_end(double epoch_seconds) {
  last_reason_ = "hold";
  recover_faults();
  const WidthObservation obs = observe(epoch_seconds);

  if (config_.adapt_width) {
    const int width = store_.width();
    const int down = controller_.next_down(width);
    double cost_down = 0.0;
    if (down != width && !controller_.converged()) {
      // Plan (pure, rank-identical) to price the candidate step.
      const core::Layout to = store_.layout().with_width(down);
      cost_down = estimate_reshard_seconds(
          plan_reshard(store_.layout(), to),
          store_.comm().runtime().machine(), store_.nominal_sample_bytes(),
          store_.config().tiered.staging_depth);
    }
    const AdaptiveWidthController::Decision decision =
        controller_.on_epoch(width, obs, cost_down);
    if (decision.target_width != width) {
      reshard(store_, decision.target_width);
    }
    last_reason_ = decision.reason;
  }

  trajectory_.push_back(store_.width());
  snapshot();
  return store_.width();
}

}  // namespace dds::elastic

#include "tenant/driver.hpp"

#include <algorithm>

namespace dds::tenant {

MultiTenantDriver::MultiTenantDriver(simmpi::Comm& comm,
                                     TenantRegistry& tenants,
                                     const model::MachineConfig& machine,
                                     DriverConfig config)
    : comm_(comm), tenants_(&tenants), arbiter_(config.policy) {
  DDS_CHECK_MSG(tenants.size() > 0, "driver needs at least one tenant");
  const train::SimTrainerConfig step_config{
      .input_dim = config.input_dim,
      .output_dim = config.output_dim,
      .prefetch_depth = train::StepPipeline::kUnboundedDepth};
  pipelines_.reserve(tenants.size());
  for (std::size_t k = 0; k < tenants.size(); ++k) {
    TenantContext& t = tenants.at(static_cast<int>(k));
    // Arbiter inputs are rank-identical by construction: admission order,
    // spec weight, and NOMINAL step demand.  Never feed measured values in.
    arbiter_.add_tenant(t.spec().weight, t.step_demand_bytes());
    pipelines_.emplace_back(comm_, t.backend(), t.sampler(), machine,
                            step_config);
  }
}

std::vector<TenantEpochReport> MultiTenantDriver::run_epoch(
    std::uint64_t epoch) {
  auto& clock = comm_.clock();
  const int n = static_cast<int>(tenants_->size());

  comm_.barrier();
  const double epoch_begin = clock.now();

  // Shared-registry snapshot: all tenants' labeled counters live in ONE
  // registry, so one snapshot/diff covers every tenant (same mechanics as
  // SimulatedTrainer's generic delta accounting).
  const MetricsRegistry& registry = tenants_->store().metrics();
  const std::vector<std::uint64_t> counters_at_start =
      registry.counter_values();

  arbiter_.begin_epoch();
  for (int k = 0; k < n; ++k) {
    train::StepPipeline& p = pipelines_[static_cast<std::size_t>(k)];
    p.begin_epoch(epoch);
    tenants_->at(k).latencies() = LatencyRecorder{};
    arbiter_.set_runnable(k, !p.done());
  }

  // Interleaved step loop.  Every rank computes the identical grant
  // sequence (arbiter determinism contract), so the collectives inside a
  // step always pair up across ranks.
  while (arbiter_.any_runnable()) {
    const int k = arbiter_.next();
    train::StepPipeline& p = pipelines_[static_cast<std::size_t>(k)];
    p.step();
    if (p.done()) arbiter_.set_runnable(k, false);
  }
  // The rank's epoch ends when every tenant's pipeline drains.
  for (const train::StepPipeline& p : pipelines_) {
    clock.advance_to(p.gpu_free());
  }

  // ---- reporting (untimed exchanges: no clock advances, but each one
  // reorders the fiber schedule — see Comm::allgather_untimed) ----
  std::vector<std::uint64_t> summed = registry.counter_values();
  DDS_CHECK_MSG(summed.size() == counters_at_start.size(),
                "metrics registered mid-epoch break delta accounting");
  for (std::size_t i = 0; i < summed.size(); ++i) {
    summed[i] -= counters_at_start[i];
  }
  comm_.allreduce_inplace_untimed(std::span<std::uint64_t>(summed),
                                  simmpi::Op::Sum);
  const auto& names = registry.counter_names();
  const auto summed_counter = [&](const std::string& name) -> std::uint64_t {
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (names[i] == name) return summed[i];
    }
    return 0;
  };

  std::vector<TenantEpochReport> reports(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    TenantContext& t = tenants_->at(k);
    TenantEpochReport& r = reports[static_cast<std::size_t>(k)];
    r.tenant = k;
    r.name = t.spec().name;
    r.epoch = epoch;
    r.steps = t.sampler().steps_per_epoch();
    r.global_samples = r.steps * t.spec().local_batch *
                       static_cast<std::uint64_t>(comm_.size());

    // Wall time the tenant experienced: its last step's completion, maxed
    // across ranks (untimed exchange — the clock already drained).
    const double done = comm_.allreduce_untimed(
        pipelines_[static_cast<std::size_t>(k)].gpu_free(), simmpi::Op::Max);
    r.epoch_seconds = done - epoch_begin;
    r.throughput = r.epoch_seconds > 0
                       ? static_cast<double>(r.global_samples) / r.epoch_seconds
                       : 0.0;

    // Fetch latencies attributed to this tenant, merged across ranks.
    const auto& mine = t.latencies().raw();
    const std::vector<double> all_lat = comm_.allgatherv_untimed(
        std::span<const double>(mine.data(), mine.size()));
    if (!all_lat.empty()) {
      LatencyRecorder merged(all_lat.size());
      for (const double v : all_lat) merged.add(v);
      r.p50_fetch_s = merged.percentile(50.0);
      r.p99_fetch_s = merged.percentile(99.0);
    }

    const MetricLabel label{"tenant", t.spec().name};
    r.bytes_fetched =
        summed_counter(MetricsRegistry::labeled_name("bytes_fetched", label));
    r.cache_hits =
        summed_counter(MetricsRegistry::labeled_name("cache_hits", label));
    r.cache_misses =
        summed_counter(MetricsRegistry::labeled_name("cache_misses", label));
    r.cache_hit_bytes = summed_counter(
        MetricsRegistry::labeled_name("cache_hit_bytes", label));
    r.lock_epochs =
        summed_counter(MetricsRegistry::labeled_name("lock_epochs", label));
    r.served_bytes = r.bytes_fetched + r.cache_hit_bytes;
    r.max_wait_grants = arbiter_.max_wait(k);
  }
  return reports;
}

std::vector<train::TrainEpochResult> MultiTenantDriver::run_real_epoch(
    std::uint64_t epoch, const std::vector<train::RealTrainer*>& trainers) {
  DDS_CHECK_MSG(trainers.size() == tenants_->size(),
                "one real trainer per tenant, in id order");
  const int n = static_cast<int>(trainers.size());
  comm_.barrier();
  arbiter_.begin_epoch();
  std::vector<std::uint64_t> cursor(static_cast<std::size_t>(n), 0);
  for (int k = 0; k < n; ++k) {
    tenants_->at(k).latencies() = LatencyRecorder{};
    trainers[static_cast<std::size_t>(k)]->begin_epoch(epoch);
    arbiter_.set_runnable(
        k, trainers[static_cast<std::size_t>(k)]->train_steps() > 0);
  }
  // Same deterministic grant loop as the simulated path; only execution
  // order interleaves, so each trainer's math is exactly its solo math.
  while (arbiter_.any_runnable()) {
    const int k = arbiter_.next();
    train::RealTrainer& tr = *trainers[static_cast<std::size_t>(k)];
    tr.train_step(cursor[static_cast<std::size_t>(k)]++);
    if (cursor[static_cast<std::size_t>(k)] >= tr.train_steps()) {
      arbiter_.set_runnable(k, false);
    }
  }
  std::vector<train::TrainEpochResult> results;
  results.reserve(trainers.size());
  for (int k = 0; k < n; ++k) {
    results.push_back(
        trainers[static_cast<std::size_t>(k)]->finish_epoch(epoch));
  }
  return results;
}

}  // namespace dds::tenant

#include "tenant/driver.hpp"

#include <algorithm>

#include "graph/batch.hpp"

namespace dds::tenant {

MultiTenantDriver::MultiTenantDriver(simmpi::Comm& comm,
                                     TenantRegistry& tenants,
                                     const model::MachineConfig& machine,
                                     DriverConfig config)
    : comm_(comm),
      tenants_(&tenants),
      compute_(machine),
      config_(config),
      grad_bytes_(model::hydragnn_param_bytes(config.input_dim,
                                              config.output_dim)),
      arbiter_(config.policy) {
  DDS_CHECK_MSG(tenants.size() > 0, "driver needs at least one tenant");
  for (std::size_t k = 0; k < tenants.size(); ++k) {
    TenantContext& t = tenants.at(static_cast<int>(k));
    // Arbiter inputs are rank-identical by construction: admission order,
    // spec weight, and NOMINAL step demand.  Never feed measured values in.
    arbiter_.add_tenant(t.spec().weight, t.step_demand_bytes());
  }
}

void MultiTenantDriver::align_cpu_clocks() {
  auto& clock = comm_.clock();
  const auto cpu_now = comm_.allgather_untimed(clock.now());
  double max_cpu = clock.now();
  for (const double t : cpu_now) max_cpu = std::max(max_cpu, t);
  clock.advance_to(max_cpu);
}

std::vector<TenantEpochReport> MultiTenantDriver::run_epoch(
    std::uint64_t epoch) {
  auto& clock = comm_.clock();
  auto& net = comm_.runtime().network();
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
  std::vector<std::uint64_t> steps(static_cast<std::size_t>(n), 0);
  std::vector<std::uint64_t> cursor(static_cast<std::size_t>(n), 0);
  std::vector<double> gpu_free(static_cast<std::size_t>(n), epoch_begin);
  std::vector<double> completion(static_cast<std::size_t>(n), epoch_begin);
  for (int k = 0; k < n; ++k) {
    TenantContext& t = tenants_->at(k);
    t.sampler().begin_epoch(epoch, comm_);
    t.latencies() = LatencyRecorder{};
    steps[static_cast<std::size_t>(k)] = t.sampler().steps_per_epoch();
    arbiter_.set_runnable(k, steps[static_cast<std::size_t>(k)] > 0);
  }

  // Interleaved step loop.  Every rank computes the identical grant
  // sequence (arbiter determinism contract), so the collectives inside a
  // step always pair up across ranks.
  while (arbiter_.any_runnable()) {
    const int k = arbiter_.next();
    std::uint64_t& sk = cursor[static_cast<std::size_t>(k)];
    TenantContext& t = tenants_->at(k);

    // Cross-rank CPU re-alignment, as in the single-tenant trainer: the
    // previous step's gradient all-reduce synchronized every rank.
    align_cpu_clocks();

    // ---- CPU: load + collate through the tenant's mounted backend ----
    const auto ids = t.sampler().batch_ids(sk);
    const auto samples = t.backend().load_batch(ids);
    const auto batch = graph::GraphBatch::collate(samples);
    const model::BatchShape shape{batch.num_graphs, batch.num_nodes,
                                  batch.num_edges(), config_.output_dim};
    const std::uint64_t nominal_batch_payload =
        t.spec().local_batch * t.backend().nominal_sample_bytes();
    clock.advance(compute_.batching_time(shape, nominal_batch_payload));
    const double cpu_done = clock.now();

    // ---- GPU: this tenant's own pipeline (jobs own their accelerators;
    // they share the store, the serving CPU, and the network) ----
    const double gpu_start =
        std::max(gpu_free[static_cast<std::size_t>(k)], cpu_done);
    const double fb = compute_.forward_backward_time(shape);
    const double gpu_done = gpu_start + fb;

    // ---- gradient all-reduce across this tenant's replicas ----
    const auto all_done = comm_.allgather_untimed(gpu_done);
    double max_done = gpu_done;
    for (const double d : all_done) max_done = std::max(max_done, d);
    const double comm_end =
        net.allreduce_time(comm_.size(), grad_bytes_, max_done);
    const double t_opt = compute_.optimizer_time(grad_bytes_);
    gpu_free[static_cast<std::size_t>(k)] = comm_end + t_opt;
    completion[static_cast<std::size_t>(k)] =
        gpu_free[static_cast<std::size_t>(k)];

    ++sk;
    if (sk >= steps[static_cast<std::size_t>(k)]) {
      arbiter_.set_runnable(k, false);
    }
  }
  // The rank's epoch ends when every tenant's pipeline drains.
  for (int k = 0; k < n; ++k) {
    clock.advance_to(completion[static_cast<std::size_t>(k)]);
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
    r.steps = steps[static_cast<std::size_t>(k)];
    r.global_samples = r.steps * t.spec().local_batch *
                       static_cast<std::uint64_t>(comm_.size());

    // Wall time the tenant experienced: its last step's completion, maxed
    // across ranks (untimed exchange — the clock already drained).
    double local_done = completion[static_cast<std::size_t>(k)];
    for (const double d : comm_.allgather_untimed(local_done)) {
      local_done = std::max(local_done, d);
    }
    r.epoch_seconds = local_done - epoch_begin;
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

#include "tenant/driver.hpp"

#include <algorithm>
#include <utility>

namespace dds::tenant {

namespace {

/// One rank's share of an epoch report: its counter deltas, and each
/// tenant's fetch latencies as this rank recorded them (index = tenant).
struct RankShare {
  train::EpochReport counters;
  std::vector<const LatencyRecorder*> latencies;
};

/// The shares merged: summed counters, and each tenant's (p50, p99) fetch
/// latency over every rank's loads ((0, 0) when it loaded nothing).
struct EpochTotals {
  train::EpochReport counters;
  std::vector<std::pair<double, double>> p50_p99;
};

EpochTotals merge_shares(std::span<const RankShare* const> ranks) {
  std::vector<const train::EpochReport*> counters;
  for (const RankShare* r : ranks) counters.push_back(&r->counters);
  EpochTotals out{train::EpochReport::merge(counters), {}};
  out.p50_p99.resize(ranks[0]->latencies.size());
  for (std::size_t k = 0; k < out.p50_p99.size(); ++k) {
    LatencyRecorder all;
    for (const RankShare* r : ranks) all.merge(*r->latencies[k]);
    if (!all.empty()) out.p50_p99[k] = {all.percentile(50), all.percentile(99)};
  }
  return out;
}

}  // namespace

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

  RankShare mine;  // this rank's share of the epoch report
  arbiter_.begin_epoch();
  for (int k = 0; k < n; ++k) {
    train::StepPipeline& p = pipelines_[static_cast<std::size_t>(k)];
    p.begin_epoch(epoch);
    tenants_->at(k).latencies() = LatencyRecorder{};
    mine.latencies.push_back(&tenants_->at(k).latencies());
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

  // ---- reporting: the shares merge at the barrier that ends the epoch ----
  const std::vector<std::uint64_t> now = registry.counter_values();
  DDS_CHECK_MSG(now.size() == counters_at_start.size(),
                "metrics registered mid-epoch break delta accounting");
  const auto& names = registry.counter_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    mine.counters.metrics.push_back({names[i], now[i] - counters_at_start[i]});
  }
  const EpochTotals totals = comm_.barrier(mine, &merge_shares);

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

    // Wall time the tenant experienced: its last step's completion, the
    // same on every rank (a step's GPU ends with the gradient all-reduce).
    r.epoch_seconds =
        pipelines_[static_cast<std::size_t>(k)].gpu_free() - epoch_begin;
    r.throughput = r.epoch_seconds > 0
                       ? static_cast<double>(r.global_samples) / r.epoch_seconds
                       : 0.0;
    r.p50_fetch_s = totals.p50_p99[static_cast<std::size_t>(k)].first;
    r.p99_fetch_s = totals.p50_p99[static_cast<std::size_t>(k)].second;

    const MetricLabel label{"tenant", t.spec().name};
    const auto summed = [&](const char* counter) {
      return totals.counters.metric(
          MetricsRegistry::labeled_name(counter, label));
    };
    r.bytes_fetched = summed("bytes_fetched");
    r.cache_hits = summed("cache_hits");
    r.cache_misses = summed("cache_misses");
    r.cache_hit_bytes = summed("cache_hit_bytes");
    r.lock_epochs = summed("lock_epochs");
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

// MultiTenantDriver: N interleaved training jobs in one simulation.
//
// Each rank steps every admitted tenant's workload as one interleaved
// fiber timeline: the QosArbiter decides (identically on every rank —
// see arbiter.hpp's determinism contract) which tenant's step is issued
// next.  Each tenant runs the trainer's StepPipeline over its mounted
// backend (shared store + cache, per-tenant attribution) at unbounded
// prefetch depth, so its GPU pipeline advances on its own timeline —
// tenant jobs own their accelerators; what they share is the store, the
// serving CPU, and the network.
//
// Per-epoch, the driver reports per tenant: wall epoch seconds (what the
// tenant experienced under sharing), throughput, p50/p99 fetch latency
// (merged across ranks), labeled counter deltas (bytes, cache hits, lock
// epochs — charged at the tenant's mount, see tenant.hpp) and the
// arbiter's starvation metric.  bench_multitenant pins fairness gates on
// these.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tenant/arbiter.hpp"
#include "tenant/tenant.hpp"
#include "train/real_trainer.hpp"
#include "train/sim_trainer.hpp"

namespace dds::tenant {

struct DriverConfig {
  /// GNN dimensions for the simulated compute/gradient model (shared by
  /// all tenants; per-tenant model scale is future work).
  std::uint64_t input_dim = 6;
  std::uint64_t output_dim = 1;
  QosPolicy policy;
};

/// One tenant's view of one epoch, rank-identical.
struct TenantEpochReport {
  int tenant = 0;
  std::string name;
  std::uint64_t epoch = 0;
  std::uint64_t steps = 0;
  std::uint64_t global_samples = 0;
  double epoch_seconds = 0;  ///< max across ranks, epoch start -> last step
  double throughput = 0;     ///< samples / second under sharing
  double p50_fetch_s = 0;    ///< merged across ranks, this tenant's loads
  double p99_fetch_s = 0;
  std::uint64_t bytes_fetched = 0;   ///< summed across ranks (labeled delta)
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_hit_bytes = 0;
  std::uint64_t lock_epochs = 0;
  /// bytes_fetched + cache_hit_bytes: every payload byte served to the
  /// tenant, however it arrived — the solo-vs-shared isolation invariant.
  std::uint64_t served_bytes = 0;
  int max_wait_grants = 0;  ///< arbiter starvation metric
};

class MultiTenantDriver {
 public:
  /// All tenants must already be admitted; every rank constructs the
  /// driver with the same registry state (the arbiter snapshot happens
  /// here).  References must outlive the driver.
  MultiTenantDriver(simmpi::Comm& comm, TenantRegistry& tenants,
                    const model::MachineConfig& machine,
                    DriverConfig config = {});
  MultiTenantDriver(const MultiTenantDriver&) = delete;
  MultiTenantDriver& operator=(const MultiTenantDriver&) = delete;

  /// Collective: one interleaved epoch of every tenant's simulated
  /// workload.  Every rank returns identical reports (index = tenant id).
  std::vector<TenantEpochReport> run_epoch(std::uint64_t epoch);

  /// Collective: one interleaved epoch of N *real* trainers (math and all),
  /// one per tenant in id order, each driving its tenant's mounted backend.
  /// Only execution order interleaves — per-tenant loss curves stay
  /// bit-identical to running each trainer solo.
  std::vector<train::TrainEpochResult> run_real_epoch(
      std::uint64_t epoch, const std::vector<train::RealTrainer*>& trainers);

  QosArbiter& arbiter() { return arbiter_; }

 private:
  simmpi::Comm comm_;
  TenantRegistry* tenants_;
  QosArbiter arbiter_;
  /// One step pipeline per tenant, index = tenant id.
  std::vector<train::StepPipeline> pipelines_;
};

}  // namespace dds::tenant

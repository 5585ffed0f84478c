// Multi-tenant serving: N independent training jobs over ONE DDStore.
//
// The "millions of users" version of DDStore (DESIGN.md, "Multi-tenant
// serving (`src/tenant`)"; after Atompack's shared-distribution-layer
// framing and FanStore's many-clients-one-footprint result) is N trainers
// — different shuffles, batch sizes, even different datasets mounted side
// by side — hitting one shared store.  The tenant layer adds exactly the
// state that must be per-job and shares everything else:
//
//   per-tenant:  shuffle sampler, dataset mount (an id range of the
//                shared store), batch size, labeled metrics +
//                fetch-latency recorder, QoS weight
//   shared:      windows, replica groups, tiered store, SampleCache, fetch
//                engine — one instance each, so aggregate memory footprint
//                does NOT multiply with N.
//
// Attribution happens at the mount, not inside the read path: the
// tenant's backend reads the store's global counters and latency recorder
// before and after each load and charges the growth to the tenant.  The
// fetch engine knows nothing about tenants.
//
// A TenantRegistry (one per rank, like the store itself) admits tenants
// through an admission controller and owns their TenantContexts.  Every
// rank must admit the same tenants in the same order — the registry
// registers labeled counters, and the MetricsRegistry cross-rank contract
// requires identical registration order.
#pragma once

#include <deque>
#include <memory>
#include <string>

#include "core/ddstore.hpp"
#include "train/backend.hpp"
#include "train/sampler.hpp"

namespace dds::tenant {

/// One training job's identity and resource claim, validated at admission.
struct TenantSpec {
  std::string name;  ///< label value in metrics; must be unique & non-empty

  /// Dataset mount: the tenant sees samples [0, mount_samples) mapped onto
  /// store ids [mount_first, mount_first + mount_samples).  Two tenants may
  /// mount overlapping ranges (same dataset) or disjoint ones (datasets
  /// side by side in one store).  mount_samples == 0 mounts the whole
  /// store.
  std::uint64_t mount_first = 0;
  std::uint64_t mount_samples = 0;

  std::uint64_t local_batch = 32;  ///< per-rank batch size
  std::uint64_t seed = 1;          ///< shuffle seed (per-tenant stream)
  double weight = 1.0;             ///< QoS share (relative, > 0)
};

/// Admission limits enforced by TenantRegistry::admit.
struct AdmissionConfig {
  int max_tenants = 16;

  /// Upper bound on the summed nominal per-step demand
  /// (local_batch × nominal_sample_bytes) across admitted tenants;
  /// 0 = unbounded.  A crude but honest admission signal: it bounds the
  /// per-step traffic tenants can present to the shared transport.
  std::uint64_t step_demand_budget_bytes = 0;
};

class TenantRegistry;

/// Everything one admitted tenant owns on this rank.  Created by
/// TenantRegistry::admit; addresses are stable for the registry's lifetime
/// (contexts live in a deque).
class TenantContext {
 public:
  /// Passkey: only TenantRegistry constructs contexts, but construction
  /// must be public so the registry can emplace them in place (the
  /// context's backend captures `this`; a move would dangle it).
  class Passkey {
   private:
    friend class TenantRegistry;
    Passkey() = default;
  };
  TenantContext(Passkey, int id, TenantSpec spec, core::DDStore& store);
  TenantContext(const TenantContext&) = delete;
  TenantContext& operator=(const TenantContext&) = delete;

  int id() const { return id_; }
  const TenantSpec& spec() const { return spec_; }

  /// The tenant's view of the shared store: ids in [0, mount_samples),
  /// translated by the mount, each load charged to this tenant's labeled
  /// counters and latency recorder.  Hand this to any trainer (Simulated
  /// or Real).
  train::DataBackend& backend() { return *backend_; }

  /// The tenant's private shuffle over its mount.
  train::GlobalShuffleSampler& sampler() { return sampler_; }

  /// Per-rank fetch latencies attributed to this tenant (reset by the
  /// driver at epoch start).
  LatencyRecorder& latencies() { return latency_; }

  /// Nominal per-step bytes this tenant demands (admission accounting).
  std::uint64_t step_demand_bytes() const {
    return spec_.local_batch * store_->nominal_sample_bytes();
  }

  core::DDStore& store() { return *store_; }

 private:
  int id_;
  TenantSpec spec_;
  core::DDStore* store_;
  train::GlobalShuffleSampler sampler_;
  LatencyRecorder latency_;
  std::unique_ptr<train::DataBackend> backend_;
};

/// Owns the tenants admitted on this rank.  One registry per rank, over
/// that rank's DDStore.  Admission is NOT collective by itself, but every
/// rank must perform the same admissions in the same order (labeled
/// counters register into the rank's MetricsRegistry at admit time, and
/// cross-rank counter sums require identical layouts — the same contract
/// every fetch stage already obeys).
class TenantRegistry {
 public:
  explicit TenantRegistry(core::DDStore& store, AdmissionConfig admission = {});

  /// Admission controller: validates the spec against the store and the
  /// configured limits, registers the tenant's labeled counters, and
  /// returns the new context.  Throws ConfigError on rejection — the
  /// registry is unchanged in that case.
  TenantContext& admit(const TenantSpec& spec);

  std::size_t size() const { return tenants_.size(); }
  TenantContext& at(int id) {
    return tenants_.at(static_cast<std::size_t>(id));
  }
  const TenantContext& at(int id) const {
    return tenants_.at(static_cast<std::size_t>(id));
  }

  core::DDStore& store() { return *store_; }
  const AdmissionConfig& admission() const { return admission_; }

  /// Summed nominal per-step demand over admitted tenants.
  std::uint64_t admitted_step_demand_bytes() const;

 private:
  core::DDStore* store_;
  AdmissionConfig admission_;
  std::deque<TenantContext> tenants_;  ///< deque: stable addresses
};

}  // namespace dds::tenant

// QosArbiter: fairness policy over tenant step queues.
//
// The per-target serialization model already expresses *contention* (lock
// epochs queue at the owning rank); what multi-tenancy adds is a *policy*
// for whose work is issued next.  The arbiter decides grant order — which
// tenant runs its next training step — using weighted round-robin (stride
// scheduling) with a starvation bound and a per-tenant burst cap.  It
// never touches the RMA model: a grant just means "tenant k's step is
// issued now", and the transport charges contention exactly as before.
//
// Determinism contract (collectives depend on it): every rank must compute
// the IDENTICAL grant sequence, or ranks deadlock in each other's
// allreduces.  The arbiter is therefore fed only rank-identical inputs —
// admission order, weights, NOMINAL step costs (batch × nominal sample
// bytes), and runnable transitions (steps-per-epoch is rank-identical).
// Measured per-rank values (latencies, lock epochs) never feed it.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace dds::tenant {

enum class QosPolicyKind {
  /// Stride scheduling: tenant k's virtual pass advances by
  /// step_cost / weight per grant; the lowest pass runs next.  Service
  /// (cost × grants) converges to the weight ratio.
  WeightedRoundRobin,
  /// Plain round-robin, ignoring weights and costs (the sweep baseline).
  RoundRobin,
};

struct QosPolicy {
  QosPolicyKind kind = QosPolicyKind::WeightedRoundRobin;

  /// Starvation bound: a runnable tenant that has been passed over for
  /// this many consecutive grants is served next regardless of pass/cursor
  /// order.  Also the bound the smoke gate asserts on max_wait().
  int starvation_bound = 8;

  /// Burst cap: at most this many consecutive grants to one tenant while
  /// another is runnable (an in-flight cap on lock-epoch issue bursts).
  int max_burst = 4;
};

class QosArbiter {
 public:
  explicit QosArbiter(QosPolicy policy = {});

  /// Registers a tenant (id = registration order, matching the registry).
  /// step_cost is the tenant's nominal per-step demand in arbitrary
  /// rank-identical units (bytes); weight > 0.
  int add_tenant(double weight, std::uint64_t step_cost);

  int num_tenants() const { return static_cast<int>(tenants_.size()); }

  /// Marks a tenant runnable (has steps left this epoch) or idle.
  void set_runnable(int id, bool runnable);
  bool runnable(int id) const { return tenants_.at(checked(id)).runnable; }
  bool any_runnable() const;

  /// Grants the next step and returns the chosen tenant.  Requires
  /// any_runnable().  Deterministic: a pure function of the call history.
  int next();

  /// Grants issued to a tenant so far.
  std::uint64_t grants(int id) const { return tenants_.at(checked(id)).grants; }

  /// Worst consecutive pass-overs this tenant suffered while runnable —
  /// the starvation metric the QoS gate pins (≤ starvation_bound).
  int max_wait(int id) const { return tenants_.at(checked(id)).max_wait; }

  /// Resets per-epoch fairness state (waits, bursts, cursor, passes),
  /// keeping registration, weights, and grant totals.
  void begin_epoch();

  const QosPolicy& policy() const { return policy_; }

 private:
  struct Tenant {
    double weight = 1.0;
    std::uint64_t step_cost = 1;
    double stride = 1.0;  ///< step_cost / weight (pass increment per grant)
    double pass = 0.0;
    bool runnable = false;
    int wait = 0;      ///< consecutive pass-overs while runnable
    int max_wait = 0;
    int burst = 0;     ///< consecutive grants
    std::uint64_t grants = 0;
  };

  std::size_t checked(int id) const {
    DDS_CHECK_MSG(id >= 0 && id < num_tenants(), "unknown tenant id");
    return static_cast<std::size_t>(id);
  }

  int pick() const;

  QosPolicy policy_;
  std::vector<Tenant> tenants_;
  int rr_cursor_ = 0;  ///< RoundRobin: last granted + 1 search start
};

}  // namespace dds::tenant

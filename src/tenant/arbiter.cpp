#include "tenant/arbiter.hpp"

#include <limits>

namespace dds::tenant {

QosArbiter::QosArbiter(QosPolicy policy) : policy_(policy) {
  DDS_CHECK(policy_.starvation_bound >= 1);
  DDS_CHECK(policy_.max_burst >= 1);
}

int QosArbiter::add_tenant(double weight, std::uint64_t step_cost) {
  DDS_CHECK_MSG(weight > 0.0, "tenant weight must be positive");
  DDS_CHECK_MSG(step_cost > 0, "tenant step cost must be positive");
  Tenant t;
  t.weight = weight;
  t.step_cost = step_cost;
  t.stride = static_cast<double>(step_cost) / weight;
  tenants_.push_back(t);
  return static_cast<int>(tenants_.size()) - 1;
}

void QosArbiter::set_runnable(int id, bool runnable) {
  Tenant& t = tenants_.at(checked(id));
  if (runnable && !t.runnable) {
    // (Re-)entering the run queue: join at the current virtual time, not
    // at a stale pass — otherwise a tenant idle for a while would get an
    // unbounded catch-up burst (standard stride-scheduling join rule).
    double min_pass = std::numeric_limits<double>::max();
    bool any = false;
    for (const Tenant& other : tenants_) {
      if (other.runnable && other.pass < min_pass) {
        min_pass = other.pass;
        any = true;
      }
    }
    if (any && t.pass < min_pass) t.pass = min_pass;
    t.wait = 0;
    t.burst = 0;
  }
  t.runnable = runnable;
}

bool QosArbiter::any_runnable() const {
  for (const Tenant& t : tenants_) {
    if (t.runnable) return true;
  }
  return false;
}

void QosArbiter::begin_epoch() {
  for (Tenant& t : tenants_) {
    t.pass = 0.0;
    t.wait = 0;
    t.max_wait = 0;
    t.burst = 0;
    t.runnable = false;
  }
  rr_cursor_ = 0;
}

int QosArbiter::pick() const {
  const int n = num_tenants();

  // Starvation bound first: any runnable tenant passed over too long is
  // served immediately (longest wait wins; lowest id breaks ties).
  int starved = -1;
  for (int i = 0; i < n; ++i) {
    const Tenant& t = tenants_[static_cast<std::size_t>(i)];
    if (!t.runnable || t.wait < policy_.starvation_bound) continue;
    if (starved < 0 ||
        t.wait > tenants_[static_cast<std::size_t>(starved)].wait) {
      starved = i;
    }
  }
  if (starved >= 0) return starved;

  if (policy_.kind == QosPolicyKind::RoundRobin) {
    for (int off = 0; off < n; ++off) {
      const int i = (rr_cursor_ + off) % n;
      if (tenants_[static_cast<std::size_t>(i)].runnable) return i;
    }
    DDS_CHECK_MSG(false, "QosArbiter::next with no runnable tenant");
  }

  // Weighted round-robin (stride): lowest pass among runnable tenants,
  // skipping one that exhausted its burst cap (unless it is the only
  // runnable tenant).  Ties break toward the lowest id — deterministic.
  int best = -1;
  int fallback = -1;  ///< best ignoring the burst cap
  for (int i = 0; i < n; ++i) {
    const Tenant& t = tenants_[static_cast<std::size_t>(i)];
    if (!t.runnable) continue;
    if (fallback < 0 ||
        t.pass < tenants_[static_cast<std::size_t>(fallback)].pass) {
      fallback = i;
    }
    if (t.burst >= policy_.max_burst) continue;
    if (best < 0 || t.pass < tenants_[static_cast<std::size_t>(best)].pass) {
      best = i;
    }
  }
  if (best >= 0) return best;
  DDS_CHECK_MSG(fallback >= 0, "QosArbiter::next with no runnable tenant");
  return fallback;
}

int QosArbiter::next() {
  DDS_CHECK_MSG(any_runnable(), "QosArbiter::next with no runnable tenant");
  const int chosen = pick();
  const int n = num_tenants();
  for (int i = 0; i < n; ++i) {
    Tenant& t = tenants_[static_cast<std::size_t>(i)];
    if (i == chosen) {
      t.pass += t.stride;
      t.wait = 0;
      t.burst += 1;
      t.grants += 1;
    } else {
      if (t.runnable) {
        t.wait += 1;
        if (t.wait > t.max_wait) t.max_wait = t.wait;
      }
      t.burst = 0;
    }
  }
  rr_cursor_ = (chosen + 1) % n;
  return chosen;
}

}  // namespace dds::tenant

// Tenant layer unit tests: admission control, labeled metric registration,
// mounted-backend id translation and per-tenant attribution, and the
// QosArbiter's fairness properties (weight proportionality, starvation
// bound, burst cap, determinism).
#include "tenant/tenant.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "core/ddstore.hpp"
#include "datagen/dataset.hpp"
#include "formats/cff.hpp"
#include "simmpi/runtime.hpp"
#include "tenant/arbiter.hpp"

namespace dds::tenant {
namespace {

using model::test_machine;

constexpr std::uint64_t kSamples = 64;

// ---- QosArbiter -----------------------------------------------------------

TEST(QosArbiter, WeightedGrantsConvergeToWeightRatio) {
  QosPolicy policy;
  policy.starvation_bound = 1000;  // let the stride schedule run pure
  QosArbiter arb(policy);
  const int a = arb.add_tenant(3.0, 100);
  const int b = arb.add_tenant(1.0, 100);
  arb.set_runnable(a, true);
  arb.set_runnable(b, true);
  for (int i = 0; i < 4000; ++i) arb.next();
  // Equal step costs, weights 3:1 -> grants 3:1 (within stride rounding).
  EXPECT_NEAR(static_cast<double>(arb.grants(a)) /
                  static_cast<double>(arb.grants(b)),
              3.0, 0.05);
}

TEST(QosArbiter, ServiceProportionalityAccountsForStepCost) {
  // Tenant a demands 4x the bytes per step at equal weight: it should get
  // ~1/4 the grants, equalizing cost x grants (the stride invariant).
  QosPolicy policy;
  policy.starvation_bound = 1000;
  QosArbiter arb(policy);
  const int a = arb.add_tenant(1.0, 400);
  const int b = arb.add_tenant(1.0, 100);
  arb.set_runnable(a, true);
  arb.set_runnable(b, true);
  for (int i = 0; i < 5000; ++i) arb.next();
  const double cost_a = static_cast<double>(arb.grants(a)) * 400.0;
  const double cost_b = static_cast<double>(arb.grants(b)) * 100.0;
  EXPECT_NEAR(cost_a / cost_b, 1.0, 0.05);
}

TEST(QosArbiter, StarvationBoundCapsWaitEvenUnderExtremeWeights) {
  QosPolicy policy;
  policy.starvation_bound = 8;
  QosArbiter arb(policy);
  const int greedy = arb.add_tenant(1000.0, 100);
  const int victim = arb.add_tenant(1.0, 100);
  arb.set_runnable(greedy, true);
  arb.set_runnable(victim, true);
  for (int i = 0; i < 2000; ++i) arb.next();
  EXPECT_GT(arb.grants(victim), 0u);
  EXPECT_LE(arb.max_wait(victim), policy.starvation_bound);
}

TEST(QosArbiter, BurstCapBoundsConsecutiveGrants) {
  QosPolicy policy;
  policy.max_burst = 4;
  policy.starvation_bound = 100;
  QosArbiter arb(policy);
  const int heavy = arb.add_tenant(1000.0, 100);
  const int light = arb.add_tenant(1.0, 100);
  arb.set_runnable(heavy, true);
  arb.set_runnable(light, true);
  int consecutive = 0;
  int worst = 0;
  for (int i = 0; i < 1000; ++i) {
    if (arb.next() == heavy) {
      worst = std::max(worst, ++consecutive);
    } else {
      consecutive = 0;
    }
  }
  EXPECT_LE(worst, policy.max_burst);
  (void)light;
}

TEST(QosArbiter, RoundRobinIgnoresWeights) {
  QosPolicy policy;
  policy.kind = QosPolicyKind::RoundRobin;
  QosArbiter arb(policy);
  const int a = arb.add_tenant(100.0, 100);
  const int b = arb.add_tenant(1.0, 100);
  arb.set_runnable(a, true);
  arb.set_runnable(b, true);
  for (int i = 0; i < 100; ++i) arb.next();
  EXPECT_EQ(arb.grants(a), arb.grants(b));
}

TEST(QosArbiter, GrantSequenceIsDeterministic) {
  // Two arbiters fed the identical call history produce the identical
  // grant sequence — the property rank-synchronized collectives rely on.
  const auto drive = [](QosArbiter& arb) {
    std::vector<int> grants;
    const int a = arb.add_tenant(2.0, 300);
    const int b = arb.add_tenant(1.0, 100);
    const int c = arb.add_tenant(5.0, 700);
    arb.set_runnable(a, true);
    arb.set_runnable(b, true);
    arb.set_runnable(c, true);
    for (int i = 0; i < 500; ++i) {
      grants.push_back(arb.next());
      if (i == 200) arb.set_runnable(b, false);
      if (i == 300) arb.set_runnable(b, true);
    }
    return grants;
  };
  QosArbiter x{QosPolicy{}};
  QosArbiter y{QosPolicy{}};
  EXPECT_EQ(drive(x), drive(y));
}

TEST(QosArbiter, RejoiningTenantGetsNoCatchUpBurst) {
  QosPolicy policy;
  policy.max_burst = 2;
  QosArbiter arb(policy);
  const int a = arb.add_tenant(1.0, 100);
  const int b = arb.add_tenant(1.0, 100);
  arb.set_runnable(a, true);
  arb.set_runnable(b, false);
  for (int i = 0; i < 100; ++i) arb.next();  // a runs alone, pass advances
  arb.set_runnable(b, true);                 // b joins at current pass
  int b_burst = 0;
  for (int i = 0; i < 10; ++i) {
    if (arb.next() == b) {
      ++b_burst;
    } else {
      break;
    }
  }
  EXPECT_LE(b_burst, policy.max_burst);
}

// ---- MetricsRegistry labels ----------------------------------------------

TEST(MetricLabels, EmptyLabelIsPassthrough) {
  MetricsRegistry reg;
  auto& plain = reg.counter("bytes_fetched");
  auto& via_label = reg.counter("bytes_fetched", MetricLabel{});
  EXPECT_EQ(&plain, &via_label);  // same entry, no decorated name
  EXPECT_EQ(reg.num_counters(), 1u);
}

TEST(MetricLabels, LabeledMembersAreOrdinaryEntries) {
  MetricsRegistry reg;
  reg.counter("bytes_fetched") += 7;
  reg.counter("bytes_fetched", MetricLabel{"tenant", "a"}) += 10;
  reg.counter("bytes_fetched", MetricLabel{"tenant", "b"}) += 20;
  EXPECT_EQ(reg.counter_value("bytes_fetched{tenant=a}"), 10u);
  const auto family = reg.family_values("bytes_fetched");
  ASSERT_EQ(family.size(), 3u);
  EXPECT_EQ(family[0].first, "");
  EXPECT_EQ(family[0].second, 7u);
  EXPECT_EQ(family[1].first, "tenant=a");
  EXPECT_EQ(family[2].first, "tenant=b");
  EXPECT_EQ(reg.family_total("bytes_fetched"), 37u);
  // Registration order exposes labeled members to generic snapshots.
  EXPECT_EQ(reg.counter_names().back(), "bytes_fetched{tenant=b}");
}

TEST(MetricLabels, FamilyScanDoesNotMatchPrefixFamilies) {
  MetricsRegistry reg;
  reg.counter("cache_hits", MetricLabel{"tenant", "a"}) += 1;
  reg.counter("cache_hits_extra") += 5;
  EXPECT_EQ(reg.family_total("cache_hits"), 1u);
  EXPECT_TRUE(reg.family_values("cache").empty());
}

// ---- Registry admission + attribution ------------------------------------

class TenantRegistryTest : public ::testing::Test {
 protected:
  TenantRegistryTest()
      : machine_(test_machine()),
        fs_(machine_.fs, /*nnodes=*/4),
        ds_(datagen::make_dataset(datagen::DatasetKind::AisdHomoLumo, kSamples,
                                  7)) {
    formats::CffWriter::stage(fs_, "cff/ds", *ds_, 2);
  }

  fs::FsClient client_for(simmpi::Comm& c) {
    return fs::FsClient(fs_, machine_.node_of_rank(c.world_rank()), c.clock(),
                        c.rng());
  }

  formats::CffReader cff_reader() {
    return formats::CffReader(fs_, "cff/ds",
                              ds_->spec().nominal_cff_sample_bytes());
  }

  model::MachineConfig machine_;
  fs::ParallelFileSystem fs_;
  std::unique_ptr<datagen::SyntheticDataset> ds_;
};

TEST_F(TenantRegistryTest, AdmissionValidatesSpecs) {
  simmpi::Runtime rt(2, machine_);
  const auto reader = cff_reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    core::DDStore store(c, reader, client, core::DDStoreConfig{});
    AdmissionConfig admission;
    admission.max_tenants = 2;
    admission.step_demand_budget_bytes =
        3 * 8 * store.nominal_sample_bytes();  // fits two 8-sample tenants
    TenantRegistry reg(store, admission);

    TenantSpec ok;
    ok.name = "alice";
    ok.local_batch = 8;
    EXPECT_NO_THROW(reg.admit(ok));
    // Whole-store mount resolved at admission.
    EXPECT_EQ(reg.at(0).spec().mount_samples, kSamples);

    TenantSpec dup = ok;
    EXPECT_THROW(reg.admit(dup), ConfigError);  // duplicate name

    TenantSpec unnamed;
    EXPECT_THROW(reg.admit(unnamed), ConfigError);

    TenantSpec out_of_bounds;
    out_of_bounds.name = "bob";
    out_of_bounds.mount_first = kSamples - 4;
    out_of_bounds.mount_samples = 8;
    EXPECT_THROW(reg.admit(out_of_bounds), ConfigError);

    TenantSpec bad_weight;
    bad_weight.name = "carol";
    bad_weight.weight = 0.0;
    EXPECT_THROW(reg.admit(bad_weight), ConfigError);

    TenantSpec over_budget;
    over_budget.name = "dave";
    over_budget.local_batch = 32;  // 8 + 32 > 24-sample budget
    EXPECT_THROW(reg.admit(over_budget), ConfigError);

    TenantSpec bob;
    bob.name = "bob";
    bob.mount_first = 16;
    bob.mount_samples = 32;
    bob.local_batch = 8;
    EXPECT_NO_THROW(reg.admit(bob));
    EXPECT_EQ(reg.size(), 2u);

    TenantSpec third;
    third.name = "erin";
    third.local_batch = 1;
    EXPECT_THROW(reg.admit(third), ConfigError);  // max_tenants
  });
}

TEST_F(TenantRegistryTest, MountedBackendTranslatesAndAttributes) {
  simmpi::Runtime rt(2, machine_);
  const auto reader = cff_reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    core::DDStoreConfig cfg;
    cfg.cache_capacity_bytes = std::numeric_limits<std::uint64_t>::max();
    core::DDStore store(c, reader, client, cfg);
    TenantRegistry reg(store);
    TenantSpec spec;
    spec.name = "alice";
    spec.mount_first = 16;
    spec.mount_samples = 16;
    TenantContext& alice = reg.admit(spec);

    // Mounted id 0 is store id 16 — payloads must agree exactly.
    const auto via_tenant = alice.backend().load(0);
    EXPECT_EQ(via_tenant, ds_->make(16));

    // The load was charged to alice's labeled counters...
    const auto& m = store.metrics();
    const std::uint64_t alice_bytes =
        m.counter_value("bytes_fetched{tenant=alice}") +
        m.counter_value("cache_hit_bytes{tenant=alice}");
    EXPECT_GT(alice_bytes, 0u);
    // ...in addition to (not instead of) the global counters.
    EXPECT_EQ(m.counter_value("bytes_fetched") +
                  m.counter_value("cache_hit_bytes"),
              alice_bytes);
    // And the latency recorder saw exactly one sample.
    EXPECT_EQ(alice.latencies().count(), 1u);

    // A load that bypasses the mount charges only the global counters.
    (void)store.get(0);
    EXPECT_GT(m.counter_value("bytes_fetched") +
                  m.counter_value("cache_hit_bytes"),
              m.counter_value("bytes_fetched{tenant=alice}") +
                  m.counter_value("cache_hit_bytes{tenant=alice}"));

    // Cache attribution: a repeat load is a hit charged to alice.
    (void)alice.backend().load(0);
    EXPECT_EQ(m.counter_value("cache_hits{tenant=alice}"), 1u);
    EXPECT_GT(m.counter_value("cache_hit_bytes{tenant=alice}"), 0u);

    // Out-of-mount ids are rejected.
    EXPECT_THROW(alice.backend().load(16), Error);
  });
}

}  // namespace
}  // namespace dds::tenant

// Elastic replica groups (ISSUE 5): does the adaptive width controller land
// on the width an offline sweep would pick, and what does each live reshard
// cost?
//
// Three sections over 8 Perlmutter ranks on AISD HOMO-LUMO:
//   width_sweep    — mean fetch-drain epoch seconds at every static divisor
//                    width (the offline oracle the controller competes with);
//   reshard_costs  — per transition on the divisor ladder: bytes kept
//                    resident vs pulled, the planner's modeled seconds, and
//                    the measured virtual seconds of the live reshard;
//   adaptive       — an ElasticDriver walking the store from full stripe to
//                    its budget floor, with the per-epoch width trajectory;
//   trainer_hook   — the same driver mounted on SimulatedTrainer's
//                    epoch-end hook, proving the reshard composes with a
//                    full training epoch (loader + compute + all-reduce).
//
// The drain epochs use the GlobalShuffleSampler access pattern (the one
// DDStore exists to serve), so epoch time is monotone in width and the
// sweep argmin is well defined.  Output is one JSON object.
//
// --smoke exits nonzero unless the controller converged within tolerance
// of the sweep argmin over budget-feasible widths.  DDS_ELASTIC_DEBUG=1
// prints the controller's per-epoch reason and signal to stderr.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/harness.hpp"
#include "elastic/driver.hpp"
#include "elastic/executor.hpp"
#include "elastic/plan.hpp"
#include "train/sampler.hpp"

using namespace dds;
using namespace dds::bench;

namespace {

constexpr int kRanks = 8;
constexpr std::uint64_t kSamples = 640;
constexpr std::uint64_t kLocalBatch = 16;

/// One fetch-drain epoch: every rank pulls its GlobalShuffleSampler slices
/// through the store.  Returns the epoch's virtual seconds: both ends follow
/// a barrier, so every rank reads the same duration.
double drain_epoch(core::DDStore& store, train::Sampler& sampler,
                   simmpi::Comm& c, std::uint64_t epoch) {
  sampler.begin_epoch(epoch, c);
  c.barrier();
  const double t0 = c.clock().now();
  for (std::uint64_t step = 0; step < sampler.steps_per_epoch(); ++step) {
    for (const std::uint64_t id : sampler.batch_ids(step)) {
      (void)store.get(id);  // the decode path records sample_load_s
    }
  }
  c.barrier();
  return c.clock().now() - t0;
}

struct SweepPoint {
  int width = 0;
  double epoch_s = 0;
};

struct ReshardCost {
  int from = 0;
  int to = 0;
  std::uint64_t pull_bytes = 0;
  std::uint64_t keep_bytes = 0;
  double modeled_s = 0;
  double measured_s = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const model::MachineConfig machine = model::perlmutter();
  const int epochs_per_width = 2;

  StagedData data(machine, datagen::DatasetKind::AisdHomoLumo, kSamples,
                  kRanks, /*with_pff=*/false);

  std::vector<SweepPoint> sweep;
  std::vector<ReshardCost> costs;
  std::vector<int> trajectory;
  std::vector<int> hook_widths;
  std::uint64_t budget = 0;
  std::uint64_t dataset_bytes_nominal = 0;
  std::uint64_t reshard_count = 0;
  int final_width = 0;
  bool converged = false;

  // ---- width_sweep: static epochs at every divisor width --------------
  for (const int width : {1, 2, 4, 8}) {
    data.fs().reset_time_state();
    simmpi::Runtime rt(kRanks, machine, /*seed=*/42);
    rt.run([&](simmpi::Comm& c) {
      fs::FsClient client(data.fs(), machine.node_of_rank(c.world_rank()),
                          c.clock(), c.rng());
      core::DDStoreConfig cfg;
      cfg.width = width;
      core::DDStore store(c, data.cff(), client, cfg);
      train::GlobalShuffleSampler sampler(kSamples, kLocalBatch, /*seed=*/42);
      c.clock().reset();
      double total = 0;
      for (int e = 0; e < epochs_per_width; ++e) {
        total += drain_epoch(store, sampler, c, static_cast<std::uint64_t>(e));
      }
      if (c.rank() == 0) {
        sweep.push_back({width, total / epochs_per_width});
      }
      store.fence();
    });
  }

  // ---- reshard_costs: each step of the ladder, modeled vs measured ----
  {
    data.fs().reset_time_state();
    simmpi::Runtime rt(kRanks, machine, /*seed=*/42);
    rt.run([&](simmpi::Comm& c) {
      fs::FsClient client(data.fs(), machine.node_of_rank(c.world_rank()),
                          c.clock(), c.rng());
      core::DDStoreConfig cfg;
      cfg.width = 8;
      core::DDStore store(c, data.cff(), client, cfg);
      for (const int to : {4, 2, 1, 8}) {
        const int from = store.width();
        const core::Layout from_layout = store.layout();
        const elastic::ReshardPlan preview =
            elastic::plan_reshard(from_layout, from_layout.with_width(to));
        const double modeled = elastic::estimate_reshard_seconds(
            preview, machine, store.nominal_sample_bytes());
        c.barrier();
        const double t0 = c.clock().now();
        const elastic::ReshardPlan plan = elastic::reshard(store, to);
        // reshard ends in a collective (the new window's registration), so
        // every rank reads the same duration.
        const double measured = c.clock().now() - t0;
        if (c.rank() == 0) {
          costs.push_back({from, to, plan.total_pull_bytes,
                           plan.total_keep_bytes, modeled, measured});
        }
      }
      store.fence();
    });
  }

  // ---- adaptive: ElasticDriver walks full stripe -> budget floor ------
  {
    data.fs().reset_time_state();
    simmpi::Runtime rt(kRanks, machine, /*seed=*/42);
    rt.run([&](simmpi::Comm& c) {
      fs::FsClient client(data.fs(), machine.node_of_rank(c.world_rank()),
                          c.clock(), c.rng());
      core::DDStoreConfig cfg;
      cfg.width = kRanks;
      core::DDStore store(c, data.cff(), client, cfg);
      const std::uint64_t dataset_bytes =
          store.num_samples() * store.nominal_sample_bytes();
      elastic::ElasticConfig ecfg;
      // Floor at width 2: a width-1 chunk (the whole dataset) busts the
      // budget, a width-2 chunk fits with a byte to spare.
      ecfg.memory_budget_per_rank = dataset_bytes / 2 + 1;
      elastic::ElasticDriver driver(store, ecfg);
      train::GlobalShuffleSampler sampler(kSamples, kLocalBatch, /*seed=*/42);
      c.clock().reset();
      for (int e = 0; e < 6; ++e) {
        const double elapsed =
            drain_epoch(store, sampler, c, static_cast<std::uint64_t>(e));
        driver.on_epoch_end(elapsed);
        if (c.rank() == 0 && std::getenv("DDS_ELASTIC_DEBUG")) {
          const auto s = store.stats();
          std::fprintf(stderr,
                       "epoch %d: reason=%s width=%d local=%llu remote=%llu "
                       "lat_n=%llu elapsed=%f\n",
                       e, driver.last_reason(), store.width(),
                       static_cast<unsigned long long>(s.local_gets),
                       static_cast<unsigned long long>(s.remote_gets),
                       static_cast<unsigned long long>(s.latency.count()),
                       elapsed);
        }
      }
      if (c.rank() == 0) {
        trajectory = driver.width_trajectory();
        budget = ecfg.memory_budget_per_rank;
        dataset_bytes_nominal = dataset_bytes;
        final_width = store.width();
        converged = driver.controller().converged();
        reshard_count = store.stats().reshards;
      }
      store.fence();
    });
  }

  // ---- trainer_hook: the driver mounted on SimulatedTrainer -----------
  {
    data.fs().reset_time_state();
    simmpi::Runtime rt(kRanks, machine, /*seed=*/42);
    rt.run([&](simmpi::Comm& c) {
      fs::FsClient client(data.fs(), machine.node_of_rank(c.world_rank()),
                          c.clock(), c.rng());
      core::DDStoreConfig cfg;
      cfg.width = kRanks;
      core::DDStore store(c, data.cff(), client, cfg);
      train::DDStoreBackend backend(store);
      train::GlobalShuffleSampler sampler(kSamples, kLocalBatch, /*seed=*/42);
      train::SimTrainerConfig tcfg;
      tcfg.input_dim = data.input_dim();
      tcfg.output_dim = data.dataset().spec().target_dim;
      train::SimulatedTrainer trainer(c, backend, sampler, machine, tcfg);
      elastic::ElasticConfig ecfg;
      ecfg.memory_budget_per_rank =
          store.num_samples() * store.nominal_sample_bytes() / 2 + 1;
      elastic::ElasticDriver driver(store, ecfg);
      std::vector<int> widths;
      trainer.set_epoch_end_hook([&](const train::EpochReport& report) {
        driver.on_epoch_end(report.epoch_seconds);
        widths.push_back(store.width());
      });
      for (int e = 0; e < 3; ++e) {
        (void)trainer.run_epoch(static_cast<std::uint64_t>(e));
      }
      if (c.rank() == 0) hook_widths = widths;
      store.fence();
    });
  }

  // ---- report ---------------------------------------------------------
  std::printf("{\n  \"machine\": \"perlmutter\", \"nranks\": %d, "
              "\"samples\": %llu,\n",
              kRanks, static_cast<unsigned long long>(kSamples));
  std::printf("  \"width_sweep\": [");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    std::printf("%s{\"width\": %d, \"epoch_s\": %s}", i ? ", " : "",
                sweep[i].width, fmt(sweep[i].epoch_s, 4).c_str());
  }
  std::printf("],\n  \"reshard_costs\": [\n");
  for (std::size_t i = 0; i < costs.size(); ++i) {
    const ReshardCost& rc = costs[i];
    std::printf("    {\"from\": %d, \"to\": %d, \"pull_bytes\": %llu, "
                "\"keep_bytes\": %llu, \"modeled_s\": %s, "
                "\"measured_s\": %s}%s\n",
                rc.from, rc.to, static_cast<unsigned long long>(rc.pull_bytes),
                static_cast<unsigned long long>(rc.keep_bytes),
                fmt(rc.modeled_s, 6).c_str(), fmt(rc.measured_s, 6).c_str(),
                i + 1 < costs.size() ? "," : "");
  }
  std::printf("  ],\n  \"adaptive\": {\"budget_bytes\": %llu, "
              "\"trajectory\": [",
              static_cast<unsigned long long>(budget));
  for (std::size_t i = 0; i < trajectory.size(); ++i) {
    std::printf("%s%d", i ? ", " : "", trajectory[i]);
  }
  std::printf("], \"final_width\": %d, \"converged\": %s, "
              "\"reshards\": %llu},\n",
              final_width, converged ? "true" : "false",
              static_cast<unsigned long long>(reshard_count));
  std::printf("  \"trainer_hook_widths\": [");
  for (std::size_t i = 0; i < hook_widths.size(); ++i) {
    std::printf("%s%d", i ? ", " : "", hook_widths[i]);
  }
  std::printf("]\n}\n");

  if (smoke) {
    // Acceptance: the controller must land within tolerance of the width
    // the offline sweep picks among budget-feasible widths.  Tolerance
    // mirrors the controller's own tie semantics: widths whose epoch times
    // differ by less than a few percent are interchangeable, and the
    // controller prefers the smaller one (more replicas, cheaper fetches
    // under faults).
    constexpr double kTiePct = 0.05;
    int best = 0;
    double best_s = 0;
    double final_s = -1;
    for (const SweepPoint& p : sweep) {
      const std::uint64_t chunk =
          (dataset_bytes_nominal + static_cast<std::uint64_t>(p.width) - 1) /
          static_cast<std::uint64_t>(p.width);
      if (p.width == final_width) final_s = p.epoch_s;
      if (chunk > budget) continue;  // infeasible: the oracle skips it too
      if (best == 0 || p.epoch_s < best_s) {
        best = p.width;
        best_s = p.epoch_s;
      }
    }
    if (!converged || final_s < 0 || final_s > best_s * (1.0 + kTiePct)) {
      std::fprintf(stderr,
                   "SMOKE FAIL: controller landed on width %d (%.4fs, "
                   "converged=%d); sweep argmin over feasible widths is %d "
                   "(%.4fs)\n",
                   final_width, final_s, converged ? 1 : 0, best, best_s);
      return 1;
    }
    std::fprintf(stderr,
                 "smoke ok: adaptive width %d (%.4fs) within %.0f%% of "
                 "sweep argmin %d (%.4fs)\n",
                 final_width, final_s, kTiePct * 100, best, best_s);
  }
  return 0;
}

// CI perf gate: pinned canonical configurations whose modeled epoch times
// must be *exactly* reproducible run-to-run.
//
// Every cell runs under the cooperative fiber scheduler, so the
// virtual-time model produces bit-identical doubles on repeated runs of the
// same binary.  The sweep is width {1,2,4} x batch fetch {per-sample,
// coalesced} x cache {off, unbounded} on 8 Perlmutter ranks, every cell
// running the trainer's one step pipeline at prefetch depth 2 — 12 cells
// covering the fetch planner, the prefetch overlap, and the hot-sample
// cache; the "pipeline" field labels them "per-sample" and
// "coalesced+prefetch" — plus
// one width-4 cell per off-by-default feature (hedging, a half-cold tier,
// owner-greedy scheduling, injected faults; the hedge cell adds a late
// straggler so hedges fire), marked with a "feature" field.  Two more
// width-4 cells gate the fault paths of the other read shapes: the faults
// cell's settings plus 1% link loss and 20 us jitter on the coalesced
// pipeline ("faults+links": failed and corrupt vectored gets), and the
// hedge cell's straggler over flaky, corrupting, lossy links
// ("hedge+faults": hedged legs that fail).  Every cell
// reports the same counter schema, so each feature's counters are
// exact-gated with real values.  A last "tenants=2 wrr" cell runs two
// tenants weighted 2:1 through the MultiTenantDriver over one width-4
// coalescing, caching store; it reports a "tenants" array, one entry per
// tenant with its per-epoch epoch_seconds and its labeled counters summed
// over the run.
//
// Output is a JSON array (one object per cell) with epoch times printed at
// %.17g — enough digits to round-trip an IEEE-754 double exactly — plus
// every backend counter.  tools/check_perf.py diffs a fresh run against
// the committed BENCH_ci_perf.json baseline and fails CI on any
// non-identical value; tools/perf_gate_test.sh is the ctest wrapper.
//
// --perturb scales the modeled inter-node network latency by 1e-4 (a
// deliberately tiny cost-model change).  It exists only to prove the gate
// has teeth: a perturbed run must *fail* check_perf.py.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/harness.hpp"
#include "tenant/driver.hpp"

using namespace dds;
using namespace dds::bench;

namespace {

/// Shortest decimal string that round-trips the double exactly (IEEE-754
/// binary64 needs at most 17 significant digits).
std::string exact(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

enum class Feature {
  None,
  Hedge,
  HalfCold,
  OwnerGreedy,
  Faults,
  LinkFaults,
  HedgeFaults
};

/// 1% loss and 20 us mean jitter on every link, for the whole run.
const faults::LinkPhase kLossyLinks{-1, -1, 0.01, 20e-6};

struct Cell {
  int width;
  bool coalesced;   ///< false = per-sample batch fetch
  bool cache;       ///< true = unbounded per-rank LRU
  Feature feature = Feature::None;
};

const char* feature_name(Feature f) {
  switch (f) {
    case Feature::None: return "none";
    case Feature::Hedge: return "hedge";
    case Feature::HalfCold: return "hot_fraction=0.5";
    case Feature::OwnerGreedy: return "owner_greedy";
    case Feature::Faults: return "faults";
    case Feature::LinkFaults: return "faults+links";
    case Feature::HedgeFaults: return "hedge+faults";
  }
  return "?";
}

void print_cell(bool first, const Cell& cell, const RunResult& result) {
  if (!first) std::printf(",\n");
  std::printf(
      "  {\"machine\": \"perlmutter\", \"nranks\": 8, \"width\": %d, "
      "\"pipeline\": \"%s\", \"cache\": \"%s\", ",
      cell.width, cell.coalesced ? "coalesced+prefetch" : "per-sample",
      cell.cache ? "unbounded" : "off");
  if (cell.feature != Feature::None) {
    std::printf("\"feature\": \"%s\", ", feature_name(cell.feature));
  }
  std::printf("\"epoch_seconds\": [");
  for (std::size_t i = 0; i < result.epochs.size(); ++i) {
    if (i != 0) std::printf(", ");
    std::printf("%s", exact(result.epochs[i].epoch_seconds).c_str());
  }
  std::printf("], \"overlap_hidden_s\": [");
  for (std::size_t i = 0; i < result.epochs.size(); ++i) {
    if (i != 0) std::printf(", ");
    std::printf("%s", exact(result.epochs[i].overlap_hidden_s).c_str());
  }
  const std::string counters = metrics_json_fields(result.summed_metrics());
  std::printf("], \"counters\": {%s}}", counters.c_str());
}

/// Two tenants weighted 2:1 (seeds 42/43) under weighted round-robin over
/// one width-4 Coalesced store with an unbounded cache: the shared-store
/// read path, per-tenant attribution and arbiter interleaving under the
/// exact gate.
void print_tenant_cell(StagedData& data, const Scenario& sc) {
  std::vector<tenant::TenantSpec> specs(2);
  specs[0].name = "a";
  specs[0].seed = 42;
  specs[0].weight = 2.0;
  specs[1].name = "b";
  specs[1].seed = 43;
  specs[1].weight = 1.0;
  for (auto& s : specs) s.local_batch = sc.local_batch;

  data.fs().reset_time_state();
  std::vector<std::vector<tenant::TenantEpochReport>> epochs;
  simmpi::Runtime rt(sc.nranks, sc.machine, sc.seed);
  rt.run([&](simmpi::Comm& comm) {
    fs::FsClient client(data.fs(), sc.machine.node_of_rank(comm.world_rank()),
                        comm.clock(), comm.rng());
    core::DDStoreConfig cfg = sc.ddstore;
    cfg.width = 4;
    cfg.batch_fetch = core::BatchFetchMode::Coalesced;
    cfg.cache_capacity_bytes = 1ull << 40;
    core::DDStore store(comm, data.cff(), client, cfg);
    tenant::TenantRegistry registry(store);
    for (const auto& s : specs) registry.admit(s);
    tenant::DriverConfig dcfg;
    dcfg.input_dim = data.input_dim();
    tenant::MultiTenantDriver driver(comm, registry, sc.machine, dcfg);
    for (int e = 0; e < sc.epochs; ++e) {
      auto reports = driver.run_epoch(static_cast<std::uint64_t>(e));
      if (comm.rank() == 0) epochs.push_back(std::move(reports));
    }
  });

  std::printf(
      ",\n  {\"machine\": \"perlmutter\", \"nranks\": %d, \"width\": 4, "
      "\"pipeline\": \"coalesced\", \"cache\": \"unbounded\", "
      "\"feature\": \"tenants=2 wrr\", \"tenants\": [",
      sc.nranks);
  for (std::size_t k = 0; k < specs.size(); ++k) {
    std::uint64_t bytes = 0, hits = 0, misses = 0, hit_bytes = 0, locks = 0,
                  served = 0;
    int max_wait = 0;
    std::string seconds;
    for (const auto& reports : epochs) {
      const tenant::TenantEpochReport& r = reports[k];
      if (!seconds.empty()) seconds += ", ";
      seconds += exact(r.epoch_seconds);
      bytes += r.bytes_fetched;
      hits += r.cache_hits;
      misses += r.cache_misses;
      hit_bytes += r.cache_hit_bytes;
      locks += r.lock_epochs;
      served += r.served_bytes;
      max_wait = std::max(max_wait, r.max_wait_grants);
    }
    std::printf(
        "%s\n    {\"name\": \"%s\", \"epoch_seconds\": [%s], \"counters\": "
        "{\"bytes_fetched\": %llu, \"cache_hits\": %llu, "
        "\"cache_misses\": %llu, \"cache_hit_bytes\": %llu, "
        "\"lock_epochs\": %llu, \"served_bytes\": %llu, "
        "\"max_wait_grants\": %d}}",
        k == 0 ? "" : ",", specs[k].name.c_str(), seconds.c_str(),
        static_cast<unsigned long long>(bytes),
        static_cast<unsigned long long>(hits),
        static_cast<unsigned long long>(misses),
        static_cast<unsigned long long>(hit_bytes),
        static_cast<unsigned long long>(locks),
        static_cast<unsigned long long>(served), max_wait);
  }
  std::printf("]}");
}

}  // namespace

int main(int argc, char** argv) {
  bool perturb = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--perturb") == 0) perturb = true;
  }

  model::MachineConfig machine = model::perlmutter();
  if (perturb) {
    // Synthetic cost-model drift for the gate's self-test: must be caught
    // by tools/check_perf.py as a non-identical modeled time.
    machine.net.inter_latency_s *= 1.0001;
  }

  Scenario sc;
  sc.machine = machine;
  sc.kind = datagen::DatasetKind::AisdExDiscrete;
  sc.nranks = 8;
  sc.local_batch = 8;
  sc.epochs = 2;
  sc.num_samples = scaled_samples(sc.nranks, sc.local_batch, /*min_steps=*/3,
                                  /*floor_samples=*/256);
  sc.seed = 42;
  sc.ddstore.charge_replica_preload = false;

  StagedData data(machine, sc.kind, sc.num_samples, sc.nranks,
                  /*with_pff=*/false);

  std::vector<Cell> cells;
  for (const int width : {1, 2, 4}) {
    for (const bool coalesced : {false, true}) {
      for (const bool cache : {false, true}) {
        cells.push_back(Cell{width, coalesced, cache});
      }
    }
  }
  cells.push_back(Cell{4, false, false, Feature::Hedge});
  cells.push_back(Cell{4, true, false, Feature::HalfCold});
  cells.push_back(Cell{4, false, false, Feature::OwnerGreedy});
  cells.push_back(Cell{4, false, false, Feature::Faults});
  cells.push_back(Cell{4, true, false, Feature::LinkFaults});
  cells.push_back(Cell{4, false, false, Feature::HedgeFaults});

  std::printf("[\n");
  bool first = true;
  for (const Cell& cell : cells) {
    Scenario run = sc;
    run.ddstore.width = cell.width;
    run.ddstore.batch_fetch = cell.coalesced
                                  ? core::BatchFetchMode::Coalesced
                                  : core::BatchFetchMode::PerSample;
    run.ddstore.cache_capacity_bytes =
        cell.cache ? (1ull << 40) : 0;  // unbounded in practice
    switch (cell.feature) {
      case Feature::None:
        break;
      case Feature::Hedge:
        // Rank 1 slows 10x from the second epoch on, once every target's
        // deadline has calibrated, so hedges actually fire.
        run.ddstore.hedge = true;
        run.faults.slowdowns.push_back(faults::SlowdownPhase{1, 10.0, 0.04});
        break;
      case Feature::HalfCold:
        run.ddstore.tiered.hot_fraction = 0.5;
        break;
      case Feature::OwnerGreedy:
        run.ddstore.locality_mode = core::LocalityMode::OwnerGreedy;
        break;
      case Feature::Faults:
      case Feature::LinkFaults:
        // Flaky and corrupting transport plus a dead rank 5; its twin,
        // rank 1, dies from the second epoch on, so retries, failovers,
        // checksum rejects, breaker trips and the FS fallback all fire.
        // The faults+links cell adds lossy, jittery links under the
        // coalesced pipeline's vectored transfers.
        run.faults.rma_fail_prob = 0.05;
        run.faults.rma_corrupt_prob = 0.02;
        run.faults.dead_rank = 5;
        run.faults.deaths.push_back(faults::DeathPhase{1, 0.04});
        if (cell.feature == Feature::LinkFaults) {
          run.faults.links.push_back(kLossyLinks);
        }
        break;
      case Feature::HedgeFaults:
        // The hedge cell's straggler over a flaky, corrupting, lossy
        // transport: hedged legs fail, win, and deliver bad bytes.
        run.ddstore.hedge = true;
        run.faults.slowdowns.push_back(faults::SlowdownPhase{1, 10.0, 0.04});
        run.faults.rma_fail_prob = 0.05;
        run.faults.rma_corrupt_prob = 0.02;
        run.faults.links.push_back(kLossyLinks);
        break;
    }
    const auto result = run_training(data, run, BackendKind::DDStore);
    print_cell(first, cell, result);
    first = false;
  }
  print_tenant_cell(data, sc);
  std::printf("\n]\n");
  return 0;
}

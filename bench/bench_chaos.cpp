// Chaos scenario runner (gray-failure resilience PR): drives every
// builtin_scenarios() compound fault schedule through a real DDStore and
// checks the chaos invariants after each one.
//
// Per scenario:
//   1. a fault-free reference run measures T, the baseline epoch duration
//      (and the baseline fetch-latency p99);
//   2. the scenario's normalized schedule is materialized against T, armed
//      on a fresh deterministic runtime, and the run is driven epoch by
//      epoch — every fetched sample is compared byte-for-byte against the
//      synthetic dataset's ground truth, every epoch duration is checked
//      against the inflation bound, counters are audited at the end;
//   3. a same-seed replay re-runs the scenario and every epoch duration
//      must be bit-identical (the determinism invariant);
//   4. single_straggler additionally runs a hedging-disabled A/B twin: the
//      pinned cell requires hedged p99 fetch latency to be >= 3x better.
//
// All runs use the cooperative fiber scheduler, so the replay check is
// exact, not statistical.  Output is one JSON object with
// a per-scenario verdict; --smoke exits nonzero if any scenario fails an
// invariant or the pinned A/B cell misses.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/harness.hpp"
#include "elastic/driver.hpp"
#include "faults/chaos.hpp"
#include "train/sampler.hpp"

using namespace dds;
using namespace dds::bench;

namespace {

constexpr int kRanks = 4;
constexpr int kWidth = 2;  // two replica groups: every chunk has a twin
constexpr std::uint64_t kSamples = 128;
constexpr std::uint64_t kLocalBatch = 8;
constexpr int kEpochs = 4;
constexpr double kMinHedgeP99Speedup = 3.0;  // pinned A/B cell

/// Everything one scenario run reports back to the host side.
struct ChaosRun {
  std::vector<double> epoch_s;     ///< per-epoch duration, equal on every rank
  std::vector<double> latencies;   ///< every fetch's virtual latency, all ranks
  bool samples_identical = true;
  faults::CounterAudit audit;
  std::uint64_t rank_rebuilds = 0;
  std::uint64_t quarantine_steers = 0;
};

double p99(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t idx =
      std::min(v.size() - 1,
               static_cast<std::size_t>(0.99 * static_cast<double>(v.size())));
  return v[idx];
}

/// One full run of `scenario` (or the fault-free reference when
/// `reference_T` <= 0): kEpochs drain epochs of the global-shuffle access
/// pattern, fetching raw bytes so ground-truth comparison is exact.
ChaosRun run_scenario(StagedData& data, const model::MachineConfig& machine,
                       const std::vector<ByteBuffer>& expected,
                       const faults::ChaosScenario& scenario,
                       double reference_T, bool hedge_on) {
  data.fs().reset_time_state();
  std::vector<ChaosRun> ranks(kRanks);  // each rank's share, index = rank
  std::vector<core::DDStoreStats> stats(kRanks);
  simmpi::Runtime rt(kRanks, machine, /*seed=*/42);
  if (reference_T > 0.0 && scenario.faults.any()) {
    rt.set_fault_injector(std::make_shared<faults::FaultInjector>(
        faults::materialize(scenario.faults, reference_T), kRanks));
  }
  rt.run([&](simmpi::Comm& c) {
    fs::FsClient client(data.fs(), machine.node_of_rank(c.world_rank()),
                        c.clock(), c.rng());
    core::DDStoreConfig cfg;
    cfg.width = kWidth;
    cfg.charge_replica_preload = false;
    cfg.hedge = hedge_on;
    core::DDStore store(c, data.cff(), client, cfg);
    std::unique_ptr<elastic::ElasticDriver> driver;
    if (scenario.wants_elastic) {
      elastic::ElasticConfig ecfg;
      ecfg.adapt_width = false;  // isolate fault recovery from adaptation
      driver = std::make_unique<elastic::ElasticDriver>(store, ecfg);
    }
    train::GlobalShuffleSampler sampler(kSamples, kLocalBatch, /*seed=*/42);
    c.clock().reset();
    ChaosRun& mine = ranks[static_cast<std::size_t>(c.rank())];
    for (int e = 0; e < kEpochs; ++e) {
      sampler.begin_epoch(static_cast<std::uint64_t>(e), c);
      c.barrier();
      const double t0 = c.clock().now();
      for (std::uint64_t step = 0; step < sampler.steps_per_epoch(); ++step) {
        for (const std::uint64_t id : sampler.batch_ids(step)) {
          const double f0 = c.clock().now();
          const ByteBuffer bytes = store.get_bytes(id);
          mine.latencies.push_back(c.clock().now() - f0);
          if (bytes != expected[static_cast<std::size_t>(id)]) {
            mine.samples_identical = false;
          }
        }
      }
      c.barrier();
      // Both ends follow a barrier, so every rank reads the same duration.
      const double elapsed = c.clock().now() - t0;
      if (driver) driver->on_epoch_end(elapsed);
      mine.epoch_s.push_back(elapsed);
    }
    stats[static_cast<std::size_t>(c.rank())] = store.stats();
    store.fence();
  });

  ChaosRun out;
  out.epoch_s = ranks[0].epoch_s;
  for (int r = 0; r < kRanks; ++r) {
    const ChaosRun& share = ranks[static_cast<std::size_t>(r)];
    out.latencies.insert(out.latencies.end(), share.latencies.begin(),
                         share.latencies.end());
    out.samples_identical = out.samples_identical && share.samples_identical;
    const core::DDStoreStats& s = stats[static_cast<std::size_t>(r)];
    out.audit.hedged_fetches += s.hedged_fetches;
    out.audit.hedge_wins += s.hedge_wins;
    out.audit.hedge_mismatches += s.hedge_mismatches;
    out.audit.degraded_reads += s.degraded_reads;
    out.audit.checksum_failures += s.checksum_failures;
    out.rank_rebuilds += s.rank_rebuilds;
    out.quarantine_steers += s.quarantine_steers;
  }
  return out;
}

struct Verdict {
  std::string name;
  bool passed = true;
  std::vector<std::string> violations;
  ChaosRun run;
  std::string note;
};

void print_json_string(const std::string& s) {
  std::printf("\"");
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') std::printf("\\%c", ch);
    else std::printf("%c", ch);
  }
  std::printf("\"");
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const model::MachineConfig machine = model::perlmutter();
  StagedData data(machine, datagen::DatasetKind::AisdHomoLumo, kSamples,
                  kRanks, /*with_pff=*/false);
  std::vector<ByteBuffer> expected;
  expected.reserve(kSamples);
  for (std::uint64_t id = 0; id < kSamples; ++id) {
    expected.push_back(data.dataset().make(id).to_bytes());
  }

  // Fault-free, hedging-off reference: T and the baseline p99.
  const faults::ChaosScenario reference;  // empty schedule
  const ChaosRun ref = run_scenario(data, machine, expected, reference,
                                     /*reference_T=*/0.0, /*hedge_on=*/false);
  double T = 0.0;
  for (const double e : ref.epoch_s) T = std::max(T, e);
  const double ref_p99 = p99(ref.latencies);

  std::vector<Verdict> verdicts;
  double straggler_p99_on = 0.0;
  double straggler_p99_off = 0.0;

  for (const faults::ChaosScenario& sc : faults::builtin_scenarios(kRanks)) {
    Verdict v;
    v.name = sc.name;
    v.note = sc.note;
    const ChaosRun run = run_scenario(data, machine, expected, sc, T,
                                       sc.wants_hedging);
    const ChaosRun replay = run_scenario(data, machine, expected, sc, T,
                                          sc.wants_hedging);
    faults::InvariantChecker checker(T, sc.max_inflation);
    for (std::size_t e = 0; e < run.epoch_s.size(); ++e) {
      checker.on_epoch(static_cast<int>(e),
                       {run.epoch_s[e], run.samples_identical});
    }
    checker.on_counters(run.audit, sc.allows_degraded);
    checker.on_replay(run.epoch_s, replay.epoch_s);
    v.violations = checker.violations();
    if (sc.name == "baseline_no_faults" && run.audit.hedged_fetches != 0) {
      v.violations.push_back("baseline: " +
                             std::to_string(run.audit.hedged_fetches) +
                             " hedges fired with no fault armed");
    }
    if (sc.name == "dead_twin_rebuild" && run.rank_rebuilds == 0) {
      v.violations.push_back(
          "dead_twin_rebuild: the elastic driver never rebuilt the dead "
          "rank's chunk");
    }
    if (sc.name == "single_straggler") {
      straggler_p99_on = p99(run.latencies);
      const ChaosRun off = run_scenario(data, machine, expected, sc, T,
                                         /*hedge_on=*/false);
      straggler_p99_off = p99(off.latencies);
      if (straggler_p99_on <= 0.0 ||
          straggler_p99_off / straggler_p99_on < kMinHedgeP99Speedup) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "pinned cell: hedged p99 speedup %.2fx < %.1fx",
                      straggler_p99_on > 0.0
                          ? straggler_p99_off / straggler_p99_on
                          : 0.0,
                      kMinHedgeP99Speedup);
        v.violations.push_back(buf);
      }
    }
    v.passed = v.violations.empty();
    v.run = run;
    verdicts.push_back(std::move(v));
  }

  // ---- report ---------------------------------------------------------
  bool all_passed = true;
  std::printf("{\n  \"machine\": \"perlmutter\", \"nranks\": %d, "
              "\"width\": %d, \"samples\": %llu, \"epochs\": %d,\n",
              kRanks, kWidth, static_cast<unsigned long long>(kSamples),
              kEpochs);
  std::printf("  \"reference_epoch_s\": %.9f, \"reference_p99_s\": %.9f,\n", T,
              ref_p99);
  std::printf("  \"hedge_p99_speedup\": %.3f,\n",
              straggler_p99_on > 0.0 ? straggler_p99_off / straggler_p99_on
                                     : 0.0);
  std::printf("  \"scenarios\": [\n");
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    const Verdict& v = verdicts[i];
    all_passed = all_passed && v.passed;
    std::printf("    {\"name\": \"%s\", \"passed\": %s,\n", v.name.c_str(),
                v.passed ? "true" : "false");
    std::printf("     \"epoch_s\": [");
    for (std::size_t e = 0; e < v.run.epoch_s.size(); ++e) {
      std::printf("%s%.9f", e == 0 ? "" : ", ", v.run.epoch_s[e]);
    }
    std::printf("],\n");
    std::printf("     \"p99_s\": %.9f, \"hedged\": %llu, \"wins\": %llu, "
                "\"steers\": %llu, \"rebuilds\": %llu, \"degraded\": %llu,\n",
                p99(v.run.latencies),
                static_cast<unsigned long long>(v.run.audit.hedged_fetches),
                static_cast<unsigned long long>(v.run.audit.hedge_wins),
                static_cast<unsigned long long>(v.run.quarantine_steers),
                static_cast<unsigned long long>(v.run.rank_rebuilds),
                static_cast<unsigned long long>(v.run.audit.degraded_reads));
    std::printf("     \"violations\": [");
    for (std::size_t k = 0; k < v.violations.size(); ++k) {
      if (k != 0) std::printf(", ");
      print_json_string(v.violations[k]);
    }
    std::printf("],\n     \"note\": ");
    print_json_string(v.note);
    std::printf("}%s\n", i + 1 == verdicts.size() ? "" : ",");
  }
  std::printf("  ],\n  \"all_passed\": %s\n}\n",
              all_passed ? "true" : "false");

  if (smoke && !all_passed) {
    std::fprintf(stderr, "bench_chaos --smoke: FAILED\n");
    for (const Verdict& v : verdicts) {
      for (const std::string& s : v.violations) {
        std::fprintf(stderr, "  [%s] %s\n", v.name.c_str(), s.c_str());
      }
    }
    return 1;
  }
  return 0;
}

// Engine micro-bench: wall-clock simulation throughput of the fiber engine.
//
// Each cell runs N simulated ranks — stackful fibers on one OS thread —
// through K scheduler-heavy steps: an allreduce, an untimed allgather of one
// double (the benches' per-rank wall-time exchange), and a barrier; every op
// waits in the communicator's barrier, the engine's one wait point.  A run
// makes exactly N + B·(N−1) fiber switches for B barriers: every rank
// starts once, and all but the last arriver park once per barrier.  It
// reports wall-clock rank-steps per second, the modeled virtual seconds and
// the fiber switch count; the last two are bit-identical run to run.
//
// Output: a JSON array, one object per rank count.  `--smoke` shrinks rank
// counts and steps to a seconds-scale CI configuration with the same
// shape.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/harness.hpp"
#include "simmpi/fiber.hpp"

using namespace dds;
using namespace dds::bench;

namespace {

/// One scheduler-heavy simulated step (every op is a yield point).
void step(simmpi::Comm& c, int s) {
  double v = static_cast<double>(c.rank() + s);
  v = c.allreduce(v, simmpi::Op::Sum);
  (void)c.allgather_untimed(v);
  c.barrier();
}

struct CellResult {
  double wall_s = 0;
  double modeled_s = 0;
  std::uint64_t switches = 0;
};

CellResult run_cell(int nranks, int steps) {
  simmpi::Runtime rt(nranks, model::perlmutter(), /*seed=*/42);
  const auto t0 = std::chrono::steady_clock::now();
  rt.run([&](simmpi::Comm& c) {
    for (int s = 0; s < steps; ++s) step(c, s);
  });
  const auto t1 = std::chrono::steady_clock::now();
  CellResult r;
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.modeled_s = rt.max_clock();
  r.switches = rt.fiber_scheduler()->switch_count();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const std::vector<int> rank_counts =
      smoke ? std::vector<int>{16, 64, 256} : std::vector<int>{64, 256, 1024};

  const int steps = smoke ? 20 : 50;

  std::printf("[\n");
  bool first = true;
  for (const int nranks : rank_counts) {
    const auto r = run_cell(nranks, steps);
    const double rank_steps =
        static_cast<double>(nranks) * static_cast<double>(steps);
    if (!first) std::printf(",\n");
    first = false;
    std::printf(
        "  {\"engine\": \"fibers\", \"nranks\": %d, \"steps\": %d, "
        "\"wall_s\": %s, \"rank_steps_per_s\": %s, \"modeled_s\": %s, "
        "\"fiber_switches\": %llu}",
        nranks, steps, fmt(r.wall_s, 4).c_str(),
        fmt(rank_steps / r.wall_s, 0).c_str(), fmt(r.modeled_s, 9).c_str(),
        static_cast<unsigned long long>(r.switches));
    std::fflush(stdout);
  }
  std::printf("\n]\n");
  return 0;
}

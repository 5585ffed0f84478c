// Fiber engine tests: the turn-scheduling contract (rank-order start,
// predicate-gated resumes, loud deadlock detection), bit-equal same-seed
// replay at 256 ranks, abort propagation out of the barrier (the one
// blocking op), and the DDS_FIBER_STACK_KB / guard-page overflow contract.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "model/machine.hpp"
#include "simmpi/fiber.hpp"
#include "simmpi/runtime.hpp"
#include "simmpi/window.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define DDS_TEST_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DDS_TEST_UNDER_SANITIZER 1
#endif
#endif
#ifndef DDS_TEST_UNDER_SANITIZER
#define DDS_TEST_UNDER_SANITIZER 0
#endif

namespace dds::simmpi {
namespace {

/// Scoped environment override restoring the previous value on exit, so
/// tests that steer DDS_FIBER_STACK_KB compose with whatever environment
/// the suite itself runs under.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    if (value != nullptr) {
      setenv(name, value, /*overwrite=*/1);
    } else {
      unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (saved_.has_value()) {
      setenv(name_, saved_->c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

/// Mixed workload through the cooperative wait point: timed and untimed
/// collectives, a window fence, and shared-epoch window reads — from the
/// next rank and, all at once, from rank 0, so the reads queue at one NIC.
/// Returns every rank's final virtual-clock reading.
std::vector<double> run_workload(int nranks) {
  Runtime rt(nranks, model::test_machine(), /*seed=*/42);
  std::vector<double> clocks(static_cast<std::size_t>(nranks), 0.0);
  rt.run([&](Comm& c) {
    const int rank = c.rank();
    double v = static_cast<double>(rank + 1);
    for (int i = 0; i < 3; ++i) v = c.allreduce(v, Op::Sum);
    for (const double seen : c.allgather_untimed(v)) EXPECT_EQ(seen, v);
    std::vector<double> region(8, static_cast<double>(rank));
    Window win(c, MutableByteSpan(reinterpret_cast<std::byte*>(region.data()),
                                  region.size() * sizeof(double)));
    for (const int target : {(rank + 1) % c.size(), 0}) {
      double got = -1.0;
      win.lock(target);
      win.get(MutableByteSpan(reinterpret_cast<std::byte*>(&got), sizeof(got)),
              target, 0);
      win.unlock(target);
      EXPECT_EQ(got, static_cast<double>(target));
    }
    win.fence();
    c.barrier();
    clocks[static_cast<std::size_t>(rank)] = c.clock().now();
  });
  return clocks;
}

// ---- the turn-scheduling contract (sched.hpp), driven directly ----------

TEST(TurnScheduler, RanksFirstRunInRankOrder) {
  constexpr int kRanks = 4;
  FiberScheduler sched(kRanks);
  std::vector<int> order;
  sched.run([&](int rank) { order.push_back(rank); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(TurnScheduler, YieldUntilHandsTokenAndResumes) {
  // Rank 0 parks on a false predicate; it may resume only after rank 1
  // makes the predicate true.
  FiberScheduler sched(2);
  bool flag = false;
  std::vector<int> order;
  sched.run([&](int rank) {
    if (rank == 0) {
      sched.yield_until([&] { return flag; });
    } else {
      flag = true;
    }
    order.push_back(rank);
  });
  EXPECT_EQ(order, (std::vector<int>{1, 0}));

  // An already-true predicate never yields: the only switches are the ones
  // that start each fiber.
  FiberScheduler uncontended(2);
  uncontended.run([&](int) { uncontended.yield_until([] { return true; }); });
  EXPECT_EQ(uncontended.switch_count(), 2u);
}

TEST(TurnScheduler, AllRanksParkedFailsLoudly) {
  // The only rank waits on a predicate nobody can satisfy and that ignores
  // the abort flag: the scheduler must give up and throw, not spin.
  FiberScheduler sched(1);
  EXPECT_THROW(
      sched.run([&](int) { sched.yield_until([] { return false; }); }),
      InternalError);
}

TEST(FiberEngine, IsTheDefaultEngine) {
  // The default constructor and the spelled-out one both run ranks as
  // fibers: every rank is resumed at least once.
  Runtime rt(4, model::test_machine());
  Runtime spelled(4, model::test_machine(), 42, /*deterministic=*/true,
                  Engine::Fibers);
  for (Runtime* r : {&rt, &spelled}) {
    r->run([](Comm& c) { c.barrier(); });
    EXPECT_GE(r->fiber_scheduler()->switch_count(), 4u);
  }
}

TEST(FiberEngine, FreeRunningRequestIsRejected) {
  EXPECT_THROW(Runtime(2, model::test_machine(), 42, /*deterministic=*/false),
               ConfigError);
}

TEST(FiberEngine, SameSeedReplayIsBitEqualAt256Ranks) {
  // The headline determinism contract at 256 ranks: two runs, exact double
  // equality on every rank's final clock.
  const auto a = run_workload(256);
  const auto b = run_workload(256);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    EXPECT_EQ(a[r], b[r]) << "rank " << r;
    EXPECT_GT(a[r], 0.0) << "rank " << r;
  }
}

TEST(DeterministicRuntime, ClocksBitwiseIdenticalAcrossRuns) {
  // The same replay contract at a small rank count, where every rank's
  // neighbours are also its collective partners.
  const auto a = run_workload(4);
  const auto b = run_workload(4);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    EXPECT_EQ(a[r], b[r]) << "rank " << r;  // exact, not NEAR
    EXPECT_GT(a[r], 0.0) << "rank " << r;
  }
}

TEST(DeterministicRuntime, AbortStillPropagatesUnderScheduler) {
  // Rank 1 throws while ranks 0 and 2 are parked in a world barrier it never
  // reaches: the abort must release them instead of deadlocking.  Rank 1
  // first waits on an exchange with rank 2, so it runs again only after
  // rank 2 has moved on to the world barrier.
  Runtime rt(3, model::test_machine());
  std::vector<bool> parked(3, false);
  EXPECT_THROW(rt.run([&](Comm& c) {
                 Comm pair = c.split(c.rank() == 0 ? 0 : 1, c.rank());
                 if (c.rank() != 0) (void)pair.allgather_untimed(c.rank());
                 if (c.rank() == 1) {
                   EXPECT_TRUE(parked[0] && parked[2]);
                   throw IoError("injected");
                 }
                 // Rank 1 never arrives, so this barrier parks every caller.
                 parked[static_cast<std::size_t>(c.rank())] = true;
                 c.barrier();
               }),
               IoError);
}

TEST(FiberEngine, AbortPropagatesAndRuntimeStaysReusable) {
  Runtime rt(3, model::test_machine());
  EXPECT_THROW(rt.run([&](Comm& c) {
                 if (c.rank() == 1) throw IoError("injected");
                 c.barrier();
                 c.barrier();
               }),
               IoError);
  // The abort flag must be clean again: a fresh run on the same runtime
  // completes normally.
  rt.run([&](Comm& c) { c.barrier(); });
}

TEST(FiberEngine, CooperativeDeadlockFailsLoudly) {
  // Rank 0 waits in a barrier that rank 1 exits without reaching: every
  // live fiber is parked on a false predicate.  The scheduler must detect
  // it immediately (no spin cap needed), drain the parked fiber via the
  // abort flag, and surface an InternalError.
  Runtime rt(2, model::test_machine());
  EXPECT_THROW(rt.run([&](Comm& c) {
                 if (c.rank() == 0) c.barrier();
               }),
               InternalError);
  rt.run([&](Comm& c) { c.barrier(); });  // still reusable afterwards
}

TEST(FiberEngine, StackSizeEnvIsHonoredAndSwitchesAreCounted) {
  const ScopedEnv env("DDS_FIBER_STACK_KB", "256");
  Runtime rt(4, model::test_machine());
  ASSERT_NE(rt.fiber_scheduler(), nullptr);
  EXPECT_EQ(rt.fiber_scheduler()->stack_bytes(), 256u * 1024u);
  rt.run([&](Comm& c) {
    c.barrier();
    c.allreduce(1.0, Op::Sum);
  });
  // 4 ranks × several blocking ops each: the engine must actually have
  // switched contexts, not silently fallen back to something else.
  EXPECT_GT(rt.fiber_scheduler()->switch_count(), 8u);
}

TEST(FiberEngine, BogusStackSizeEnvIsRejected) {
  // Beyond non-numbers: a sign (strtoull negates "-1" to ULLONG_MAX), a
  // value out of unsigned long long range, and one whose byte count wraps
  // size_t (2^54 + 1 KiB) would each yield a tiny or zero-byte stack.
  for (const char* bogus :
       {"lots", "-1", "99999999999999999999", "18014398509481985"}) {
    const ScopedEnv env("DDS_FIBER_STACK_KB", bogus);
    EXPECT_THROW(FiberScheduler::stack_bytes_from_env(), ConfigError)
        << bogus;
  }
}

TEST(FiberEngine, TinyStackRequestsAreClampedUp) {
  const ScopedEnv env("DDS_FIBER_STACK_KB", "1");
  EXPECT_GE(FiberScheduler::stack_bytes_from_env(), 64u * 1024u);
}

#if !DDS_TEST_UNDER_SANITIZER
namespace {
/// Burns fiber stack with one page-sized frame per level; the volatile
/// sink defeats tail-call and frame elision.
__attribute__((noinline)) int burn_stack(int depth, volatile std::byte* out) {
  volatile std::byte frame[4096];
  frame[0] = static_cast<std::byte>(depth);
  *out = frame[0];
  if (depth <= 0) return 0;
  return burn_stack(depth - 1, out) + static_cast<int>(frame[0]);
}
}  // namespace

using FiberEngineDeathTest = ::testing::Test;

TEST(FiberEngineDeathTest, OverflowHitsGuardPageLoudly) {
  // Deep recursion past the configured stack must die on the PROT_NONE
  // guard page (or the canary check) — never silently corrupt a neighbor
  // fiber's stack.  Sanitizer builds intercept the fault differently, so
  // this is gated to plain builds.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const ScopedEnv env("DDS_FIBER_STACK_KB", "64");
  EXPECT_DEATH(
      {
        Runtime rt(1, model::test_machine());
        rt.run([&](Comm&) {
          volatile std::byte sink{};
          burn_stack(1 << 16, &sink);
        });
      },
      "");
}
#endif  // !DDS_TEST_UNDER_SANITIZER

}  // namespace
}  // namespace dds::simmpi

// Abortable generation barrier for cooperative ranks.
//
// Every collective in simmpi synchronizes through this barrier, and it is
// the only place a rank blocks (sched.hpp).  Arrival is counted and the rank
// yields its execution token until the generation flips.  If any rank dies
// with an exception, the runtime raises the shared abort flag; parked ranks
// then observe it, withdraw their arrival, and throw AbortedError instead
// of deadlocking — so a failure in one rank surfaces as a clean test
// failure, not a hang.
#pragma once

#include <cstdint>

#include "common/error.hpp"
#include "simmpi/fiber.hpp"

namespace dds::simmpi {

class Barrier {
 public:
  Barrier(int parties, AbortFlag* abort, FiberScheduler* sched)
      : parties_(parties), abort_(abort), sched_(sched) {
    DDS_CHECK(parties > 0);
  }

  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  /// Blocks until all parties arrive (or throws AbortedError on abort).
  /// The counters need no lock: only the rank holding the execution token
  /// touches them (sched.hpp).
  void arrive_and_wait() {
    if (abort_->raised()) throw AbortedError();
    const std::uint64_t gen = generation_;
    if (++count_ == parties_) {
      count_ = 0;
      ++generation_;
      return;
    }
    sched_->yield_until(
        [&] { return abort_->raised() || generation_ != gen; });
    if (generation_ == gen) {
      // Woken by abort before the barrier completed: withdraw this arrival
      // so the barrier stays consistent for the next run().
      --count_;
      throw AbortedError();
    }
  }

  int parties() const { return parties_; }

  /// Whether the run is aborting: a rank has failed.
  bool aborted() const { return abort_->raised(); }

  /// Number of completed rounds.  Every rank released by one round reads
  /// the same value until the next round completes, so Comm::exchange
  /// tags its shared result with it.
  std::uint64_t generation() const { return generation_; }

 private:
  const int parties_;
  int count_ = 0;
  std::uint64_t generation_ = 0;
  AbortFlag* abort_;
  FiberScheduler* sched_;
};

}  // namespace dds::simmpi

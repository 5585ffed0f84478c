// Cooperative turn scheduling: the serialization contract the simmpi wait
// point relies on.
//
// The FiberScheduler (simmpi/fiber.hpp) runs every simulated rank as a
// stackful fiber inside ONE OS thread and resumes exactly one of them at a
// time, run-to-next-blocking-op, in cyclic rank order.  Every shared virtual
// resource (BusyResource buckets, the FS page cache) therefore observes
// operations in a reproducible order — the global interleaving of every
// virtual-time event is a pure function of the program, identical on every
// run, on any machine, at any ctest parallelism.  The CI perf gate compares
// modeled times byte for byte against a committed baseline on the strength
// of this.
//
// Contract for cooperative code:
//  * A rank blocks in exactly one place: Barrier::arrive_and_wait, which
//    every collective runs through.  Window epochs and gets never wait.
//  * A rank must never hold a lock that another rank can block on while it
//    yields: blocking the one OS thread every rank shares wedges them all.
//    Plain short critical sections (BusyResource, the page cache) never
//    yield and therefore never deadlock.  The barrier needs no lock at all:
//    a rank gives up the CPU only inside yield_until(), so code between two
//    barriers runs atomically with respect to every other rank.
//  * Predicates passed to yield_until() are evaluated while the yielding
//    rank is suspended (never concurrently with other rank code) and must
//    depend only on state mutated by rank code plus the abort flag, so
//    their truth value is deterministic too.
//  * Rank identity comes from the scheduler (current_rank()) or the owning
//    Comm, never from thread_local state: every rank shares one OS thread.
#pragma once

#include <type_traits>

#include "common/error.hpp"

namespace dds::simmpi {

/// Thrown by ranks parked in the barrier when another rank has failed.
class AbortedError : public Error {
 public:
  AbortedError() : Error("simmpi: collective aborted (a rank failed)") {}
};

/// Shared abort flag owned by the Runtime, observed by the barrier.
class AbortFlag {
 public:
  void raise() { raised_ = true; }
  void clear() { raised_ = false; }
  bool raised() const { return raised_; }

 private:
  bool raised_ = false;
};

/// Non-owning reference to a bool() callable.  yield_until predicates are
/// stack-local lambdas in the *yielding* rank's frame; the scheduler may
/// re-evaluate them after the rank suspended, which is safe because a
/// suspended fiber's frames stay alive until resume.
class PredicateRef {
 public:
  PredicateRef() = default;

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, PredicateRef>)
  PredicateRef(const F& fn)  // NOLINT(google-explicit-constructor)
      : obj_(&fn), call_([](const void* o) {
          return (*static_cast<const F*>(o))();
        }) {}

  explicit operator bool() const { return call_ != nullptr; }
  bool operator()() const { return call_(obj_); }

 private:
  const void* obj_ = nullptr;
  bool (*call_)(const void*) = nullptr;
};

}  // namespace dds::simmpi

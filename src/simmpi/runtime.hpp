// simmpi: an in-process, MPI-like runtime with virtual time.
//
// Ranks are lightweight execution contexts inside one process;
// communicators, collectives, and one-sided windows behave like their MPI
// counterparts and move real bytes between rank-owned buffers, while a
// NetworkModel charges simulated seconds to each rank's VirtualClock.  This
// is the substitution for the real MPI + Summit/Perlmutter interconnects
// the paper ran on (DESIGN.md): control flow and data movement are real,
// elapsed time is modelled.
//
// Ranks run as stackful fibers on the calling OS thread (simmpi/fiber.hpp),
// scheduled run-to-next-blocking-op in cyclic rank order: fast,
// deterministic, and scalable to thousands of simulated ranks.  The only
// blocking op is the communicator's Barrier, which every collective runs
// through; window epochs and gets never wait.
//
// Every collective is one exchange step (Comm::exchange): each rank
// deposits its contribution, and after the first barrier one rank computes
// the start time and the result once, in rank order — a reduction folds
// slots 0..N-1, a gather concatenates them — while every rank copies the
// result out before the second barrier.  So a collective over N ranks
// costs O(N) host work, not O(N²), and a reduction gives every rank the
// same bits.  Reports are not traffic: barrier(mine, merge) merges one at a
// barrier the ranks pass anyway, and one read after run() needs none.
//
// Usage:
//   Runtime rt(8, model::perlmutter());
//   rt.run([&](Comm& world) {
//     auto group = world.split(world.rank() / 4, world.rank());
//     double s = world.allreduce(1.0, Op::Sum);   // == 8.0 on every rank
//   });
#pragma once

#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/tracing/tracer.hpp"
#include "faults/injector.hpp"
#include "model/clock.hpp"
#include "model/machine.hpp"
#include "model/network.hpp"
#include "simmpi/barrier.hpp"

namespace dds::simmpi {

class Runtime;
class Comm;

/// How simulated ranks are executed.  Fibers is the only engine; the enum
/// remains so callers that spell the engine out keep compiling.
enum class Engine { Fibers };

/// Reduction operators for the allreduce family.
enum class Op { Sum, Min, Max, Prod };

namespace detail {

template <typename T>
T apply_op(Op op, T a, T b) {
  switch (op) {
    case Op::Sum:
      return a + b;
    case Op::Min:
      return b < a ? b : a;
    case Op::Max:
      return a < b ? b : a;
    case Op::Prod:
      return a * b;
  }
  throw InternalError("unknown Op");
}

/// Where one rank sits in split's sorted (color, key, rank) entries.
struct SplitPlace {
  std::size_t begin = 0;  ///< index of the first entry of the rank's color
  std::size_t pos = 0;    ///< its position in that run: its rank in the group
};

/// One exchange's result, computed once by the first rank to run after the
/// exchange's first barrier (Comm::exchange) and copied out by every rank.
/// Its buffers keep their capacity from one exchange to the next.
struct ExchangeResult {
  std::uint64_t generation = 0;  ///< barrier generation it was computed in
  double start = 0.0;            ///< max deposit time: the collective's start
  /// The fold, the rank-order concatenation, or split's sorted entries.
  ByteBuffer bytes;
  std::vector<std::size_t> counts;  ///< a concatenation's per-rank byte counts
  std::size_t max_bytes = 0;        ///< largest single contribution
  std::vector<SplitPlace> places;   ///< split: each rank's place in `bytes`
  std::shared_ptr<void> merged;     ///< barrier(mine, merge): the merge
};

/// State shared by all member ranks of one communicator.
struct CommShared {
  CommShared(Runtime* rt, std::vector<int> world, AbortFlag* abort,
             FiberScheduler* sched)
      : runtime(rt),
        world_ranks(std::move(world)),
        barrier(static_cast<int>(world_ranks.size()), abort, sched),
        slots(world_ranks.size(), nullptr),
        slot_storage(world_ranks.size()),
        size_slots(world_ranks.size(), 0),
        clock_slots(world_ranks.size(), 0.0),
        publish(world_ranks.size()),
        any_publish(world_ranks.size()) {}

  int size() const { return static_cast<int>(world_ranks.size()); }

  Runtime* runtime;
  std::vector<int> world_ranks;  ///< subrank -> world rank
  Barrier barrier;
  std::vector<const void*> slots;
  std::vector<ByteBuffer> slot_storage;  ///< backing bytes for `slots`
  std::vector<std::size_t> size_slots;
  std::vector<double> clock_slots;
  ExchangeResult result;
  std::vector<std::shared_ptr<CommShared>> publish;  ///< for split()
  std::vector<std::shared_ptr<void>> any_publish;  ///< share_ptr(), Window
};

}  // namespace detail

/// Per-rank handle on a communicator (cheap to copy, like an MPI_Comm).
class Comm {
 public:
  Comm() = default;

  int rank() const { return rank_; }
  int size() const { return shared_->size(); }
  /// This rank's identity in the world communicator (for NIC placement).
  int world_rank() const { return shared_->world_ranks[rank_]; }
  int world_rank_of(int r) const { return shared_->world_ranks.at(r); }

  Runtime& runtime() const { return *shared_->runtime; }
  model::VirtualClock& clock() const;
  Rng& rng() const;
  /// This rank's event tracer, or nullptr when tracing is disabled.
  tracing::EventTracer* tracer() const;

  // ---- collectives ----------------------------------------------------

  /// Barrier: synchronizes ranks and reconciles virtual clocks to the max.
  void barrier() {
    const double t0 = clock_now();
    sync_clocks(0);
    trace_collective("barrier", t0, 0);
  }

  /// barrier() that also merges a report: the same rounds and price.  The
  /// first rank released calls `merge(std::span<const T* const>)` once over
  /// every rank's `mine`, read by address in rank order while its owner is
  /// parked (T need not be trivially copyable); every rank returns a copy.
  template <typename T, typename Merge>
  auto barrier(const T& mine, Merge&& merge) {
    using R = std::invoke_result_t<Merge&, std::span<const T* const>>;
    const double t0 = clock_now();
    deposit_raw(&mine, sizeof(T));
    std::shared_ptr<void>& merged = shared_->result.merged;
    std::shared_ptr<const R> out;
    finish(exchange(
               [&] {
                 std::vector<const T*> shares;
                 for (const void* s : shared_->slots) {
                   shares.push_back(static_cast<const T*>(s));
                 }
                 merged = std::make_shared<R>(merge(std::span(shares)));
               },
               [&] { out = std::static_pointer_cast<const R>(merged); }),
           0);
    trace_collective("barrier", t0, 0);
    return R(*out);
  }

  /// Splits into sub-communicators by color; ranks ordered by (key, rank).
  Comm split(int color, int key);

  template <typename T>
  T allreduce(T value, Op op) {
    allreduce_inplace(std::span<T>(&value, 1), op);
    return value;
  }

  /// Element-wise reduction.  Every rank gets the same bits: the slots are
  /// folded once, in rank order (see exchange).  Throws InternalError (on
  /// every rank) unless all ranks pass the same length.
  template <typename T>
    requires TriviallySerializable<T>
  void allreduce_inplace(std::span<T> data, Op op) {
    const double t0 = clock_now();
    finish(reduce(data, op), data.size_bytes());
    trace_collective("allreduce", t0, data.size_bytes());
  }

  /// Variable-count allgather; fills `counts` (per-rank element counts)
  /// when non-null and returns the concatenation in rank order.
  template <typename T>
    requires TriviallySerializable<T>
  std::vector<T> allgatherv(std::span<const T> mine,
                            std::vector<std::size_t>* counts = nullptr) {
    const double t0 = clock_now();
    std::vector<T> out;
    std::size_t max_bytes = 0;
    const double start = concatenate(mine, out, counts, &max_bytes);
    finish(start, max_bytes);
    trace_collective("allgatherv", t0, max_bytes);
    return out;
  }

  /// allgather that does NOT advance virtual clocks — a zero-cost
  /// rendezvous for simulation harnesses.  Untimed is not unperturbed:
  /// like every collective it is a barrier, and the last rank to arrive
  /// runs on without yielding while the scheduler's scan resumes after it,
  /// so each exchange changes which rank runs first afterwards.
  /// BusyResource (model/clock.hpp) charges a bucket's earlier deposits to
  /// whichever rank acquires later, so adding or removing an untimed
  /// exchange can shift later modeled times.  It never changes counters or
  /// payload bytes.  A report needs none: see barrier(mine, merge).
  template <typename T>
    requires TriviallySerializable<T>
  std::vector<T> allgather_untimed(const T& value) {
    std::vector<T> out;
    concatenate(std::span<const T>(&value, 1), out, nullptr);
    return out;
  }

  /// One-value reduction that does NOT advance virtual clocks — the untimed
  /// twin of allreduce, for a rendezvous such as the latest completion
  /// time across ranks (it reorders the fiber schedule the same way; see
  /// allgather_untimed).  The fold is allreduce_inplace's.
  template <typename T>
    requires TriviallySerializable<T>
  T allreduce_untimed(T value, Op op) {
    (void)reduce(std::span<T>(&value, 1), op);
    return value;
  }

  /// Variable-count gather to `root` only: root receives the concatenation
  /// (with per-rank counts); other ranks receive an empty vector.
  template <typename T>
    requires TriviallySerializable<T>
  std::vector<T> gatherv(std::span<const T> mine, int root,
                         std::vector<std::size_t>* counts = nullptr) {
    const double t0 = clock_now();
    deposit(mine.data(), mine.size_bytes());
    std::vector<T> out;
    const double start = exchange([] {}, [&] {
      if (rank_ != root) return;
      const auto n = static_cast<std::size_t>(size());
      std::size_t total = 0;
      for (std::size_t r = 0; r < n; ++r) total += shared_->size_slots[r];
      out.reserve(total / sizeof(T));
      if (counts != nullptr) counts->assign(n, 0);
      for (std::size_t r = 0; r < n; ++r) {
        const std::size_t k = shared_->size_slots[r] / sizeof(T);
        const T* p = static_cast<const T*>(shared_->slots[r]);
        out.insert(out.end(), p, p + k);
        if (counts != nullptr) (*counts)[r] = k;
      }
    });
    finish(start, mine.size_bytes());
    trace_collective("gatherv", t0, mine.size_bytes());
    return out;
  }

  /// Collective object sharing: `root` runs `make()` once; every rank
  /// returns the same shared_ptr.  Used to share large immutable state
  /// (chunk registries, epoch permutations) across ranks — in a real
  /// MPI job each rank would hold its own copy; sharing one in-process copy
  /// is a memory optimization that does not change behaviour because the
  /// shared objects are immutable.
  std::shared_ptr<void> share_ptr(
      int root, const std::function<std::shared_ptr<void>()>& make);

  template <typename T, typename F>
  std::shared_ptr<T> share(int root, F&& make) {
    return std::static_pointer_cast<T>(share_ptr(
        root, [&make]() -> std::shared_ptr<void> { return make(); }));
  }

 private:
  friend class Runtime;
  friend class Window;

  Comm(std::shared_ptr<detail::CommShared> shared, int rank)
      : shared_(std::move(shared)), rank_(rank) {}

  /// Publishes this rank's contribution by *copying* it into storage owned
  /// by the CommShared.
  void deposit(const void* ptr, std::size_t bytes) {
    auto& storage = shared_->slot_storage[static_cast<std::size_t>(rank_)];
    // Keep data() non-null even for empty payloads: readers form
    // (pointer, pointer + 0) ranges from the slot.
    storage.reserve(bytes > 0 ? bytes : 1);
    storage.resize(bytes);
    if (bytes != 0) std::memcpy(storage.data(), ptr, bytes);
    shared_->slots[static_cast<std::size_t>(rank_)] = storage.data();
    shared_->size_slots[static_cast<std::size_t>(rank_)] = bytes;
    shared_->clock_slots[static_cast<std::size_t>(rank_)] = clock_now();
  }

  /// Publishes a raw pointer WITHOUT copying: for Window registration,
  /// where `slots` must carry the actual region addresses (region lifetime
  /// is the window's contract, see its keepalive parameter), and for
  /// barrier(mine, merge), whose `mine` lives in a parked rank's frame.
  void deposit_raw(const void* ptr, std::size_t bytes) {
    shared_->slots[static_cast<std::size_t>(rank_)] = ptr;
    shared_->size_slots[static_cast<std::size_t>(rank_)] = bytes;
    shared_->clock_slots[static_cast<std::size_t>(rank_)] = clock_now();
  }

  /// The one exchange step every collective runs, between its two
  /// barriers.  The first rank to run after the first barrier — in the
  /// fiber engine the last to arrive, before any peer resumes — computes
  /// the start time (the max deposit time) and runs `once`, which reads
  /// the slots and writes the result into the CommShared.  The result is
  /// marked current only after `once` returns.  If `once` throws, every
  /// peer throws AbortedError rather than rerun it over slots that may
  /// point into the unwound rank's frame.  Then every rank runs `each`,
  /// which copies the result out.  So one exchange costs O(N) reads of the
  /// slots, not O(N²), and every rank gets the same bits.  Returns the
  /// start time.
  template <typename Once, typename Each>
  double exchange(Once&& once, Each&& each) {
    auto& cs = *shared_;
    cs.barrier.arrive_and_wait();
    if (cs.result.generation != cs.barrier.generation()) {
      if (cs.barrier.aborted()) throw AbortedError();
      double start = 0.0;
      for (const double t : cs.clock_slots) start = std::max(start, t);
      cs.result.start = start;
      once();
      cs.result.generation = cs.barrier.generation();
    }
    each();
    const double start = cs.result.start;
    cs.barrier.arrive_and_wait();
    return start;
  }

  /// Deposits `data` and folds every rank's copy into it, in rank order.
  /// Returns the exchange's start time.
  template <typename T>
  double reduce(std::span<T> data, Op op) {
    const std::size_t bytes = data.size_bytes();
    deposit(data.data(), bytes);
    ByteBuffer& result = shared_->result.bytes;
    return exchange(
        [&] {
          const auto n = static_cast<std::size_t>(size());
          for (std::size_t r = 0; r < n; ++r) {
            DDS_CHECK_MSG(shared_->size_slots[r] == bytes,
                          "allreduce: ranks passed unequal lengths");
          }
          result.resize(bytes);
          if (bytes == 0) return;
          std::memcpy(result.data(), shared_->slots[0], bytes);
          T* acc = reinterpret_cast<T*>(result.data());
          for (std::size_t r = 1; r < n; ++r) {
            const T* theirs = static_cast<const T*>(shared_->slots[r]);
            for (std::size_t i = 0; i < data.size(); ++i) {
              acc[i] = detail::apply_op(op, acc[i], theirs[i]);
            }
          }
        },
        [&] {
          if (bytes != 0) std::memcpy(data.data(), result.data(), bytes);
        });
  }

  /// Deposits `mine` and sets `out` to every rank's contribution in rank
  /// order; `counts` and `max_bytes`, when non-null, receive the per-rank
  /// element counts and the largest contribution's bytes.  Returns the
  /// exchange's start time.
  template <typename T>
  double concatenate(std::span<const T> mine, std::vector<T>& out,
                     std::vector<std::size_t>* counts,
                     std::size_t* max_bytes = nullptr) {
    deposit(mine.data(), mine.size_bytes());
    const detail::ExchangeResult& res = shared_->result;
    return exchange([this] { concatenate_slots(); }, [&] {
      const T* p = reinterpret_cast<const T*>(res.bytes.data());
      out.assign(p, p + res.bytes.size() / sizeof(T));
      if (max_bytes != nullptr) *max_bytes = res.max_bytes;
      if (counts == nullptr) return;
      counts->resize(res.counts.size());
      for (std::size_t r = 0; r < res.counts.size(); ++r) {
        (*counts)[r] = res.counts[r] / sizeof(T);
      }
    });
  }

  /// `once` of the concatenating collectives: copies the slots into
  /// `result` in rank order and records each one's byte count.
  void concatenate_slots();

  void finish(double max_start, std::size_t bytes);
  void sync_clocks(std::size_t bytes);
  double clock_now() const;
  /// Records a Simmpi-category span from `t0` to now (no-op when tracing
  /// is off).  The untimed collectives deliberately do not call this: they
  /// are rendezvous, not modeled traffic.
  void trace_collective(const char* name, double t0, std::size_t bytes) const;

  std::shared_ptr<detail::CommShared> shared_;
  int rank_ = 0;
};

/// Owns the rank execution contexts, clocks, RNG streams, and the network
/// model.
class Runtime {
 public:
  /// Every run is cooperative and deterministic: modeled times are
  /// bit-identical across runs (the CI perf gate pins this).
  /// `deterministic` and `engine` only spell that out; passing
  /// deterministic=false throws ConfigError, since no free-running mode
  /// exists.
  Runtime(int nranks, model::MachineConfig machine, std::uint64_t seed = 42,
          bool deterministic = true, Engine engine = Engine::Fibers);

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Runs `fn(world_comm)` on every rank, as fibers driven by the calling
  /// thread.  The first exception thrown by any rank is rethrown here;
  /// other ranks are released from the barrier via the abort flag.
  void run(const std::function<void(Comm&)>& fn);

  int nranks() const { return nranks_; }
  const model::MachineConfig& machine() const { return machine_; }
  model::NetworkModel& network() { return net_; }

  model::VirtualClock& clock_of(int world_rank) {
    return clocks_[static_cast<std::size_t>(world_rank)];
  }
  Rng& rng_of(int world_rank) {
    return rngs_[static_cast<std::size_t>(world_rank)];
  }
  AbortFlag& abort_flag() { return abort_; }

  /// The scheduler running the ranks: the barrier yields through it,
  /// and it exposes diagnostics (switch counts, stack geometry).  Never
  /// null.
  FiberScheduler* fiber_scheduler() { return &fibers_; }

  // ---- event tracing ----------------------------------------------------

  /// Arms one bounded EventTracer per rank for subsequent run() calls.
  /// Call before run(); each rank writes only its own stream (identity is
  /// the owning Comm's rank, never thread_local state, because every fiber
  /// shares one OS thread).
  void enable_tracing(std::size_t capacity_per_rank = 1u << 20) {
    tracers_.clear();
    tracers_.reserve(static_cast<std::size_t>(nranks_));
    for (int r = 0; r < nranks_; ++r) {
      tracers_.push_back(
          std::make_unique<tracing::EventTracer>(r, capacity_per_rank));
    }
  }

  /// The rank's tracer, or nullptr when tracing is disabled.
  tracing::EventTracer* tracer_of(int world_rank) {
    if (tracers_.empty()) return nullptr;
    return tracers_[static_cast<std::size_t>(world_rank)].get();
  }

  bool tracing_enabled() const { return !tracers_.empty(); }

  /// Per-rank streams for the exporter (empty when tracing is disabled).
  /// Only valid between run() calls — ranks own their streams while
  /// running.
  std::vector<const tracing::EventTracer*> traces() const {
    std::vector<const tracing::EventTracer*> out;
    out.reserve(tracers_.size());
    for (const auto& t : tracers_) out.push_back(t.get());
    return out;
  }

  /// Maximum simulated time across ranks (the job's makespan so far).
  double max_clock() const;

  /// Resets all clocks and network busy state (e.g. between experiments).
  void reset_time();

  /// Arms deterministic fault injection for subsequent run() calls (or
  /// disarms it when `injector` is null).  Arming installs the injector's
  /// slowdown phases in the network model; disarming restores every rank
  /// to rated speed.
  void set_fault_injector(std::shared_ptr<faults::FaultInjector> injector) {
    DDS_CHECK_MSG(injector == nullptr || injector->nranks() == nranks_,
                  "fault injector sized for a different world");
    injector_ = std::move(injector);
    // Slowdown phases need a per-transfer hook; with none configured, leave
    // the hook empty so the rated-speed timing arithmetic is untouched
    // (bit-identical perf baselines).
    if (injector_ != nullptr && injector_->has_dynamic_profiles()) {
      net_.set_dynamic_scale([this](int rank, double now) {
        return injector_ ? injector_->slowdown_of(rank, now) : 1.0;
      });
    } else {
      net_.set_dynamic_scale(nullptr);
    }
  }

  /// The armed injector, or nullptr when faults are off.
  faults::FaultInjector* fault_injector() const { return injector_.get(); }

 private:
  int nranks_;
  model::MachineConfig machine_;
  model::NetworkModel net_;
  AbortFlag abort_;
  FiberScheduler fibers_;
  std::vector<model::VirtualClock> clocks_;
  std::vector<Rng> rngs_;
  std::vector<std::unique_ptr<tracing::EventTracer>> tracers_;
  std::shared_ptr<faults::FaultInjector> injector_;
  std::shared_ptr<detail::CommShared> world_;
};

}  // namespace dds::simmpi

#include "simmpi/runtime.hpp"

#include <algorithm>
#include <exception>
#include <tuple>

namespace dds::simmpi {

// ---- Comm ----------------------------------------------------------------

model::VirtualClock& Comm::clock() const {
  return shared_->runtime->clock_of(world_rank());
}

Rng& Comm::rng() const { return shared_->runtime->rng_of(world_rank()); }

tracing::EventTracer* Comm::tracer() const {
  return shared_->runtime->tracer_of(world_rank());
}

double Comm::clock_now() const { return clock().now(); }

void Comm::trace_collective(const char* name, double t0,
                            std::size_t bytes) const {
  tracing::EventTracer* tr = tracer();
  if (tr == nullptr) return;
  tracing::EventArgs args;
  args.bytes = static_cast<std::int64_t>(bytes);
  tr->record(tracing::Category::Simmpi, name, t0, clock_now(), args);
}

void Comm::finish(double max_start, std::size_t bytes) {
  const double done =
      shared_->runtime->network().collective_time(size(), bytes, max_start);
  clock().advance_to(done);
}

void Comm::sync_clocks(std::size_t bytes) {
  deposit(nullptr, 0);
  finish(exchange([] {}, [] {}), bytes);
}

void Comm::concatenate_slots() {
  detail::CommShared& cs = *shared_;
  detail::ExchangeResult& res = cs.result;
  const auto n = static_cast<std::size_t>(size());
  res.counts.assign(cs.size_slots.begin(), cs.size_slots.end());
  res.max_bytes = 0;
  std::size_t total = 0;
  for (const std::size_t bytes : res.counts) {
    total += bytes;
    res.max_bytes = std::max(res.max_bytes, bytes);
  }
  res.bytes.resize(total);
  std::byte* out = res.bytes.data();
  for (std::size_t r = 0; r < n; ++r) {
    if (res.counts[r] != 0) std::memcpy(out, cs.slots[r], res.counts[r]);
    out += res.counts[r];
  }
}

Comm Comm::split(int color, int key) {
  struct Entry {
    int color;
    int key;
    int rank;
  };
  const Entry mine{color, key, rank_};
  deposit(&mine, sizeof(Entry));

  // `once` sorts every rank's entry by (color, key, rank), so each group is
  // one run, and records per rank where its run begins and its position in
  // it.  The leader copies its run out to build the sub-communicator.
  detail::ExchangeResult& res = shared_->result;
  const auto n = static_cast<std::size_t>(size());
  int leader = 0;
  int my_pos = 0;
  std::vector<int> members;  // the leader's group, in parent-comm ranks
  const double start = exchange(
      [&] {
        res.bytes.resize(n * sizeof(Entry));
        auto* sorted = reinterpret_cast<Entry*>(res.bytes.data());
        for (std::size_t r = 0; r < n; ++r) {
          std::memcpy(&sorted[r], shared_->slots[r], sizeof(Entry));
        }
        std::sort(sorted, sorted + n, [](const Entry& a, const Entry& b) {
          return std::tie(a.color, a.key, a.rank) <
                 std::tie(b.color, b.key, b.rank);
        });
        res.places.resize(n);
        std::size_t begin = 0;
        for (std::size_t i = 0; i < n; ++i) {
          if (sorted[i].color != sorted[begin].color) begin = i;
          const auto r = static_cast<std::size_t>(sorted[i].rank);
          res.places[r] = {begin, i - begin};
        }
      },
      [&] {
        const auto* sorted = reinterpret_cast<const Entry*>(res.bytes.data());
        const detail::SplitPlace& place =
            res.places[static_cast<std::size_t>(rank_)];
        const std::size_t begin = place.begin;
        leader = sorted[begin].rank;
        my_pos = static_cast<int>(place.pos);
        if (rank_ != leader) return;
        for (std::size_t i = begin; i < n && sorted[i].color == color; ++i) {
          members.push_back(sorted[i].rank);
        }
      });

  if (rank_ == leader) {
    std::vector<int> world;
    world.reserve(members.size());
    for (int r : members) world.push_back(shared_->world_ranks[static_cast<std::size_t>(r)]);
    shared_->publish[static_cast<std::size_t>(rank_)] =
        std::make_shared<detail::CommShared>(
            shared_->runtime, std::move(world),
            &shared_->runtime->abort_flag(),
            shared_->runtime->fiber_scheduler());
  }
  shared_->barrier.arrive_and_wait();
  auto sub = shared_->publish[static_cast<std::size_t>(leader)];
  shared_->barrier.arrive_and_wait();
  if (rank_ == leader) shared_->publish[static_cast<std::size_t>(rank_)].reset();

  finish(start, sizeof(Entry));
  return Comm(std::move(sub), my_pos);
}

std::shared_ptr<void> Comm::share_ptr(
    int root, const std::function<std::shared_ptr<void>()>& make) {
  DDS_CHECK(root >= 0 && root < size());
  auto& slot = shared_->any_publish[static_cast<std::size_t>(root)];
  deposit(nullptr, 0);
  if (rank_ == root) slot = make();
  std::shared_ptr<void> ptr;
  const double start = exchange([] {}, [&] { ptr = slot; });
  if (rank_ == root) slot.reset();
  finish(start, sizeof(void*));
  return ptr;
}

// ---- Runtime ---------------------------------------------------------------

Runtime::Runtime(int nranks, model::MachineConfig machine, std::uint64_t seed,
                 bool deterministic, Engine /*engine*/)
    : nranks_(nranks),
      machine_(std::move(machine)),
      net_(machine_, nranks),
      fibers_(nranks, &abort_),
      clocks_(static_cast<std::size_t>(nranks)),
      rngs_() {
  if (!deterministic) {
    throw ConfigError(
        "simmpi::Runtime: there is no free-running mode; every run is "
        "cooperative and deterministic");
  }
  const Rng root(seed);
  rngs_.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    rngs_.push_back(root.stream(static_cast<std::uint64_t>(r)));
  }
  std::vector<int> world(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) world[static_cast<std::size_t>(r)] = r;
  world_ = std::make_shared<detail::CommShared>(this, std::move(world),
                                                &abort_, &fibers_);
}

void Runtime::run(const std::function<void(Comm&)>& fn) {
  std::exception_ptr first_error;

  // Rank body: absorbs every exception (nothing may unwind across a fiber
  // switch), keeps the first real error, and aborts the peers.
  const auto rank_body = [&](int r) {
    try {
      Comm comm(world_, r);
      fn(comm);
    } catch (const AbortedError&) {
      // Another rank failed first; nothing to report from this one.
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
      abort_.raise();
    }
  };

  try {
    fibers_.run(rank_body);
  } catch (...) {
    // Scheduler-level failure (cooperative deadlock).  Rank errors were
    // already captured by rank_body; keep whichever came first.
    if (!first_error) first_error = std::current_exception();
  }
  if (first_error) {
    // Leave the runtime reusable: future runs start from a clean flag.
    abort_.clear();
    std::rethrow_exception(first_error);
  }
}

double Runtime::max_clock() const {
  double t = 0.0;
  for (const auto& c : clocks_) t = std::max(t, c.now());
  return t;
}

void Runtime::reset_time() {
  for (auto& c : clocks_) c.reset();
  net_.reset();
}

}  // namespace dds::simmpi

#include "simmpi/window.hpp"

#include <cstring>

namespace dds::simmpi {

Window::Window(Comm& comm, MutableByteSpan local,
               std::shared_ptr<const void> keepalive)
    : comm_(comm), in_epoch_(static_cast<std::size_t>(comm.size()), false) {
  auto& cs = *comm_.shared_;
  const auto me = static_cast<std::size_t>(comm_.rank());

  // Registration (MPI_Win_create) is collective: exchange region pointers.
  // deposit_raw, not deposit: the slots must carry the real region
  // addresses, not a snapshot copy.  The region table is built once and
  // every member takes the same one.
  comm_.deposit_raw(local.data(), local.size());
  auto& table = cs.any_publish[0];
  const double start = comm_.exchange(
      [&] {
        auto ws = std::make_shared<detail::WindowShared>(
            static_cast<std::size_t>(comm_.size()));
        for (std::size_t r = 0; r < ws->regions.size(); ++r) {
          ws->regions[r] = MutableByteSpan(
              static_cast<std::byte*>(const_cast<void*>(cs.slots[r])),
              cs.size_slots[r]);
        }
        table = std::move(ws);
      },
      [&] { shared_ = std::static_pointer_cast<detail::WindowShared>(table); });
  shared_->keepalives[me] = std::move(keepalive);
  // Every member has registered its keepalive before any member returns.
  cs.barrier.arrive_and_wait();
  if (comm_.rank() == 0) table.reset();

  comm_.finish(start, sizeof(void*));
}

void Window::lock(int target) {
  const auto t = static_cast<std::size_t>(target);
  DDS_CHECK_MSG(!in_epoch_.at(t), "lock epoch already active on this target");
  in_epoch_[t] = true;
  // Timing of lock/unlock is folded into the per-access RMA overhead in
  // NetworkModel (rma_remote_overhead_s), matching how the paper reports a
  // single per-sample fetch latency — so the trace marks epoch boundaries
  // with zero-duration instants rather than spans.
  if (tracing::EventTracer* tr = comm_.tracer()) {
    tracing::EventArgs args;
    args.target = comm_.world_rank_of(target);
    tr->instant(tracing::Category::Simmpi, "win_lock", comm_.clock().now(),
                args);
  }
}

void Window::unlock(int target) {
  const auto t = static_cast<std::size_t>(target);
  if (!in_epoch_.at(t)) throw InternalError("unlock without a matching lock");
  in_epoch_[t] = false;
  if (tracing::EventTracer* tr = comm_.tracer()) {
    tracing::EventArgs args;
    args.target = comm_.world_rank_of(target);
    tr->instant(tracing::Category::Simmpi, "win_unlock", comm_.clock().now(),
                args);
  }
}

void Window::check_bounds(int target, std::size_t offset,
                          std::size_t len) const {
  const auto& region = shared_->regions.at(static_cast<std::size_t>(target));
  if (!range_within(offset, len, region.size())) {
    throw DataError("Window access out of bounds: offset " +
                    std::to_string(offset) + " + len " + std::to_string(len) +
                    " > region " + std::to_string(region.size()) +
                    " on target " + std::to_string(target));
  }
}

void Window::get(MutableByteSpan dst, int target, std::size_t offset,
                 std::uint64_t charge_bytes) {
  comm_.clock().advance_to(
      get_at(dst, target, offset, comm_.clock().now(), charge_bytes));
}

double Window::get_at(MutableByteSpan dst, int target, std::size_t offset,
                      double start, std::uint64_t charge_bytes) {
  const auto t = static_cast<std::size_t>(target);
  DDS_CHECK_MSG(in_epoch_.at(t), "get outside a lock epoch");
  check_bounds(target, offset, dst.size());

  const auto& region = shared_->regions[t];
  std::memcpy(dst.data(), region.data() + offset, dst.size());
  auto& rt = comm_.runtime();
  const double done = rt.network().rma_get_time(
      comm_.world_rank(), comm_.world_rank_of(target),
      charge_bytes == 0 ? dst.size() : charge_bytes, start);
  if (tracing::EventTracer* tr = comm_.tracer()) {
    tracing::EventArgs args;
    args.target = comm_.world_rank_of(target);
    args.bytes = static_cast<std::int64_t>(dst.size());
    tr->record(tracing::Category::Simmpi, "win_get", start, done, args);
  }
  return done;
}

void Window::getv(std::span<const GetSegment> segments, int target,
                  std::uint64_t charge_bytes) {
  comm_.clock().advance_to(
      getv_at(segments, target, comm_.clock().now(), charge_bytes));
}

double Window::getv_at(std::span<const GetSegment> segments, int target,
                       double start, std::uint64_t charge_bytes) {
  const auto t = static_cast<std::size_t>(target);
  DDS_CHECK_MSG(in_epoch_.at(t), "getv outside a lock epoch");
  DDS_CHECK_MSG(!segments.empty(), "getv with no segments");
  std::uint64_t total = 0;
  for (const auto& seg : segments) {
    check_bounds(target, seg.offset, seg.dst.size());
    total += seg.dst.size();
  }

  const auto& region = shared_->regions[t];
  for (const auto& seg : segments) {
    std::memcpy(seg.dst.data(), region.data() + seg.offset, seg.dst.size());
  }
  auto& rt = comm_.runtime();
  const double done = rt.network().rma_getv_time(
      comm_.world_rank(), comm_.world_rank_of(target),
      charge_bytes == 0 ? total : charge_bytes, segments.size(), start);
  if (tracing::EventTracer* tr = comm_.tracer()) {
    tracing::EventArgs args;
    args.target = comm_.world_rank_of(target);
    args.bytes = static_cast<std::int64_t>(total);
    tr->record(tracing::Category::Simmpi, "win_getv", start, done, args);
  }
  return done;
}

void Window::fence() {
  for (const bool open : in_epoch_) {
    DDS_CHECK_MSG(!open, "fence with an open lock epoch");
  }
  const double trace_t0 = comm_.clock().now();
  comm_.sync_clocks(0);
  if (tracing::EventTracer* tr = comm_.tracer()) {
    tr->record(tracing::Category::Simmpi, "win_fence", trace_t0,
               comm_.clock().now());
  }
}

}  // namespace dds::simmpi

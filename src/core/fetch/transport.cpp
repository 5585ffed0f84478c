#include "core/fetch/transport.hpp"

#include "common/tracing/tracer.hpp"

namespace dds::core::fetch {

void RmaTransport::lock(int target) {
  ctx_->window->lock(target);
  ++ctx_->metrics->lock_epochs;
  if (tracing::EventTracer* tr = ctx_->tracer()) {
    tracing::EventArgs args;
    args.target = ctx_->comm->world_rank_of(target);
    tr->instant(tracing::Category::Transport, "lock_epoch",
                ctx_->clock().now(), args);
  }
}

void RmaTransport::unlock(int target) { ctx_->window->unlock(target); }

RmaTransport::FaultDecision RmaTransport::decide_fault(int target,
                                                       double now) {
  FaultDecision d;
  auto& rt = ctx_->comm->runtime();
  auto* inj = rt.fault_injector();
  const int origin_world = ctx_->comm->world_rank();
  const int target_world = ctx_->comm->world_rank_of(target);
  if (inj == nullptr || origin_world == target_world) return d;

  // A failed transfer ends when the origin's small probe (the rendezvous
  // that times out) would have completed.
  const auto fail = [&] {
    d.fail = true;
    d.fail_done = rt.network().rma_get_time(origin_world, target_world, 64,
                                            now);
    return d;
  };
  // A dead target never answers; a partitioned or lost transfer never
  // arrives.
  if (inj->target_dead(target_world, now)) return fail();
  const faults::LinkOutcome link =
      inj->link_outcome(origin_world, target_world, now);
  if (link.drop) return fail();
  d.extra_latency_s = link.extra_latency_s;
  switch (inj->rma_outcome(origin_world)) {
    case faults::GetOutcome::Ok:
      break;
    case faults::GetOutcome::Fail:
      return fail();
    case faults::GetOutcome::Corrupt:
      d.corrupt = true;
      break;
  }
  return d;
}

void RmaTransport::corrupt(
    std::span<const simmpi::Window::GetSegment> segments) {
  std::uint64_t total = 0;
  for (const auto& seg : segments) total += seg.dst.size();
  if (total == 0) return;
  // Delivered, but damaged in flight: the real bytes landed, then one
  // flips in the *destination* buffer only.  The exposed region stays
  // intact, so a retry (or the registry checksum) can genuinely recover
  // the true payload.
  auto* inj = ctx_->comm->runtime().fault_injector();
  std::size_t hit = inj->corrupt_byte(ctx_->comm->world_rank(),
                                      static_cast<std::size_t>(total));
  for (const auto& seg : segments) {
    if (hit < seg.dst.size()) {
      seg.dst[hit] ^= std::byte{0xFF};
      return;
    }
    hit -= seg.dst.size();
  }
}

void RmaTransport::trace(const char* name, int target, std::uint64_t bytes,
                         double start, double done) const {
  tracing::EventTracer* tr = ctx_->tracer();
  if (tr == nullptr) return;
  tracing::EventArgs args;
  args.target = ctx_->comm->world_rank_of(target);
  args.bytes = static_cast<std::int64_t>(bytes);
  tr->record(tracing::Category::Transport, name, start, done, args);
}

RmaTransport::Transfer RmaTransport::get(MutableByteSpan dst, int target,
                                         std::size_t offset,
                                         std::uint64_t charge_bytes,
                                         double start) {
  ++ctx_->metrics->rma_transfers;
  Transfer out;
  const FaultDecision d = decide_fault(target, start);
  if (d.fail) {
    out.done = d.fail_done;
  } else {
    // Link jitter delays the issue point, so the completion (and queue
    // occupancy) shift by the same amount.
    out.done = ctx_->window->get_at(dst, target, offset,
                                    start + d.extra_latency_s, charge_bytes);
    out.delivered = true;
    if (d.corrupt) {
      const simmpi::Window::GetSegment seg{offset, dst};
      corrupt(std::span(&seg, 1));
    }
  }
  trace("rma_get", target, dst.size(), start, out.done);
  return out;
}

RmaTransport::Transfer RmaTransport::getv(
    std::span<const simmpi::Window::GetSegment> segments, int target,
    std::uint64_t charge_bytes, double start) {
  ++ctx_->metrics->rma_transfers;
  Transfer out;
  const FaultDecision d = decide_fault(target, start);
  if (d.fail) {
    out.done = d.fail_done;
  } else {
    out.done = ctx_->window->getv_at(segments, target,
                                     start + d.extra_latency_s, charge_bytes);
    out.delivered = true;
    if (d.corrupt) corrupt(segments);
  }
  std::uint64_t bytes = 0;
  for (const auto& seg : segments) bytes += seg.dst.size();
  trace("rma_getv", target, bytes, start, out.done);
  return out;
}

}  // namespace dds::core::fetch

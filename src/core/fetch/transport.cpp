#include "core/fetch/transport.hpp"

#include <string>

#include "common/tracing/tracer.hpp"

namespace dds::core::fetch {

void RmaTransport::lock(int target) {
  ctx_->window->lock(target, simmpi::LockType::Shared);
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
                                                       double overhead_scale,
                                                       double now) {
  FaultDecision d;
  auto& rt = ctx_->comm->runtime();
  auto* inj = rt.fault_injector();
  const int origin_world = ctx_->comm->world_rank();
  const int target_world = ctx_->comm->world_rank_of(target);
  if (inj == nullptr || origin_world == target_world) return d;

  if (inj->target_dead(target_world, now)) {
    // A dead target never answers: the origin pays for a small probe (the
    // rendezvous that times out) and observes the failure.
    d.fail = true;
    d.fail_done = rt.network().rma_get_time(origin_world, target_world, 64,
                                            now, overhead_scale);
    return d;
  }
  const faults::LinkOutcome link =
      inj->link_outcome(origin_world, target_world, now);
  if (link.drop) {
    // Partitioned or lost in transit: same timed-out probe as a failure.
    d.fail = true;
    d.fail_done = rt.network().rma_get_time(origin_world, target_world, 64,
                                            now, overhead_scale);
    return d;
  }
  d.extra_latency_s = link.extra_latency_s;
  switch (inj->rma_outcome(origin_world)) {
    case faults::GetOutcome::Ok:
      break;
    case faults::GetOutcome::Fail:
      d.fail = true;
      d.fail_done = rt.network().rma_get_time(origin_world, target_world, 64,
                                              now, overhead_scale);
      break;
    case faults::GetOutcome::Corrupt:
      d.corrupt = true;
      break;
  }
  return d;
}

bool RmaTransport::resolve_fault(int target, double overhead_scale,
                                 const char* what) {
  auto& clock = ctx_->clock();
  const FaultDecision d = decide_fault(target, overhead_scale, clock.now());
  if (d.fail) {
    clock.advance_to(d.fail_done);
    throw NetworkError(std::string(what) + " failed: transfer from " +
                       std::to_string(ctx_->comm->world_rank()) + " to " +
                       std::to_string(ctx_->comm->world_rank_of(target)) +
                       " died (dead target, partition, loss, or transient "
                       "fault)");
  }
  // Link jitter delays the transfer: the origin's issue point slips, so
  // the completion (and queue occupancy) shift by the same amount.
  if (d.extra_latency_s > 0.0) clock.advance(d.extra_latency_s);
  return d.corrupt;
}

void RmaTransport::get(MutableByteSpan dst, int target, std::size_t offset,
                       std::uint64_t charge_bytes, double overhead_scale) {
  ++ctx_->metrics->rma_transfers;
  tracing::Span span(ctx_->tracer(), ctx_->clock(),
                     tracing::Category::Transport, "rma_get");
  span.args().target = ctx_->comm->world_rank_of(target);
  span.args().bytes = static_cast<std::int64_t>(dst.size());
  const bool corrupt = resolve_fault(target, overhead_scale, "RMA get");
  ctx_->window->get(dst, target, offset, charge_bytes, overhead_scale);
  if (corrupt && !dst.empty()) {
    // Delivered, but damaged in flight: the real bytes landed, then one
    // flips in the *destination* buffer only.  The exposed region stays
    // intact, so a retry (or the registry checksum) can genuinely recover
    // the true payload.
    auto* inj = ctx_->comm->runtime().fault_injector();
    dst[inj->corrupt_byte(ctx_->comm->world_rank(), dst.size())] ^=
        std::byte{0xFF};
  }
}

RmaTransport::DeferredGet RmaTransport::get_deferred(
    MutableByteSpan dst, int target, std::size_t offset,
    std::uint64_t charge_bytes, double overhead_scale, double start) {
  ++ctx_->metrics->rma_transfers;
  DeferredGet out;
  const FaultDecision d = decide_fault(target, overhead_scale, start);
  if (d.fail) {
    out.done = d.fail_done;
    return out;
  }
  out.done = ctx_->window->get_at(dst, target, offset,
                                  start + d.extra_latency_s, charge_bytes,
                                  overhead_scale);
  out.delivered = true;
  if (d.corrupt && !dst.empty()) {
    auto* inj = ctx_->comm->runtime().fault_injector();
    dst[inj->corrupt_byte(ctx_->comm->world_rank(), dst.size())] ^=
        std::byte{0xFF};
  }
  return out;
}

void RmaTransport::getv(std::span<const simmpi::Window::GetSegment> segments,
                        int target, std::uint64_t charge_bytes) {
  ++ctx_->metrics->rma_transfers;
  tracing::Span span(ctx_->tracer(), ctx_->clock(),
                     tracing::Category::Transport, "rma_getv");
  span.args().target = ctx_->comm->world_rank_of(target);
  std::uint64_t span_bytes = 0;
  for (const auto& seg : segments) span_bytes += seg.dst.size();
  span.args().bytes = static_cast<std::int64_t>(span_bytes);
  const bool corrupt =
      resolve_fault(target, /*overhead_scale=*/1.0, "vectored RMA get");
  ctx_->window->getv(segments, target, charge_bytes);
  if (corrupt) {
    std::uint64_t total = 0;
    for (const auto& seg : segments) total += seg.dst.size();
    if (total == 0) return;
    // One byte somewhere in the concatenated payload was damaged in
    // flight; only this transfer observed it, so per-sample checksum
    // verification downstream can recover.
    auto* inj = ctx_->comm->runtime().fault_injector();
    std::size_t hit = inj->corrupt_byte(ctx_->comm->world_rank(),
                                        static_cast<std::size_t>(total));
    for (const auto& seg : segments) {
      if (hit < seg.dst.size()) {
        seg.dst[hit] ^= std::byte{0xFF};
        break;
      }
      hit -= seg.dst.size();
    }
  }
}

}  // namespace dds::core::fetch

// Transport stage: every window access of the fetch path, and the fault
// injection seam.
//
// All lock epochs and (vectored) gets the engine issues go through this
// stage, which is also where armed fault injection decides each transfer's
// fate — the simmpi Window itself stays a faithful data mover.  Keeping
// injection at the transport seam means any alternative transport slotted
// into the engine inherits the same chaos semantics for free, and the
// window/collective layers stay testable without fault plumbing.
//
// Every transfer is a pure pricing call: it is decided and priced against
// an explicit issue time, moves the bytes, and returns {delivered, done}
// without advancing the clock or throwing.  The caller commits `done`
// once — a hedging caller races two legs and commits the winner, since the
// virtual clock is monotonic and first-response-wins must be computed
// before any advance.
//
// Injection semantics:
//  * faults apply only to remote transfers (origin != target world rank);
//  * a dead target fails the transfer at the completion of a 64-byte probe
//    (the rendezvous that times out) — no RNG draw consumed;
//  * link phases (gray failures) are consulted next: a partitioned or lost
//    transfer fails at the same probe completion, jitter delays the issue
//    point — two draws from the origin's dedicated link stream per remote
//    transfer, only when link faults are configured at all;
//  * otherwise exactly one outcome draw per transfer: Fail ends at the
//    same probe completion; Corrupt performs the real transfer then flips
//    one byte of the destination (for a vectored get, one byte somewhere in
//    the concatenated payload), leaving the exposed region intact so a
//    retry or the registry checksum can recover the true bytes.
#pragma once

#include <cstdint>
#include <span>

#include "core/fetch/context.hpp"

namespace dds::core::fetch {

class RmaTransport {
 public:
  explicit RmaTransport(const FetchContext& ctx) : ctx_(&ctx) {}

  /// Begins a shared-lock epoch on `target` (a comm rank); counted in
  /// lock_epochs.  Every epoch on the fetch path brackets exactly one
  /// get or getv, so lock_epochs == rma_transfers.
  void lock(int target);
  void unlock(int target);

  /// Outcome of one transfer: whether the payload landed in the
  /// destination, and the modeled completion of the attempt (success or
  /// failure).
  struct Transfer {
    bool delivered = false;
    double done = 0.0;
  };

  /// One get issued at virtual time `start` inside an active lock epoch on
  /// `target`; counted in rma_transfers.
  Transfer get(MutableByteSpan dst, int target, std::size_t offset,
               std::uint64_t charge_bytes, double start);

  /// One vectored get (the Coalesced mode's single transaction per target)
  /// issued at `start` inside an active lock epoch; counted in
  /// rma_transfers.
  Transfer getv(std::span<const simmpi::Window::GetSegment> segments,
                int target, std::uint64_t charge_bytes, double start);

 private:
  /// Injected fate of one remote transfer decided at time `now`.  `fail`
  /// means no data (the transfer ends at `fail_done`, the timed-out
  /// probe's completion); otherwise `extra_latency_s` delays the issue and
  /// `corrupt` flips one destination byte after the real transfer.
  struct FaultDecision {
    bool fail = false;
    double fail_done = 0.0;
    bool corrupt = false;
    double extra_latency_s = 0.0;
  };

  /// Consults the armed injector (dead targets, link phases, RMA outcome
  /// draw) for a transfer issued at `now`.  Returns a no-fault decision
  /// when injection is off or the transfer is local.
  FaultDecision decide_fault(int target, double now);

  /// Flips one byte somewhere in the concatenated payload of `segments`.
  void corrupt(std::span<const simmpi::Window::GetSegment> segments);

  /// Records one transfer as a [start, done] span.
  void trace(const char* name, int target, std::uint64_t bytes, double start,
             double done) const;

  const FetchContext* ctx_;
};

}  // namespace dds::core::fetch

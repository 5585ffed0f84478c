// One-sided RMA windows (the MPI_Win_* read subset DDStore relies on).
//
// A Window is created collectively over a communicator; each rank exposes a
// region of its own memory.  Remote ranks read it with lock + get + unlock
// — the passive-target pattern the paper selects ("MPI_Win_lock with
// MPI_LOCK_SHARED ... as a lightweight set of contention-avoiding methods",
// §3.2) — or synchronize epochs with fence().  Every epoch is shared and
// nothing writes an exposed region through the window, so an epoch never
// waits for another rank: lock() only opens this rank's epoch on the
// target, and get() moves real bytes via memcpy while the NetworkModel
// charges virtual time (software overhead + wire + queueing at the target
// node's NIC).
//
// The window is a *faithful* data mover: fault injection lives one layer up,
// at the DDStore transport seam (core/fetch/transport.hpp), which decides a
// transfer's fate before delegating the clean byte movement here.
#pragma once

#include <memory>

#include "common/bytes.hpp"
#include "simmpi/runtime.hpp"

namespace dds::simmpi {

namespace detail {

struct WindowShared {
  explicit WindowShared(std::size_t n) : regions(n), keepalives(n) {}
  std::vector<MutableByteSpan> regions;    ///< indexed by comm rank
  /// Optional shared ownership of each region's backing storage: keeps a
  /// rank's buffer alive until the *last* member's Window handle dies, so a
  /// rank finishing early cannot free memory peers still read (the
  /// in-process analogue of MPI_Win_free being collective).
  std::vector<std::shared_ptr<const void>> keepalives;
};

}  // namespace detail

class Window {
 public:
  /// Collective: every rank of `comm` must call this with its local region.
  /// Pass `keepalive` owning the region's storage to make lifetime safe
  /// against members destroying their Window at different times; with a
  /// null keepalive the caller must keep the buffer alive until every
  /// member has dropped its handle (as with a real MPI window).
  Window(Comm& comm, MutableByteSpan local,
         std::shared_ptr<const void> keepalive = nullptr);

  Window(const Window&) = delete;
  Window& operator=(const Window&) = delete;
  Window(Window&&) = default;
  Window& operator=(Window&&) = default;
  ~Window() = default;

  /// Begins a shared passive-target access epoch on `target`'s region
  /// (MPI_Win_lock with MPI_LOCK_SHARED).  Never waits.
  void lock(int target);

  /// Ends the access epoch started by lock().
  void unlock(int target);

  /// Reads dst.size() bytes from `target`'s region at `offset`.
  /// Requires an active lock epoch on `target`.
  ///
  /// `charge_bytes` overrides the transfer size used for *timing* (0 =>
  /// dst.size()): in scaled-down runs DDStore moves small real payloads but
  /// charges the paper-scale nominal sample size, so queueing and bandwidth
  /// behave as if the full dataset were stored.
  void get(MutableByteSpan dst, int target, std::size_t offset,
           std::uint64_t charge_bytes = 0);

  /// get() priced as issued at virtual time `start`: moves the bytes now
  /// (same bounds/lock checks) and charges the target's NIC, but RETURNS
  /// the completion time instead of advancing the caller's clock.  A
  /// hedging caller prices both legs this way, then commits
  /// min(primary, backup) — the clock is monotonic, so the winner must be
  /// known before any advance.  get() is advance_to(get_at(now)).
  double get_at(MutableByteSpan dst, int target, std::size_t offset,
                double start, std::uint64_t charge_bytes = 0);

  /// One disjoint range of a vectored get (see getv).
  struct GetSegment {
    std::size_t offset = 0;  ///< into the target's exposed region
    MutableByteSpan dst;     ///< receives offset..offset+dst.size()
  };

  /// Vectored read: fetches every segment from `target`'s region in ONE
  /// RMA transaction (the MPI analogue is an MPI_Get with an indexed
  /// datatype).  Requires an active lock epoch on `target`.  Timing goes
  /// through NetworkModel::rma_getv_time — the per-transfer software
  /// overhead is charged once, the wire cost sums the segment bytes.
  /// `charge_bytes` overrides the *total* size used for timing (0 => sum of
  /// segment sizes), mirroring get()'s nominal-byte accounting.
  void getv(std::span<const GetSegment> segments, int target,
            std::uint64_t charge_bytes = 0);

  /// getv() priced as issued at virtual time `start`, returning the
  /// completion time instead of advancing the clock (see get_at).
  double getv_at(std::span<const GetSegment> segments, int target,
                 double start, std::uint64_t charge_bytes = 0);

  /// Collective epoch boundary; reconciles all member clocks (MPI_Win_fence).
  void fence();

  /// Address of a target's exposed region, for copies priced outside the
  /// window (the staging stage's cold-tier reads).
  const void* region_data(int target) const {
    return shared_->regions.at(static_cast<std::size_t>(target)).data();
  }

 private:
  void check_bounds(int target, std::size_t offset, std::size_t len) const;

  Comm comm_;
  std::shared_ptr<detail::WindowShared> shared_;
  std::vector<bool> in_epoch_;  ///< this rank's open epochs, per target
};

}  // namespace dds::simmpi

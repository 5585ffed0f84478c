// DataLoader: the torch.utils.data.DataLoader-like facade (§3.2).
//
// Combines a Sampler with a DataBackend and yields collated GraphBatches.
// Each batch is one DataBackend::load_batch call, so DDStoreConfig's
// batch_fetch alone picks per-sample or coalesced reads.  The backend that
// reads a sample records its loading latency (the paper's Fig. 6/12) in
// its `sample_load_s` recorder.
#pragma once

#include <optional>

#include "common/tracing/tracer.hpp"
#include "graph/batch.hpp"
#include "train/backend.hpp"
#include "train/sampler.hpp"

namespace dds::train {

class DataLoader {
 public:
  DataLoader(DataBackend& backend, Sampler& sampler,
             model::VirtualClock& clock)
      : backend_(&backend), sampler_(&sampler), clock_(&clock) {}

  /// Collective: prepares the epoch's permutation and resets the cursor.
  void begin_epoch(std::uint64_t epoch, simmpi::Comm& comm) {
    sampler_->begin_epoch(epoch, comm);
    backend_->epoch_start();
    tracer_ = comm.tracer();
    step_ = 0;
  }

  /// Whether every batch of the epoch has been handed out.
  bool done() const { return step_ >= sampler_->steps_per_epoch(); }

  /// Loads and collates the next batch; nullopt at epoch end.
  std::optional<graph::GraphBatch> next() {
    if (done()) return std::nullopt;
    if (tracer_ != nullptr) {
      tracer_->instant(tracing::Category::Train, "sample", clock_->now());
    }
    const auto ids = sampler_->batch_ids(step_++);
    const auto samples = [&] {
      tracing::Span span(tracer_, *clock_, tracing::Category::Train,
                         "load_batch");
      return backend_->load_batch(ids);
    }();
    return graph::GraphBatch::collate(samples);
  }

  /// Nominal payload of one batch (local batch x nominal sample bytes).
  std::uint64_t nominal_batch_bytes() const {
    return sampler_->local_batch() * backend_->nominal_sample_bytes();
  }

 private:
  DataBackend* backend_;
  Sampler* sampler_;
  model::VirtualClock* clock_;
  tracing::EventTracer* tracer_ = nullptr;  ///< set per-epoch from the comm
  std::uint64_t step_ = 0;
};

}  // namespace dds::train

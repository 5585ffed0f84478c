// Real DDP training with the CPU GNN — used where the *math* matters:
// the convergence experiment (the paper's Fig. 13) and correctness tests.
//
// Follows the paper's recipe (§4.2): 80/10/10 train/validation/test split,
// AdamW with default parameters, initial LR 1e-3, ReduceLROnPlateau on the
// validation loss, MSE loss.  Gradients are all-reduced and averaged
// across ranks each step (DDP, Fig. 1 steps iv-v); each rank starts from
// the same seed and the all-reduce hands every rank the same bits (one
// fold in rank order, simmpi::Comm::allreduce_inplace), so replicas stay
// bit-identical without a broadcast, at any rank count.
#pragma once

#include "gnn/model.hpp"
#include "gnn/optim.hpp"
#include "train/loader.hpp"

namespace dds::train {

/// How per-step gradients are combined across ranks.
///
/// PerRank (the default): each rank backpropagates its collated local
/// batch and the partial gradients are summed with an allreduce.  Fast,
/// but the floating-point result depends on which rank ran which sample —
/// reassigning samples within a global batch changes the bit pattern.
///
/// Canonical: each rank backpropagates per sample, the per-sample
/// gradients are allgathered keyed by their global-batch slot, and every
/// rank folds them in slot order.  The result is a pure function of the
/// global batch *sequence* — invariant under any sample->rank assignment —
/// which is what lets the locality-aware scheduler (src/sched) claim
/// bit-identical convergence against the plain shuffle.
enum class GradReduction {
  PerRank,
  Canonical,
};

struct RealTrainerConfig {
  gnn::GnnConfig gnn;
  gnn::AdamWConfig optimizer;
  std::uint64_t local_batch = 8;
  std::uint64_t seed = 1;
  double train_fraction = 0.8;  ///< remainder split evenly val/test
  double plateau_factor = 0.5;
  int plateau_patience = 10;
  GradReduction reduction = GradReduction::PerRank;
};

struct TrainEpochResult {
  std::uint64_t epoch = 0;
  double train_loss = 0;
  double val_loss = 0;
  double test_loss = 0;
  double lr = 0;
  bool lr_reduced = false;
};

class RealTrainer {
 public:
  /// `sampler` optionally replaces the built-in GlobalShuffleSampler for
  /// the training split (non-owning; must outlive the trainer and sample
  /// ids in [0, train_size())).  This is how the locality-aware sampler
  /// (src/sched) plugs in without train/ depending on sched/.
  RealTrainer(simmpi::Comm& comm, DataBackend& backend,
              RealTrainerConfig config, Sampler* sampler = nullptr);

  /// Collective: one epoch of training + validation/test evaluation.
  TrainEpochResult run_epoch(std::uint64_t epoch);

  // ---- step-level epoch API ---------------------------------------------
  // run_epoch(e) ≡ begin_epoch(e); train_step(0..train_steps());
  // finish_epoch(e).  Exposed so the multi-tenant driver (src/tenant) can
  // interleave several trainers' steps through one shared store under an
  // arbiter's grant order; the loss math is untouched by the split, which
  // is what makes per-tenant loss curves bit-identical to solo runs.

  /// Collective: shuffles the epoch's permutation and resets the loss
  /// accumulator.
  void begin_epoch(std::uint64_t epoch);

  /// Training steps in the current epoch.
  std::uint64_t train_steps() const;

  /// Collective: one training step (load, forward/backward, gradient
  /// reduction, optimizer).  Steps must run in order, every rank together.
  void train_step(std::uint64_t step);

  /// Collective: train-loss reduction, validation/test evaluation, LR
  /// scheduler step.
  TrainEpochResult finish_epoch(std::uint64_t epoch);

  gnn::HydraGnnModel& model() { return model_; }
  std::uint64_t train_size() const { return train_size_; }
  std::uint64_t val_size() const { return val_size_; }
  std::uint64_t test_size() const { return test_size_; }

 private:
  Sampler& active_sampler() {
    return external_sampler_ != nullptr ? *external_sampler_ : train_sampler_;
  }
  const Sampler& active_sampler() const {
    if (external_sampler_ != nullptr) return *external_sampler_;
    return train_sampler_;
  }

  /// Mean MSE over an id range, evaluated in parallel across ranks.
  double evaluate(std::uint64_t first, std::uint64_t count);

  /// One canonical-reduction step: per-sample backward, slot-keyed
  /// allgather, slot-ordered fold.  Returns the slot-ordered sum of
  /// per-sample losses over the whole global batch.
  double canonical_step(Sampler& sampler, std::uint64_t step);

  static gnn::Tensor targets_of(const graph::GraphBatch& batch);

  simmpi::Comm comm_;
  DataBackend* backend_;
  RealTrainerConfig config_;
  std::uint64_t train_size_;
  std::uint64_t val_size_;
  std::uint64_t test_size_;
  gnn::HydraGnnModel model_;
  gnn::AdamW optimizer_;
  gnn::ReduceLROnPlateau scheduler_;
  GlobalShuffleSampler train_sampler_;
  Sampler* external_sampler_ = nullptr;  ///< non-owning; wins when non-null
  double loss_sum_ = 0;  ///< accumulated by train_step within one epoch
};

}  // namespace dds::train

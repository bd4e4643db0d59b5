// Generic minibatch training loop shared by every deep model in the
// evaluation, with per-epoch timing for the Table II cost comparison.
#ifndef ONE4ALL_MODEL_TRAINER_H_
#define ONE4ALL_MODEL_TRAINER_H_

#include <functional>
#include <vector>

#include "data/dataset.h"
#include "nn/module.h"
#include "nn/optimizer.h"

namespace one4all {

struct TrainOptions {
  int epochs = 3;
  int batch_size = 8;
  float learning_rate = 1e-3f;
  float grad_clip = 5.0f;
  /// Caps minibatches per epoch (0 = full epoch); keeps CI benches fast.
  int max_batches_per_epoch = 0;
  /// Learning-rate multiplier applied after every epoch (1 = constant).
  float lr_decay = 1.0f;
  /// Stop after this many epochs without validation improvement
  /// (0 disables early stopping; requires the validation split).
  int early_stop_patience = 0;
  uint64_t seed = 99;
  bool verbose = false;
};

struct TrainReport {
  std::vector<float> train_losses;  ///< mean minibatch loss per epoch
  std::vector<float> val_losses;    ///< per epoch; empty unless early stop on
  double seconds_per_epoch = 0.0;   ///< wall-clock mean over epochs
  double total_seconds = 0.0;
  int epochs_run = 0;               ///< may be < options.epochs (early stop)
  bool early_stopped = false;
};

/// \brief A model trainable by minibatch SGD: anything exposing a scalar
/// loss on a batch of dataset time slots.
using BatchLossFn =
    std::function<Variable(const STDataset&, const std::vector<int64_t>&)>;

/// \brief Runs Adam over the training split.
/// \param module Owns the parameters to optimize.
/// \param loss_fn Builds the autograd loss for one batch.
TrainReport TrainModel(Module* module, const STDataset& dataset,
                       const BatchLossFn& loss_fn,
                       const TrainOptions& options);

/// \brief Mean validation loss (no gradient) for early diagnostics.
float EvaluateLoss(const STDataset& dataset, const BatchLossFn& loss_fn,
                   const std::vector<int64_t>& indices, int batch_size);

}  // namespace one4all

#endif  // ONE4ALL_MODEL_TRAINER_H_

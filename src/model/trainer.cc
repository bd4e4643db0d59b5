#include "model/trainer.h"

#include <algorithm>
#include <limits>

#include "core/logging.h"
#include "core/rng.h"
#include "core/stopwatch.h"

namespace one4all {

TrainReport TrainModel(Module* module, const STDataset& dataset,
                       const BatchLossFn& loss_fn,
                       const TrainOptions& options) {
  O4A_CHECK(module != nullptr);
  O4A_CHECK_GT(options.batch_size, 0);

  Rng rng(options.seed);
  Adam optimizer(module->Parameters(), options.learning_rate);

  TrainReport report;
  Stopwatch total;
  std::vector<int64_t> indices = dataset.train_indices();
  float best_val = std::numeric_limits<float>::infinity();
  int epochs_since_best = 0;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    Stopwatch epoch_timer;
    rng.Shuffle(&indices);
    double loss_sum = 0.0;
    int batches = 0;
    for (size_t off = 0; off < indices.size();
         off += static_cast<size_t>(options.batch_size)) {
      if (options.max_batches_per_epoch > 0 &&
          batches >= options.max_batches_per_epoch) {
        break;
      }
      const size_t end = std::min(
          indices.size(), off + static_cast<size_t>(options.batch_size));
      std::vector<int64_t> batch(indices.begin() + static_cast<int64_t>(off),
                                 indices.begin() + static_cast<int64_t>(end));
      optimizer.ZeroGrad();
      Variable loss = loss_fn(dataset, batch);
      loss.Backward();
      optimizer.ClipGradNorm(options.grad_clip);
      optimizer.Step();
      loss_sum += loss.value()[0];
      ++batches;
    }
    const float epoch_loss =
        batches > 0 ? static_cast<float>(loss_sum / batches) : 0.0f;
    report.train_losses.push_back(epoch_loss);
    report.seconds_per_epoch += epoch_timer.ElapsedSeconds();
    ++report.epochs_run;
    if (options.verbose) {
      O4A_LOG(kInfo) << "epoch " << (epoch + 1) << "/" << options.epochs
                     << " loss=" << epoch_loss;
    }
    if (options.lr_decay != 1.0f) {
      optimizer.set_lr(optimizer.lr() * options.lr_decay);
    }
    if (options.early_stop_patience > 0) {
      const float val_loss = EvaluateLoss(dataset, loss_fn,
                                          dataset.val_indices(),
                                          options.batch_size);
      report.val_losses.push_back(val_loss);
      if (val_loss < best_val - 1e-6f) {
        best_val = val_loss;
        epochs_since_best = 0;
      } else if (++epochs_since_best >= options.early_stop_patience) {
        report.early_stopped = true;
        if (options.verbose) {
          O4A_LOG(kInfo) << "early stop at epoch " << (epoch + 1)
                         << " (best val " << best_val << ")";
        }
        break;
      }
    }
  }
  if (report.epochs_run > 0) {
    report.seconds_per_epoch /= report.epochs_run;
  }
  report.total_seconds = total.ElapsedSeconds();
  return report;
}

float EvaluateLoss(const STDataset& dataset, const BatchLossFn& loss_fn,
                   const std::vector<int64_t>& indices, int batch_size) {
  double sum = 0.0;
  int batches = 0;
  for (size_t off = 0; off < indices.size();
       off += static_cast<size_t>(batch_size)) {
    const size_t end =
        std::min(indices.size(), off + static_cast<size_t>(batch_size));
    std::vector<int64_t> batch(indices.begin() + static_cast<int64_t>(off),
                               indices.begin() + static_cast<int64_t>(end));
    sum += loss_fn(dataset, batch).value()[0];
    ++batches;
  }
  return batches > 0 ? static_cast<float>(sum / batches) : 0.0f;
}

}  // namespace one4all

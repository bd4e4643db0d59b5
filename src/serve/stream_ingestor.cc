#include "serve/stream_ingestor.h"

#include <chrono>
#include <utility>

#include "core/logging.h"
#include "core/stopwatch.h"
#include "model/one4all_net.h"

namespace one4all {

FrameInference MakeOne4AllInference(const One4AllNet* net,
                                    const STDataset* dataset) {
  O4A_CHECK(net != nullptr);
  O4A_CHECK(dataset != nullptr);
  return [net, dataset](int64_t t,
                        const TemporalInput& input) -> Result<std::vector<Tensor>> {
    (void)t;
    return net->InferServingFrames(input, *dataset);
  };
}

FrameInference MakeGroundTruthInference(const STDataset* dataset) {
  O4A_CHECK(dataset != nullptr);
  return [dataset](int64_t t,
                   const TemporalInput& input) -> Result<std::vector<Tensor>> {
    (void)input;
    if (t < 0 || t >= dataset->num_timesteps()) {
      return Status::OutOfRange("timestep outside the replayed dataset");
    }
    std::vector<Tensor> frames;
    const int n_layers = dataset->hierarchy().num_layers();
    frames.reserve(static_cast<size_t>(n_layers));
    for (int l = 1; l <= n_layers; ++l) {
      frames.push_back(dataset->FrameAtLayer(t, l));
    }
    return frames;
  };
}

// -- RollingWindow ----------------------------------------------------------

RollingWindow::RollingWindow(const TemporalFeatureSpec& spec,
                             ScaleStats atomic_stats)
    : spec_(spec), stats_(atomic_stats) {
  // Same offset order as STDataset::BuildInput (Eq. 6), so a net trained
  // on dataset-built inputs sees identical channel layout when served
  // from the rolling window.
  for (int64_t i = spec_.closeness_len; i >= 1; --i) {
    closeness_offsets_.push_back(i);
  }
  for (int64_t i = spec_.period_len; i >= 1; --i) {
    period_offsets_.push_back(i * spec_.daily_interval);
  }
  for (int64_t i = spec_.trend_len; i >= 1; --i) {
    trend_offsets_.push_back(i * spec_.weekly_interval);
  }
}

void RollingWindow::Push(int64_t t, Tensor frame) {
  O4A_CHECK_EQ(frame.ndim(), 2u);
  frames_[t] = std::move(frame);
  // Keep exactly the horizon future timesteps can still reference.
  const int64_t horizon = spec_.MinHistory();
  frames_.erase(frames_.begin(), frames_.lower_bound(t - horizon));
}

bool RollingWindow::Ready(int64_t t) const {
  const auto has_all = [&](const std::vector<int64_t>& offsets) {
    for (const int64_t offset : offsets) {
      if (frames_.find(t - offset) == frames_.end()) return false;
    }
    return true;
  };
  return has_all(closeness_offsets_) && has_all(period_offsets_) &&
         has_all(trend_offsets_);
}

Result<Tensor> RollingWindow::Stack(const std::vector<int64_t>& offsets,
                                    int64_t t) const {
  const int64_t len = static_cast<int64_t>(offsets.size());
  auto first = frames_.begin();
  if (first == frames_.end()) {
    return Status::FailedPrecondition("rolling window is empty");
  }
  const int64_t h = first->second.dim(0), w = first->second.dim(1);
  const float inv_std = 1.0f / stats_.stddev;
  Tensor out({1, len, h, w});
  for (int64_t k = 0; k < len; ++k) {
    const auto it = frames_.find(t - offsets[static_cast<size_t>(k)]);
    if (it == frames_.end()) {
      return Status::FailedPrecondition(
          "rolling window missing history for timestep " +
          std::to_string(t - offsets[static_cast<size_t>(k)]));
    }
    const float* src = it->second.data();
    float* dst = out.data() + k * h * w;
    for (int64_t i = 0; i < h * w; ++i) {
      dst[i] = (src[i] - stats_.mean) * inv_std;
    }
  }
  return out;
}

Result<TemporalInput> RollingWindow::AssembleInput(int64_t t) const {
  TemporalInput input;
  O4A_ASSIGN_OR_RETURN(input.closeness, Stack(closeness_offsets_, t));
  O4A_ASSIGN_OR_RETURN(input.period, Stack(period_offsets_, t));
  O4A_ASSIGN_OR_RETURN(input.trend, Stack(trend_offsets_, t));
  return input;
}

// -- StreamIngestor ---------------------------------------------------------

StreamIngestor::StreamIngestor(const STDataset* dataset,
                               FrameInference inference,
                               EpochSink* epochs,
                               ServingTelemetry* telemetry,
                               StreamIngestorOptions options)
    : dataset_(dataset),
      inference_(std::move(inference)),
      epochs_(epochs),
      telemetry_(telemetry),
      trace_(options.trace != nullptr ? options.trace
                                      : &TraceRecorder::Global()),
      options_(options) {
  O4A_CHECK(dataset != nullptr);
  O4A_CHECK(epochs != nullptr);
  O4A_CHECK(inference_ != nullptr);
  O4A_CHECK_GE(options_.start_t, dataset->spec().MinHistory());
  O4A_CHECK_LE(options_.start_t + options_.num_timesteps,
               dataset->num_timesteps());
}

StreamIngestor::~StreamIngestor() { Stop(); }

void StreamIngestor::Start() {
  O4A_CHECK(!thread_.joinable()) << "ingestor already started";
  {
    // Reset progress so a restart after Stop() does not report the
    // previous run's completion to done()/WaitUntil*() consumers.
    std::lock_guard<std::mutex> lock(mu_);
    published_latest_t_ = -1;
    steps_published_ = 0;
    steps_attempted_ = 0;
    paused_ = false;
    step_permits_ = 0;
    done_ = false;
    status_ = Status::OK();
    last_publish_error_ = Status::OK();
  }
  stop_requested_.store(false);
  thread_ = std::thread([this] { Run(); });
}

void StreamIngestor::Stop() {
  stop_requested_.store(true);
  control_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void StreamIngestor::Pause() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = true;
  }
  control_cv_.notify_all();
}

void StreamIngestor::Resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  control_cv_.notify_all();
}

bool StreamIngestor::paused() const {
  std::lock_guard<std::mutex> lock(mu_);
  return paused_;
}

void StreamIngestor::GrantSteps(int64_t n) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    step_permits_ += n;
  }
  control_cv_.notify_all();
}

bool StreamIngestor::WaitUntilPublished(int64_t t) {
  std::unique_lock<std::mutex> lock(mu_);
  progress_cv_.wait(lock, [&] {
    return published_latest_t_ >= t || done_;
  });
  return published_latest_t_ >= t;
}

bool StreamIngestor::WaitUntilAttempted(int64_t n) {
  std::unique_lock<std::mutex> lock(mu_);
  progress_cv_.wait(lock, [&] { return steps_attempted_ >= n || done_; });
  return steps_attempted_ >= n;
}

void StreamIngestor::WaitUntilDone() {
  std::unique_lock<std::mutex> lock(mu_);
  progress_cv_.wait(lock, [&] { return done_; });
}

bool StreamIngestor::done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_;
}

int64_t StreamIngestor::steps_published() const {
  std::lock_guard<std::mutex> lock(mu_);
  return steps_published_;
}

int64_t StreamIngestor::steps_attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return steps_attempted_;
}

Status StreamIngestor::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return status_;
}

Status StreamIngestor::last_publish_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_publish_error_;
}

bool StreamIngestor::AwaitStepClearance() {
  std::unique_lock<std::mutex> lock(mu_);
  control_cv_.wait(lock, [&] {
    if (stop_requested_.load(std::memory_order_relaxed)) return true;
    if (paused_) return false;
    return !options_.manual_stepping || step_permits_ > 0;
  });
  if (stop_requested_.load(std::memory_order_relaxed)) return false;
  if (options_.manual_stepping) --step_permits_;
  return true;
}

void StreamIngestor::Run() {
  RollingWindow window(dataset_->spec(), dataset_->StatsOfLayer(1));
  // Prime with the history the first served timestep needs.
  for (int64_t t = options_.start_t - dataset_->spec().MinHistory();
       t < options_.start_t; ++t) {
    window.Push(t, dataset_->FrameAtLayer(t, 1));
  }

  auto next_publish = std::chrono::steady_clock::now();
  // The frame set of the last *successfully published* timestep: the
  // diffing baseline of dirty-tile tracking. Diffing against it is
  // exactly consistent with the store's copy-on-write base — the
  // carried-forward previous timestep — so clean tiles alias buffers
  // with bit-identical content. Empty until the first publish (and
  // across retries of the same timestep, which re-diff unchanged).
  std::vector<Tensor> prev_frames;
  int64_t step = 0;
  while (step < options_.num_timesteps) {
    // Clearance gates each publish *attempt*: the pause seam (stalled-
    // publisher fault) and, under manual stepping, the permit budget the
    // scenario clock hands out. A refused write below retries the same
    // timestep, so every retry costs a fresh clearance too.
    if (!AwaitStepClearance()) break;
    const int64_t t = options_.start_t + step;

    // The whole attempt is one kPublishEpoch trace (arg: timestep) with
    // infer / stage-frames / publish child spans. Scoped to close before
    // the pacing sleep below, so publish spans measure work, not cadence.
    Stopwatch publish_timer;
    Status publish_status;
    bool fatal = false;
    {
      TraceContext trace_ctx = trace_->StartTrace(SpanCategory::kEpoch);
      ScopedSpan epoch_span(&trace_ctx, SpanName::kPublishEpoch, t);

      // One observation arrives... (Push overwrites idempotently, so the
      // re-push on a retried timestep is harmless.)
      window.Push(t, dataset_->FrameAtLayer(t, 1));
      auto input = window.AssembleInput(t);
      if (!input.ok()) {
        std::lock_guard<std::mutex> lock(mu_);
        status_ = input.status();
        fatal = true;
      }
      // ...the model turns it into the next multi-scale frame set...
      Result<std::vector<Tensor>> frames =
          Status::Internal("inference not attempted");
      if (!fatal) {
        ScopedSpan infer_span(&trace_ctx, SpanName::kInfer, t);
        frames = inference_(t, *input);
      }
      if (!fatal && !frames.ok()) {
        std::lock_guard<std::mutex> lock(mu_);
        status_ = frames.status();
        fatal = true;
      }

      // ...which becomes one atomically-published epoch. A store write
      // refusal is absorbed, not fatal: the half-staged shadow
      // generation is dropped whole (readers never saw it), the failure
      // is counted, and the same timestep is retried on the next
      // clearance. The sink decides the substrate — one epoch manager,
      // or N band shards flipped behind a barrier.
      if (!fatal) {
        // Dirty-tile tracking: diff this timestep's frames against the
        // previously published set so the sink stages only changed
        // tiles. Without carry-forward the previous timestep is never
        // in the new epoch, so there is no copy-on-write base and the
        // diff would be wasted work.
        DirtyTileSets dirty;
        const DirtyTileSets* dirty_ptr = nullptr;
        if (options_.carry_forward &&
            prev_frames.size() == frames->size() && !prev_frames.empty()) {
          dirty.reserve(frames->size());
          for (size_t i = 0; i < frames->size(); ++i) {
            dirty.push_back(DiffFrames((*frames)[i], prev_frames[i]));
          }
          dirty_ptr = &dirty;
        }
        publish_timer.Restart();
        publish_status = epochs_->StageAndPublish(
            t, *frames, dirty_ptr, options_.carry_forward, &trace_ctx);
        if (publish_status.ok()) prev_frames = std::move(*frames);
      }
    }
    if (fatal) break;

    if (publish_status.ok()) {
      if (telemetry_ != nullptr) {
        telemetry_->publish_latency.Record(publish_timer.ElapsedMicros());
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        published_latest_t_ = t;
        ++steps_published_;
        ++steps_attempted_;
        last_publish_error_ = Status::OK();
      }
      progress_cv_.notify_all();
      ++step;
      if (options_.min_publish_interval_ms > 0) {
        next_publish +=
            std::chrono::milliseconds(options_.min_publish_interval_ms);
        std::this_thread::sleep_until(next_publish);
      }
    } else {
      if (telemetry_ != nullptr) {
        telemetry_->publish_failures.fetch_add(1, std::memory_order_relaxed);
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++steps_attempted_;
        last_publish_error_ = publish_status;
      }
      progress_cv_.notify_all();
      if (!options_.manual_stepping) {
        // Free-running mode would otherwise spin on a persistent fault;
        // manual mode instead waits for its next permit.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    done_ = true;
  }
  progress_cv_.notify_all();
}

}  // namespace one4all

#include "train/trainer.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "nn/checkpoint.hpp"
#include "nn/metrics.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dmis::train {
namespace {

struct TrainMetrics {
  obs::Counter& steps;
  obs::Counter& epochs;
  obs::Counter& optim_steps;
  obs::Histogram& step_us;

  static TrainMetrics& get() {
    auto& reg = obs::MetricsRegistry::instance();
    static TrainMetrics m{reg.counter("train.steps"),
                          reg.counter("train.epochs"),
                          reg.counter("train.optim_steps"),
                          reg.histogram("train.step_us")};
    return m;
  }
};

}  // namespace

Trainer::Trainer(nn::UNet3d& model, const TrainOptions& options)
    : model_(model), options_(options) {
  DMIS_CHECK(options.epochs >= 1, "epochs must be >= 1, got "
                                      << options.epochs);
  loss_ = nn::make_loss(options.loss);
  optimizer_ = std::make_unique<nn::Adam>(model.params(), options.lr);
  if (options.cyclic.has_value()) {
    schedule_ = std::make_unique<nn::CyclicLr>(options.cyclic->base_lr,
                                               options.cyclic->max_lr,
                                               options.cyclic->step_size);
  } else {
    schedule_ = std::make_unique<nn::ConstantLr>(options.lr);
  }
}

TrainReport Trainer::fit(data::BatchStream& train, data::BatchStream* val,
                         const EpochCallback& callback) {
  TrainReport report;
  TrainMetrics& metrics = TrainMetrics::get();
  for (int64_t epoch = 0; epoch < options_.epochs; ++epoch) {
    DMIS_TRACE_SPAN("train.epoch", {{"epoch", epoch}});
    double loss_sum = 0.0;
    int64_t steps = 0;
    double current_lr = options_.lr;
    while (auto batch = train.next()) {
      const int64_t step_t0 = obs::Tracer::now_us();
      DMIS_TRACE_SPAN("train.step", {{"n", batch->size()}});
      current_lr = schedule_->lr(optimizer_->step_count());
      optimizer_->set_lr(current_lr);
      optimizer_->zero_grad();
      const NDArray* pred;
      {
        DMIS_TRACE_SPAN("train.forward");
        pred = &model_.forward(batch->images, /*training=*/true);
      }
      const nn::LossResult res = [&] {
        DMIS_TRACE_SPAN("train.loss");
        return loss_->compute(*pred, batch->labels);
      }();
      {
        DMIS_TRACE_SPAN("train.backward");
        model_.backward(res.grad);
      }
      {
        DMIS_TRACE_SPAN("train.optim");
        optimizer_->step();
        metrics.optim_steps.add(1);
      }
      loss_sum += res.value;
      ++steps;
      metrics.steps.add(1);
      metrics.step_us.observe(
          static_cast<double>(obs::Tracer::now_us() - step_t0));
    }
    train.reset();
    metrics.epochs.add(1);
    DMIS_CHECK(steps > 0, "training stream produced no batches");

    EpochStats stats;
    stats.epoch = epoch;
    stats.steps = steps;
    stats.train_loss = loss_sum / static_cast<double>(steps);
    stats.lr = current_lr;
    report.total_steps += steps;
    if (val != nullptr) {
      stats.val_dice = [&] {
        DMIS_TRACE_SPAN("train.validate", {{"epoch", epoch}});
        return evaluate(*val);
      }();
      if (*stats.val_dice > report.best_val_dice || epoch == 0) {
        report.best_val_dice = std::max(report.best_val_dice, *stats.val_dice);
        if (!options_.checkpoint_path.empty()) {
          // Persist trainable parameters AND batch-norm running stats
          // so restored models evaluate identically.
          nn::save_checkpoint(options_.checkpoint_path,
                              model_.checkpoint_params());
        }
      }
    }
    report.history.push_back(stats);
    if (callback && !callback(stats)) break;
  }
  return report;
}

double Trainer::evaluate(data::BatchStream& val) {
  return evaluate_dice(model_, val);
}

double evaluate_dice(nn::UNet3d& model, data::BatchStream& val) {
  double dice_sum = 0.0;
  int64_t n = 0;
  while (auto batch = val.next()) {
    const NDArray& pred = model.forward(batch->images, /*training=*/false);
    // Per-sample Dice, matching how the paper reports DSC.
    const int64_t bs = batch->size();
    const int64_t per = pred.numel() / bs;
    for (int64_t i = 0; i < bs; ++i) {
      NDArray p(Shape{per}, std::span<const float>(pred.data() + i * per,
                                                   static_cast<size_t>(per)));
      NDArray t(Shape{per},
                std::span<const float>(batch->labels.data() + i * per,
                                       static_cast<size_t>(per)));
      dice_sum += nn::dice_score(p, t);
      ++n;
    }
  }
  val.reset();
  DMIS_CHECK(n > 0, "validation stream produced no examples");
  return dice_sum / static_cast<double>(n);
}

}  // namespace dmis::train

#include "train/pipeline_parallel.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "nn/metrics.hpp"

namespace dmis::train {

PipelineParallelStrategy::PipelineParallelStrategy(
    const nn::UNet3dOptions& model_options,
    const PipelineParallelOptions& options)
    : options_(options),
      model_(model_options, options.num_microbatches) {
  DMIS_CHECK(options.train.epochs >= 1, "epochs must be >= 1");
  loss_ = nn::make_loss(options.train.loss);
  optimizer_ = std::make_unique<nn::Adam>(model_.params(), options.train.lr);
  if (options.train.cyclic.has_value()) {
    const auto& c = *options.train.cyclic;
    schedule_ =
        std::make_unique<nn::CyclicLr>(c.base_lr, c.max_lr, c.step_size);
  } else {
    schedule_ = std::make_unique<nn::ConstantLr>(options.train.lr);
  }
}

TrainReport PipelineParallelStrategy::fit(data::BatchStream& train,
                                          data::BatchStream* val,
                                          const EpochCallback& callback) {
  TrainReport report;
  for (int64_t epoch = 0; epoch < options_.train.epochs; ++epoch) {
    double loss_sum = 0.0;
    int64_t steps = 0;
    double current_lr = options_.train.lr;
    while (auto batch = train.next()) {
      current_lr = schedule_->lr(optimizer_->step_count());
      optimizer_->set_lr(current_lr);
      optimizer_->zero_grad();
      const NDArray pred = model_.forward(batch->images, /*training=*/true);
      const nn::LossResult res = loss_->compute(pred, batch->labels);
      model_.backward(res.grad);
      optimizer_->step();
      loss_sum += res.value;
      ++steps;
    }
    train.reset();
    DMIS_CHECK(steps > 0, "training stream produced no batches");

    EpochStats stats;
    stats.epoch = epoch;
    stats.steps = steps;
    stats.train_loss = loss_sum / static_cast<double>(steps);
    stats.lr = current_lr;
    report.total_steps += steps;
    if (val != nullptr) {
      stats.val_dice = evaluate(*val);
      report.best_val_dice = std::max(report.best_val_dice, *stats.val_dice);
    }
    report.history.push_back(stats);
    if (callback && !callback(stats)) break;
  }
  return report;
}

double PipelineParallelStrategy::evaluate(data::BatchStream& val) {
  double dice_sum = 0.0;
  int64_t n = 0;
  while (auto batch = val.next()) {
    const NDArray pred = model_.forward(batch->images, /*training=*/false);
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

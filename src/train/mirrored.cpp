#include "train/mirrored.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <filesystem>
#include <mutex>

#include "comm/communicator.hpp"
#include "common/check.hpp"
#include "common/env.hpp"
#include "nn/checkpoint.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/thread_pool.hpp"
#include "train/grad_bucketer.hpp"
#include "train/straggler.hpp"

namespace dmis::train {
namespace {

// Emits the train.grad_sync.overlap / train.grad_sync.tail span pair
// plus the overlap histogram for one replica step: `overlap` covers
// first-bucket-launch -> backward-end (comm hidden under compute),
// `tail` covers backward-end -> wait-end (comm left exposed).
void record_overlap(const GradBucketer& bucketer, int64_t backward_end_us) {
  const int64_t first = bucketer.first_fire_us();
  if (first < 0) return;
  const int64_t wait_end = obs::Tracer::now_us();
  const int64_t overlap_end =
      backward_end_us < first ? first : std::min(backward_end_us, wait_end);
  static obs::Histogram& overlap_ms =
      obs::MetricsRegistry::instance().histogram("train.grad_sync.overlap_ms");
  overlap_ms.observe(static_cast<double>(overlap_end - first) / 1000.0);
  if (obs::trace_enabled()) {
    auto& tracer = obs::Tracer::instance();
    tracer.record_span("train.grad_sync.overlap", first,
                       overlap_end - first);
    tracer.record_span("train.grad_sync.tail", overlap_end,
                       wait_end - overlap_end);
  }
}

// Everything one failed step leaves behind for the driver: which
// replicas reported themselves dead, the dead-set the survivor
// agreement round sealed (identical on every survivor, recorded once),
// and the first error for fail-fast rethrow.
struct StepFailure {
  explicit StepFailure(int world) : self_dead(static_cast<size_t>(world), 0) {}

  bool happened() const { return failed; }

  void record(std::exception_ptr err) {
    const std::lock_guard<std::mutex> lock(mutex);
    failed = true;
    if (!first) first = std::move(err);
  }

  std::mutex mutex;
  bool failed = false;
  std::exception_ptr first;
  std::vector<char> self_dead;   // replica crashed or was fenced out
  std::vector<int> agreed_dead;  // sealed by the agreement round
  bool agreed = false;
};

}  // namespace

struct MirroredStrategy::Impl {
  std::vector<comm::Communicator> comms;
  std::vector<std::unique_ptr<nn::Loss>> losses;
  std::vector<std::unique_ptr<nn::Optimizer>> optimizers;
  std::vector<std::unique_ptr<GradBucketer>> bucketers;  // one per replica
  std::unique_ptr<nn::LrSchedule> schedule;
  std::unique_ptr<StragglerDetector> straggler;
  // One long-lived worker per rank, rebuilt with the group. Each step
  // (and the grow broadcast) submits one closure per rank; a closure
  // blocks only on peers that are running or queued, and there is a
  // thread for every closure, so the collectives cannot starve.
  std::unique_ptr<ThreadPool> ranks;
  int rank_share = 1;  // intra-op share of each rank worker
  bool elastic = false;
  std::string ckpt_path;  // elastic_dir + "/elastic.ckpt"
  int64_t recoveries = 0;
  int64_t grows = 0;
  // Ranks requested by request_rejoin(), admitted at the next boundary.
  std::atomic<int> pending_rejoins{0};
};

MirroredStrategy::MirroredStrategy(const nn::UNet3dOptions& model_options,
                                   const MirroredOptions& options)
    : options_(options),
      model_options_(model_options),
      impl_(std::make_unique<Impl>()) {
  DMIS_CHECK(options.num_replicas >= 1,
             "need >= 1 replica, got " << options.num_replicas);
  DMIS_CHECK(options.train.checkpoint_path.empty(),
             "MirroredStrategy does not checkpoint; train.checkpoint_path "
             "must be empty");
  const int r = options.num_replicas;
  replicas_.reserve(static_cast<size_t>(r));
  for (int i = 0; i < r; ++i) {
    // Same seed in model_options -> bit-identical initial weights.
    replicas_.push_back(std::make_unique<nn::UNet3d>(model_options));
  }
  impl_->elastic = env_bool("DMIS_ELASTIC").value_or(options.elastic);
  if (impl_->elastic) {
    DMIS_CHECK(!options_.elastic_dir.empty(),
               "elastic mode needs MirroredOptions::elastic_dir for the "
               "step-consistent checkpoint");
    impl_->ckpt_path = options_.elastic_dir + "/elastic.ckpt";
  }
  build_group();
}

MirroredStrategy::~MirroredStrategy() = default;

bool MirroredStrategy::elastic() const { return impl_->elastic; }

int64_t MirroredStrategy::recoveries() const { return impl_->recoveries; }

int64_t MirroredStrategy::grows() const { return impl_->grows; }

void MirroredStrategy::request_rejoin() {
  DMIS_CHECK(impl_->elastic, "request_rejoin() requires elastic mode");
  impl_->pending_rejoins.fetch_add(1, std::memory_order_relaxed);
}

double MirroredStrategy::effective_lr() const {
  const int world =
      replicas_.empty() ? options_.num_replicas : world_size();
  return options_.scale_lr ? options_.train.lr * static_cast<double>(world)
                           : options_.train.lr;
}

void MirroredStrategy::build_group() {
  const int r = world_size();
  const size_t bucket_bytes =
      GradBucketer::effective_bucket_bytes(options_.bucket_bytes);
  // Teardown order matters: hooks and bucketers reference the old
  // communicators; the old context's destructor joins its comm workers.
  for (auto& model : replicas_) {
    model->graph().set_grad_ready_hook(nullptr);
  }
  impl_->bucketers.clear();
  impl_->optimizers.clear();
  impl_->losses.clear();
  impl_->comms.clear();
  impl_->comms = comm::make_group(r, options_.comm_timeout_ms);
  const double lr = effective_lr();
  for (int i = 0; i < r; ++i) {
    impl_->losses.push_back(nn::make_loss(options_.train.loss));
    impl_->optimizers.push_back(std::make_unique<nn::Adam>(
        replicas_[static_cast<size_t>(i)]->params(), lr));
  }
  for (int i = 0; i < r; ++i) {
    nn::UNet3d& model = *replicas_[static_cast<size_t>(i)];
    impl_->bucketers.push_back(std::make_unique<GradBucketer>(
        model.params(), impl_->comms[static_cast<size_t>(i)],
        bucket_bytes));
    // Fires each bucket's allreduce mid-backward; disarmed outside
    // begin_step()/wait_all(), so forward-only use stays free.
    model.graph().set_grad_ready_hook(
        [b = impl_->bucketers.back().get()](const nn::Param& p) {
          b->on_grad_ready(p);
        });
  }
  if (options_.train.cyclic.has_value()) {
    const auto& c = *options_.train.cyclic;
    impl_->schedule =
        std::make_unique<nn::CyclicLr>(c.base_lr, c.max_lr, c.step_size);
  } else {
    impl_->schedule = std::make_unique<nn::ConstantLr>(lr);
  }
  // Fresh detector per group: after an elastic shrink the surviving
  // replicas are renumbered, so old per-rank windows no longer apply.
  impl_->straggler = std::make_unique<StragglerDetector>(r);
  impl_->ranks = std::make_unique<ThreadPool>(r);
  impl_->rank_share = unit_share(r);
  obs::MetricsRegistry::instance()
      .gauge("train.intra_op_threads")
      .set(static_cast<double>(impl_->rank_share));
}

TrainReport MirroredStrategy::fit(data::BatchStream& train,
                                  data::BatchStream* val,
                                  const EpochCallback& callback) {
  TrainReport report;
  const bool elastic = impl_->elastic;
  auto& reg = obs::MetricsRegistry::instance();
  obs::Gauge& world_gauge = reg.gauge("train.elastic.world_size");
  obs::Counter& recovery_counter = reg.counter("train.elastic.recoveries");
  obs::Counter& grow_counter = reg.counter("train.elastic.grows");
  world_gauge.set(static_cast<double>(world_size()));

  // The __progress__ rider checkpointed with the weights: epoch, steps
  // completed in that epoch, optimizer step count, and the epoch's
  // running loss sum (float-rounded; only the reported mean is
  // affected, never the weights).
  NDArray progress(Shape({4}));

  const auto save_state = [&](int64_t epoch, int64_t step_in_epoch,
                              double loss_sum) {
    progress[0] = static_cast<float>(epoch);
    progress[1] = static_cast<float>(step_in_epoch);
    progress[2] =
        static_cast<float>(impl_->optimizers.front()->step_count());
    progress[3] = static_cast<float>(loss_sum);
    std::vector<nn::Param> params = replicas_.front()->checkpoint_params();
    for (nn::Param& sp : impl_->optimizers.front()->state_params()) {
      params.push_back(sp);
    }
    params.push_back(nn::Param{"__progress__", &progress, &progress});
    nn::save_checkpoint(impl_->ckpt_path, params);
  };

  if (elastic) {
    std::filesystem::create_directories(options_.elastic_dir);
    nn::sweep_stale_checkpoints(options_.elastic_dir);
    save_state(0, 0, 0.0);  // step-0 snapshot: a failure in the very
                            // first step restores to initial weights
  }

  // Set by elastic recovery to resume a partially completed epoch.
  int64_t epoch = 0;
  int64_t resume_steps = 0;
  double resume_loss_sum = 0.0;

  // Shrinks to the survivors of a failed step and restores the last
  // step-consistent checkpoint into every one of them. Rethrows when
  // nobody survived.
  const auto recover = [&](StepFailure& failure) {
    DMIS_TRACE_SPAN("train.elastic.recovery");
    const int old_world = world_size();
    std::vector<char> dead(static_cast<size_t>(world_size()), 0);
    for (const int d : failure.agreed_dead) {
      dead[static_cast<size_t>(d)] = 1;
    }
    for (size_t i = 0; i < failure.self_dead.size(); ++i) {
      if (failure.self_dead[i] != 0) dead[i] = 1;
    }
    std::vector<std::unique_ptr<nn::UNet3d>> survivors;
    for (size_t i = 0; i < replicas_.size(); ++i) {
      if (dead[i] == 0) survivors.push_back(std::move(replicas_[i]));
    }
    if (survivors.empty()) std::rethrow_exception(failure.first);
    replicas_ = std::move(survivors);
    ++impl_->recoveries;
    recovery_counter.add(1);
    build_group();
    world_gauge.set(static_cast<double>(world_size()));
    obs::FlightRecorder::instance().dump(
        "train.elastic.shrink(" + std::to_string(old_world) + "->" +
        std::to_string(world_size()) + ")");
    for (size_t i = 0; i < replicas_.size(); ++i) {
      std::vector<nn::Param> params = replicas_[i]->checkpoint_params();
      for (nn::Param& sp : impl_->optimizers[i]->state_params()) {
        params.push_back(sp);
      }
      params.push_back(nn::Param{"__progress__", &progress, &progress});
      nn::load_checkpoint(impl_->ckpt_path, params);
      impl_->optimizers[i]->set_step_count(
          static_cast<int64_t>(progress[2]));
    }
    epoch = static_cast<int64_t>(progress[0]);
    resume_steps = static_cast<int64_t>(progress[1]);
    resume_loss_sum = static_cast<double>(progress[3]);
  };

  // Elastic scale-up, run at epoch boundaries: no collective is in
  // flight, the in-flight buckets are drained (wait_all completed for
  // every step of the epoch), and a step-consistent checkpoint was just
  // written — the one moment the world can change shape safely.
  const auto maybe_grow = [&]() {
    const int admitted =
        impl_->pending_rejoins.exchange(0, std::memory_order_relaxed);
    if (admitted == 0) return;
    DMIS_TRACE_SPAN("train.elastic.grow");
    const int old_world = world_size();
    // Capture rank 0's optimizer slots and step count before teardown:
    // build_group() hands every replica a fresh optimizer, and the
    // post-rebuild broadcast needs a root that still holds real state.
    std::vector<std::vector<float>> slot_values;
    for (nn::Param& sp : impl_->optimizers.front()->state_params()) {
      slot_values.emplace_back(sp.value->data(),
                               sp.value->data() + sp.value->numel());
    }
    const int64_t opt_steps = impl_->optimizers.front()->step_count();
    for (int j = 0; j < admitted; ++j) {
      replicas_.push_back(std::make_unique<nn::UNet3d>(model_options_));
    }
    build_group();  // enlarged world: lr rescaled back up, fresh
                    // straggler baselines
    {
      std::vector<nn::Param> sps =
          impl_->optimizers.front()->state_params();
      DMIS_CHECK(sps.size() == slot_values.size(),
                 "optimizer slot count changed across elastic rebuild");
      for (size_t s = 0; s < sps.size(); ++s) {
        DMIS_CHECK(static_cast<size_t>(sps[s].value->numel()) ==
                       slot_values[s].size(),
                   "optimizer slot '" << sps[s].name
                                      << "' resized across rebuild");
        std::copy(slot_values[s].begin(), slot_values[s].end(),
                  sps[s].value->data());
      }
    }
    // Broadcast weights + optimizer slots + __progress__ from rank 0 —
    // the joiners' first collectives on the new group, and a live smoke
    // of the rebuilt communicator before training resumes.
    const int world = world_size();
    std::exception_ptr bcast_err;
    std::mutex bcast_mutex;
    for (int rnk = 0; rnk < world; ++rnk) {
      impl_->ranks->submit([&, rnk] {
        try {
          comm::Communicator& comm = impl_->comms[static_cast<size_t>(rnk)];
          for (nn::Param& p :
               replicas_[static_cast<size_t>(rnk)]->checkpoint_params()) {
            comm.broadcast(p.value->span(), /*root=*/0);
          }
          for (nn::Param& sp :
               impl_->optimizers[static_cast<size_t>(rnk)]->state_params()) {
            comm.broadcast(sp.value->span(), /*root=*/0);
          }
          NDArray prog(Shape({4}));
          if (rnk == 0) {
            for (int64_t k = 0; k < 4; ++k) prog[k] = progress[k];
          }
          comm.broadcast(prog.span(), /*root=*/0);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(bcast_mutex);
          if (!bcast_err) bcast_err = std::current_exception();
        }
      });
    }
    impl_->ranks->wait_idle();
    if (bcast_err) std::rethrow_exception(bcast_err);
    for (auto& opt : impl_->optimizers) opt->set_step_count(opt_steps);
    ++impl_->grows;
    grow_counter.add(1);
    world_gauge.set(static_cast<double>(world));
    obs::FlightRecorder::instance().dump(
        "train.elastic.grow(" + std::to_string(old_world) + "->" +
        std::to_string(world) + ")");
  };

  bool stop_requested = false;
  while (epoch < options_.train.epochs && !stop_requested) {
    double loss_sum = resume_loss_sum;
    int64_t steps = resume_steps;
    int64_t skip = resume_steps;  // fast-forward after a mid-epoch restore
    resume_steps = 0;
    resume_loss_sum = 0.0;
    double current_lr = effective_lr();
    bool failed_this_epoch = false;

    while (auto batch = train.next()) {
      if (skip > 0) {
        --skip;
        continue;
      }
      const int r = world_size();
      const int64_t total = batch->size();
      current_lr = impl_->schedule->lr(impl_->optimizers[0]->step_count());

      // Contiguous split of the global batch: replica i takes
      // total/r (+1 for the first total%r replicas) samples.
      const int64_t base = total / r;
      const int64_t extra = total % r;
      std::vector<int64_t> offsets(static_cast<size_t>(r) + 1, 0);
      for (int i = 0; i < r; ++i) {
        const int64_t count = base + (i < extra ? 1 : 0);
        offsets[static_cast<size_t>(i) + 1] =
            offsets[static_cast<size_t>(i)] + count;
      }

      const Shape& img_shape = batch->images.shape();
      const Shape& lbl_shape = batch->labels.shape();
      const int64_t img_per = img_shape.numel() / total;
      const int64_t lbl_per = lbl_shape.numel() / total;

      std::vector<double> replica_loss(static_cast<size_t>(r), 0.0);
      StepFailure failure(r);
      for (int i = 0; i < r; ++i) {
        impl_->ranks->submit([&, i] {
          // The rank workers run nothing else, so this pins their share.
          set_intra_op_share(impl_->rank_share);
          nn::UNet3d& model = *replicas_[static_cast<size_t>(i)];
          comm::Communicator& comm = impl_->comms[static_cast<size_t>(i)];
          GradBucketer& bucketer = *impl_->bucketers[static_cast<size_t>(i)];
          try {
            const int64_t step_begin_us = obs::Tracer::now_us();
            nn::Optimizer& opt = *impl_->optimizers[static_cast<size_t>(i)];
            const int64_t lo = offsets[static_cast<size_t>(i)];
            const int64_t hi = offsets[static_cast<size_t>(i) + 1];
            const int64_t count = hi - lo;

            // Weight local mean-gradients by sample count, sum across
            // the ring, then renormalize by the global batch — exact
            // even for ragged final batches and idle replicas. Both
            // scalings are folded into the bucket pack/unpack copies.
            const float weight = static_cast<float>(count);
            const float inv_total = 1.0F / static_cast<float>(total);

            opt.zero_grad();
            bucketer.begin_step(weight, inv_total);
            int64_t backward_end_us = -1;
            if (count > 0) {
              Shape local_img = img_shape.with_dim(0, count);
              Shape local_lbl = lbl_shape.with_dim(0, count);
              NDArray images(local_img,
                             std::span<const float>(
                                 batch->images.data() + lo * img_per,
                                 static_cast<size_t>(count * img_per)));
              NDArray labels(local_lbl,
                             std::span<const float>(
                                 batch->labels.data() + lo * lbl_per,
                                 static_cast<size_t>(count * lbl_per)));
              const NDArray& pred =
                  model.forward(images, /*training=*/true);
              const nn::LossResult res =
                  impl_->losses[static_cast<size_t>(i)]->compute(pred,
                                                                 labels);
              replica_loss[static_cast<size_t>(i)] =
                  res.value * static_cast<double>(count);
              {
                DMIS_TRACE_SPAN("train.backward");
                model.backward(res.grad);
              }
              backward_end_us = obs::Tracer::now_us();
            }

            // Buckets whose last gradient arrived mid-backward are
            // already in flight; flush the stragglers (all of them for
            // an idle replica), then drain and unpack.
            const int64_t wait_begin_us = obs::Tracer::now_us();
            bucketer.flush();
            bucketer.wait_all();
            const int64_t sync_wait_us =
                obs::Tracer::now_us() - wait_begin_us;
            record_overlap(bucketer, backward_end_us);
            opt.set_lr(current_lr);
            opt.step();
            impl_->straggler->record_step(
                i, static_cast<double>(obs::Tracer::now_us() -
                                       step_begin_us));
            impl_->straggler->record_wait(i,
                                          static_cast<double>(sync_wait_us));
          } catch (const comm::CommError&) {
            // A peer failed (or our own deadline fired): the group is
            // poisoned. Let go of the bucket buffers, then — in elastic
            // mode — join the survivor agreement so every survivor
            // leaves with the same dead-set.
            bucketer.abandon();
            failure.record(std::current_exception());
            if (elastic) {
              try {
                std::vector<int> sealed =
                    comm.agree_on_failures(options_.agree_grace_ms);
                const std::lock_guard<std::mutex> lock(failure.mutex);
                if (!failure.agreed) {
                  failure.agreed_dead = std::move(sealed);
                  failure.agreed = true;
                }
              } catch (const comm::CommError&) {
                // Fenced out: the survivors sealed without us.
                const std::lock_guard<std::mutex> lock(failure.mutex);
                failure.self_dead[static_cast<size_t>(i)] = 1;
              }
            }
          } catch (const std::exception& e) {
            // This replica itself crashed: poison the group so peers
            // blocked in the ring wake with kPeerFailed instead of
            // deadlocking, and report ourselves dead.
            comm.abort(e.what());
            bucketer.abandon();
            {
              const std::lock_guard<std::mutex> lock(failure.mutex);
              failure.self_dead[static_cast<size_t>(i)] = 1;
            }
            failure.record(std::current_exception());
          }
        });
      }
      impl_->ranks->wait_idle();

      if (failure.happened()) {
        if (!elastic) std::rethrow_exception(failure.first);
        recover(failure);
        failed_this_epoch = true;
        break;  // replay this epoch from the restored position
      }

      double batch_loss = 0.0;
      for (double l : replica_loss) batch_loss += l;
      loss_sum += batch_loss / static_cast<double>(total);
      ++steps;
      if (elastic && options_.checkpoint_every_steps > 0 &&
          steps % options_.checkpoint_every_steps == 0) {
        save_state(epoch, steps, loss_sum);
      }
    }
    train.reset();
    if (failed_this_epoch) continue;
    DMIS_CHECK(steps > 0, "training stream produced no batches");

    // Epoch boundary: compare the ranks' rolling step-time p50s and
    // flag (metrics + warning) if one rank is dragging the group.
    impl_->straggler->check();

    EpochStats stats;
    stats.epoch = epoch;
    stats.steps = steps;
    stats.train_loss = loss_sum / static_cast<double>(steps);
    stats.lr = current_lr;
    report.total_steps += steps;
    if (val != nullptr) {
      stats.val_dice = evaluate_dice(*replicas_.front(), *val);
      report.best_val_dice = std::max(report.best_val_dice, *stats.val_dice);
    }
    report.history.push_back(stats);
    if (callback && !callback(stats)) stop_requested = true;
    ++epoch;
    if (elastic) save_state(epoch, 0, 0.0);  // epoch-boundary snapshot
    if (!stop_requested && epoch < options_.train.epochs) maybe_grow();
  }
  return report;
}

}  // namespace dmis::train

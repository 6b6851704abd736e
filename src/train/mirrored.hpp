// MirroredStrategy: real data-parallel training over in-process replicas.
//
// The paper's data-parallel path replicates the model on every GPU
// (tf.MirroredStrategy within a node, Ray.SGD across nodes) and splits
// each global batch across replicas, synchronizing gradients with an
// allreduce every step. Here replicas are threads — one long-lived rank
// worker each, rebuilt with the group on an elastic shrink or grow, and
// each running its loops on its share of the cores (see
// tensor/thread_pool.hpp). Each owns a full model copy (identical
// initialization via a shared seed) and its own optimizer; gradients
// are combined with the chunked ring allreduce from dmis_comm through
// GradBucketer, which packs them into flat buckets and launches each
// bucket's allreduce asynchronously as soon as backward finishes
// producing it, weighted by per-replica sample counts so ragged final
// batches remain exact. Because every replica then applies the same
// averaged gradient to the same parameters with the same optimizer
// state, the replicas stay bit-identical — exactly the mirrored-variable
// invariant of the TF strategy.
//
// Failure semantics. A replica that dies mid-step poisons the comm
// group (see comm/communicator.hpp), so every other replica surfaces a
// typed comm::CommError instead of deadlocking in the ring. What
// happens next depends on the mode:
//  * fail-fast (default): fit() rethrows the first error — the whole
//    strategy is one unit of failure, and the tune layer's trial retry
//    owns recovery.
//  * elastic (MirroredOptions::elastic or DMIS_ELASTIC=1): survivors
//    run the comm agreement round to seal an identical dead-rank set,
//    abandon in-flight gradient buckets, rebuild the group over the
//    survivors (rescaling the linear-scaled learning rate to the new
//    world size), restore model + optimizer state from the last
//    step-consistent checkpoint in `elastic_dir`, fast-forward the
//    batch stream to the checkpointed position, and keep training at
//    the reduced world size. Recovery replays from the latest
//    checkpoint, so with the default every-step cadence at most one
//    step of work is lost per failure.
//
// Scale-UP (elastic mode): request_rejoin() counts one returning rank
// — the FaultInjector restart action lets chaos tests kill a rank with
// its rejoin already requested. At the next epoch boundary (in-flight
// buckets drained, no collective live, checkpoint just written) the
// driver appends that many fresh replicas, rebuilds the communicator
// over the enlarged world (fresh StragglerDetector baselines, learning
// rate rescaled back up), and broadcasts rank 0's weights + optimizer
// slots + __progress__ to everyone. Both shrink and grow emit a tagged
// flight-recorder dump and update the train.elastic.world_size gauge.
//
// The step-consistent checkpoint piggybacks on nn::save_checkpoint
// (temp file + fsync + atomic rename, CRC-protected): it stores replica
// 0's checkpoint_params(), the optimizer slot state, and a __progress__
// rider (epoch / step / optimizer step count / running loss sum), and
// is written by the driver thread between steps — never mid-collective
// — which is what makes it step-consistent. Mid-epoch restores assume
// the batch stream replays the same batch sequence after reset()
// (true for the deterministic pipelines used here).
//
// Batch-norm note: like the TF strategy (without SyncBatchNorm), batch
// statistics are computed per replica on its local shard; running stats
// therefore diverge slightly across replicas, and evaluation uses
// replica 0. With batch norm disabled the strategy is numerically
// equivalent to single-device training on the global batch (tested).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "train/trainer.hpp"

namespace dmis::train {

struct MirroredOptions {
  int num_replicas = 2;
  TrainOptions train;
  /// Scale the learning rate linearly with the replica count (the
  /// paper's 1e-4 x #GPUs rule). In elastic mode the rate is rescaled
  /// to the surviving world size after a shrink.
  bool scale_lr = true;
  /// Gradient-bucket size cap for the fused, compute-overlapped
  /// allreduce (see train/grad_bucketer.hpp); must be > 0. Overridable
  /// at run time with DMIS_BUCKET_BYTES.
  size_t bucket_bytes = size_t{1} << 20;
  /// Survive replica failure by shrinking to the survivors and
  /// restoring from the last step-consistent checkpoint, instead of
  /// failing the whole fit(). DMIS_ELASTIC overrides (read through
  /// env_bool: any value but 1/0, true/false, on/off makes the
  /// constructor throw InvalidArgument). Requires `elastic_dir`.
  bool elastic = false;
  /// Directory for the elastic step-consistent checkpoint (created if
  /// missing; stale *.tmp files from crashed saves are swept on fit()
  /// entry).
  std::string elastic_dir;
  /// Per-collective deadline handed to the comm group, in milliseconds:
  /// < 0 resolves DMIS_COMM_TIMEOUT_MS, 0 = no deadline. A deadline is
  /// what turns a *hung* (not crashed) rank into a typed failure.
  int64_t comm_timeout_ms = -1;
  /// Optimizer steps between step-consistent checkpoints in elastic
  /// mode (epoch boundaries always checkpoint). 1 = every step.
  int64_t checkpoint_every_steps = 1;
  /// Grace (ms) survivors wait in the post-abort agreement round for
  /// peers to register before condemning them.
  int64_t agree_grace_ms = 250;
};

class MirroredStrategy {
 public:
  /// Builds `num_replicas` identical models from `model_options`.
  MirroredStrategy(const nn::UNet3dOptions& model_options,
                   const MirroredOptions& options);
  ~MirroredStrategy();

  MirroredStrategy(const MirroredStrategy&) = delete;
  MirroredStrategy& operator=(const MirroredStrategy&) = delete;

  /// Trains on `train` (its batch size is the GLOBAL batch, split across
  /// replicas each step); validates on `val` with replica 0. In elastic
  /// mode a replica failure shrinks the group and training continues;
  /// otherwise (or when no survivor remains) the first error rethrows.
  TrainReport fit(data::BatchStream& train, data::BatchStream* val,
                  const EpochCallback& callback = nullptr);

  /// Replica 0's model (the canonical trained weights; after an elastic
  /// shrink, the first surviving replica).
  nn::UNet3d& model() { return *replicas_.front(); }

  /// A specific replica's model, by current rank. The mirrored-variable
  /// invariant (and the grow broadcast) make every replica bit-identical
  /// to rank 0 after fit(); tests assert exactly that.
  nn::UNet3d& replica(int rank) { return *replicas_.at(rank); }

  /// The replica count fit() was configured with.
  int num_replicas() const { return options_.num_replicas; }

  /// Replicas currently alive (shrinks on elastic recovery).
  int world_size() const { return static_cast<int>(replicas_.size()); }

  /// True when elastic recovery is enabled (option or DMIS_ELASTIC).
  bool elastic() const;

  /// Elastic recoveries performed so far by this strategy.
  int64_t recoveries() const;

  /// Elastic grow transitions (re-admissions) performed so far.
  int64_t grows() const;

  /// Requests one returning rank: the next epoch boundary (not after
  /// the last epoch) adds a replica for it. Thread-safe; the
  /// FaultInjector restart action calls this from the dying rank, so a
  /// chaos kill deterministically schedules its own return. Requires
  /// elastic mode.
  void request_rejoin();

  /// Effective learning rate after the linear scaling rule, for the
  /// *current* world size.
  double effective_lr() const;

 private:
  struct Impl;

  /// (Re)creates comms / losses / optimizers / bucketers / schedule for
  /// the replicas currently in `replicas_` — at construction and after
  /// an elastic shrink.
  void build_group();

  MirroredOptions options_;
  /// Kept so elastic grow can construct joiner replicas identical to
  /// the originals (same seed -> same initial weights, overwritten by
  /// the state broadcast anyway; same shapes is what matters).
  nn::UNet3dOptions model_options_;
  std::vector<std::unique_ptr<nn::UNet3d>> replicas_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace dmis::train

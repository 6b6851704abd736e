// serve_mixed: forward-only nn under serve::SegmentationServer's queue.
//
// Phase A is an open loop: Poisson arrivals at a fixed rate of small
// volumes, each request's latency timed from when it was due, so a
// stall also counts against the requests queued behind it. Phase B is a
// closed loop of 4 requests in flight, 1 in 8 a large volume served by
// sliding-window inference; it sets the throughput. The client is one
// sender thread plus the calling thread polling completions with
// wait_for(0) — waiting on futures in order would charge a small
// request for a large one finishing ahead of it.
#include <cmath>
#include <cstring>
#include <deque>
#include <thread>

#include "data/phantom.hpp"
#include "harness.hpp"
#include "serve/server.hpp"
#include "tensor/rng.hpp"

namespace dmis::bench {
namespace {

struct ServeShape {
  double rate_per_s;    ///< Phase A arrival rate.
  double open_share;    ///< Share of the run spent in phase A.
  int in_flight;        ///< Phase B concurrency.
  int large_every;      ///< Phase B: every n-th request is large.
  int64_t small_d, small_h, small_w;
  int64_t large_d, large_h, large_w;
};

constexpr int kWorkers = 2;
constexpr int64_t kQueue = 256;
constexpr int kSmallPool = 16;
constexpr int kLargePool = 4;
constexpr auto kPollPause = std::chrono::microseconds(50);

using Future = std::future<core::SegmentationResult>;

std::vector<data::Volume> phantom_volumes(uint64_t seed, int count,
                                          int64_t d, int64_t h, int64_t w) {
  data::PhantomOptions opts;
  opts.depth = d;
  opts.height = h;
  opts.width = w;
  opts.seed = seed;
  const data::PhantomGenerator gen(opts);
  std::vector<data::Volume> volumes;
  for (int i = 0; i < count; ++i) volumes.push_back(gen.generate(i).image);
  return volumes;
}

bool get_ok(Future& f) {
  try {
    (void)f.get();
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

class ServeWorkload final : public Workload {
 public:
  ServeWorkload(const RunConfig& config, const ServeShape& shape)
      : config_(config), shape_(shape) {}

  void setup() override {
    server_.reset();
    small_ = phantom_volumes(derive_seed(config_.seed, 1), kSmallPool,
                             shape_.small_d, shape_.small_h, shape_.small_w);
    large_ = phantom_volumes(derive_seed(config_.seed, 2), kLargePool,
                             shape_.large_d, shape_.large_h, shape_.large_w);
    serve::ServeOptions so;
    so.num_workers = kWorkers;
    so.queue_capacity = kQueue;
    so.default_deadline_ms = 0;
    so.full_volume_voxel_budget = kServeVoxelBudget;
    so.sliding_window = serve_sliding_window();
    server_ = std::make_unique<serve::SegmentationServer>(
        serve_model_options(derive_seed(config_.seed, 3)), "", so);
    // Warm-up: each worker's first small and large request.
    std::vector<Future> warm;
    for (int i = 0; i < kWorkers; ++i) {
      warm.push_back(server_->submit(small_[static_cast<size_t>(i)]));
      warm.push_back(server_->submit(large_[static_cast<size_t>(i)]));
    }
    for (Future& f : warm) (void)f.get();
    arrivals_ = Rng(derive_seed(config_.seed, 4));
  }

  PhaseResult run(double seconds) override {
    PhaseResult r = open_loop(seconds * shape_.open_share);
    r.merge(closed_loop(seconds * (1.0 - shape_.open_share)));
    return r;
  }

  void check(std::vector<std::string>& failures) override {
    // Eight fixed volumes through the server must give the same masks as
    // a directly built service with the same weights and serving mode.
    core::SegmentationService reference(
        serve_model_options(derive_seed(config_.seed, 3)), "");
    core::SegmentOptions opts;
    opts.full_volume_voxel_budget = kServeVoxelBudget;
    opts.sliding_window = serve_sliding_window();
    double dice_sum = 0.0;
    int n = 0;
    for (int i = 0; i < 8; ++i) {
      const data::Volume& v = i % 4 == 3 ? large_[static_cast<size_t>(i / 4)]
                                         : small_[static_cast<size_t>(i)];
      const core::SegmentationResult served = server_->segment(v);
      const core::SegmentationResult direct = reference.segment(v, opts);
      const NDArray& a = served.mask.tensor();
      const NDArray& b = direct.mask.tensor();
      if (a.numel() != b.numel() ||
          std::memcmp(a.data(), b.data(),
                      static_cast<size_t>(a.numel()) * sizeof(float)) != 0) {
        failures.push_back("serve_mixed: volume " + std::to_string(i) +
                           " mask differs from the direct service");
      }
      dice_sum += mask_dice(a, b);
      ++n;
    }
    dice_ = dice_sum / n;
  }

  double dice() const override { return dice_; }

  ProbeSpec probe_spec() const override {
    ProbeSpec spec;
    spec.model = serve_model_options(derive_seed(config_.seed, 3));
    spec.depth = shape_.small_d;
    spec.height = shape_.small_h;
    spec.width = shape_.small_w;
    return spec;
  }

  LayerBasis basis() const override { return LayerBasis{}; }

 private:
  // Dice of two binary masks; 1 when both are empty.
  static double mask_dice(const NDArray& a, const NDArray& b) {
    double both = 0.0;
    double sum = 0.0;
    for (int64_t i = 0; i < a.numel() && i < b.numel(); ++i) {
      both += static_cast<double>(a[i] > 0.5F && b[i] > 0.5F);
      sum += static_cast<double>(a[i] > 0.5F) + static_cast<double>(b[i] > 0.5F);
    }
    return sum == 0.0 ? 1.0 : 2.0 * both / sum;
  }

  struct Pending {
    Future future;
    Clock::time_point due;
  };

  PhaseResult open_loop(double seconds) {
    // The whole schedule is drawn up front so the sender only sleeps.
    std::vector<double> offsets_s;
    for (double t = 0.0;;) {
      t += -std::log(1.0 - arrivals_.uniform()) / shape_.rate_per_s;
      if (t >= seconds) break;
      offsets_s.push_back(t);
    }
    PhaseResult r;
    std::mutex mutex;
    std::deque<Pending> inbox;  // guarded by mutex
    bool sender_done = false;   // guarded by mutex
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
    std::thread sender([&] {
      for (size_t i = 0; i < offsets_s.size(); ++i) {
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(offsets_s[i]));
        std::this_thread::sleep_until(due);
        const double late_ms =
            std::chrono::duration<double, std::milli>(Clock::now() - due)
                .count();
        Pending p{Future{}, due};
        bool admitted = true;
        try {
          p.future = server_->submit(small_[i % small_.size()]);
        } catch (const std::exception&) {
          admitted = false;
        }
        const std::lock_guard<std::mutex> lock(mutex);
        r.gen_late_ms_max = std::max(r.gen_late_ms_max, late_ms);
        ++r.attempted;
        if (admitted) {
          inbox.push_back(std::move(p));
        } else {
          ++r.failed;
        }
      }
      const std::lock_guard<std::mutex> lock(mutex);
      sender_done = true;
    });

    std::vector<Pending> pending;
    for (;;) {
      bool done;
      {
        const std::lock_guard<std::mutex> lock(mutex);
        while (!inbox.empty()) {
          pending.push_back(std::move(inbox.front()));
          inbox.pop_front();
        }
        done = sender_done;
      }
      for (size_t i = 0; i < pending.size();) {
        if (pending[i].future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++i;
          continue;
        }
        const Clock::time_point now = Clock::now();
        if (get_ok(pending[i].future)) {
          r.latency_ms.push_back(
              std::chrono::duration<double, std::milli>(now - pending[i].due)
                  .count());
        } else {
          const std::lock_guard<std::mutex> lock(mutex);
          ++r.failed;
        }
        pending[i] = std::move(pending.back());
        pending.pop_back();
      }
      if (done && pending.empty()) {
        const std::lock_guard<std::mutex> lock(mutex);
        if (inbox.empty()) break;
      }
      std::this_thread::sleep_for(kPollPause);
    }
    sender.join();
    return r;
  }

  PhaseResult closed_loop(double seconds) {
    PhaseResult r;
    std::vector<Future> slots(static_cast<size_t>(shape_.in_flight));
    int64_t sent = 0;
    int64_t completed = 0;
    const Clock::time_point start = Clock::now();
    Clock::time_point last_done = start;
    const auto submit_next = [&](Future& slot) {
      const bool large = sent % shape_.large_every == shape_.large_every - 1;
      const data::Volume& v =
          large ? large_[static_cast<size_t>(sent / shape_.large_every) %
                         large_.size()]
                : small_[static_cast<size_t>(sent) % small_.size()];
      ++sent;
      ++r.attempted;
      try {
        slot = server_->submit(v);
      } catch (const std::exception&) {
        ++r.failed;
      }
    };
    for (Future& slot : slots) submit_next(slot);
    for (bool active = true; active;) {
      active = false;
      for (Future& slot : slots) {
        if (!slot.valid()) continue;
        active = true;
        if (slot.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          continue;
        }
        if (get_ok(slot)) {
          ++completed;
        } else {
          ++r.failed;
        }
        last_done = Clock::now();
        if (seconds_since(start) < seconds) submit_next(slot);
      }
      if (active) std::this_thread::sleep_for(kPollPause);
    }
    r.work = static_cast<double>(completed);
    r.busy_s = std::chrono::duration<double>(last_done - start).count();
    return r;
  }

  RunConfig config_;
  ServeShape shape_;
  std::vector<data::Volume> small_;
  std::vector<data::Volume> large_;
  std::unique_ptr<serve::SegmentationServer> server_;
  Rng arrivals_;
  double dice_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_mixed(const RunConfig& config) {
  ServeShape shape{60.0, 0.6, 4, 8, 16, 24, 24, 32, 48, 48};
  if (config.smoke) shape = {30.0, 0.6, 4, 8, 8, 16, 16, 32, 48, 48};
  return std::make_unique<ServeWorkload>(config, shape);
}

}  // namespace dmis::bench

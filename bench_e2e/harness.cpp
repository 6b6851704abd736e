#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>

namespace dmis::bench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t derive_seed(uint64_t run_seed, uint64_t stream) {
  // splitmix64 finalizer over (seed, stream).
  uint64_t z = run_seed * 0x9E3779B97F4A7C15ULL + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void PhaseResult::merge(const PhaseResult& other) {
  work += other.work;
  busy_s += other.busy_s;
  latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                    other.latency_ms.end());
  attempted += other.attempted;
  failed += other.failed;
  gen_late_ms_max = std::max(gen_late_ms_max, other.gen_late_ms_max);
}

nn::UNet3dOptions serve_model_options(uint64_t seed) {
  nn::UNet3dOptions opts;
  opts.in_channels = 4;
  opts.out_channels = 1;
  opts.base_filters = 4;
  opts.depth = 3;
  opts.seed = seed;
  return opts;
}

nn::SlidingWindowOptions serve_sliding_window() {
  nn::SlidingWindowOptions opts;
  opts.patch_depth = 32;
  opts.patch_height = 32;
  opts.patch_width = 32;
  return opts;
}

TimedStream::TimedStream(data::StreamPtr inner, int64_t batch_size,
                         int ranks, StepLog* log)
    : inner_(std::move(inner)),
      batch_size_(batch_size),
      ranks_(ranks),
      log_(log) {}

std::optional<data::Example> TimedStream::next() {
  const int64_t begin_us = obs::Tracer::now_us();
  std::optional<data::Example> example;
  {
    DMIS_TRACE_SPAN("bench.data.next");
    example = inner_->next();
  }
  last_pull_us_ = begin_us;
  if (example) {
    if (pulled_ % batch_size_ == 0) {
      close_step(begin_us);
      step_begin_us_ = begin_us;
    }
    ++pulled_;
    ++step_samples_;
  }
  return example;
}

void TimedStream::reset() {
  close_step(last_pull_us_);
  pulled_ = 0;
  inner_->reset();
}

void TimedStream::close_step(int64_t end_us) {
  if (step_begin_us_ < 0) return;
  const int64_t dur_us = end_us - step_begin_us_;
  log_->period_ms.push_back(static_cast<double>(dur_us) / 1000.0);
  log_->samples += step_samples_;
  obs::Tracer::instance().record_span(
      "bench.step", step_begin_us_, dur_us,
      {{"samples", step_samples_}, {"ranks", ranks_}});
  step_begin_us_ = -1;
  step_samples_ = 0;
}

std::map<std::string, SpanStats> summarize_spans(
    const std::vector<obs::TraceEvent>& events) {
  std::map<std::string, SpanStats> table;
  const auto add = [&](const obs::TraceEvent& ev, double self_us) {
    SpanStats& s = table[ev.name];
    s.count += 1;
    s.total_ms += static_cast<double>(ev.dur_us) / 1000.0;
    s.self_ms += self_us / 1000.0;
    s.max_ms = std::max(s.max_ms, static_cast<double>(ev.dur_us) / 1000.0);
    for (int a = 0; a < ev.n_args; ++a) s.arg_sum[a] += ev.args[a].value;
  };
  std::map<int32_t, std::vector<const obs::TraceEvent*>> by_thread;
  for (const obs::TraceEvent& ev : events) {
    if (ev.instant || ev.name == nullptr) continue;
    // The grad-sync overlap/tail pair re-splits time the replica's own
    // spans already cover, so it takes no part in nesting.
    if (std::strcmp(ev.name, "train.grad_sync.overlap") == 0 ||
        std::strcmp(ev.name, "train.grad_sync.tail") == 0) {
      add(ev, static_cast<double>(ev.dur_us));
    } else {
      by_thread[ev.tid].push_back(&ev);
    }
  }
  for (auto& [tid, spans] : by_thread) {
    // Parents sort before the children they contain: earlier start
    // first, longer span first on a tie.
    std::sort(spans.begin(), spans.end(),
              [](const obs::TraceEvent* a, const obs::TraceEvent* b) {
                if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
                return a->dur_us > b->dur_us;
              });
    // Spans recorded with explicit times (serve.request, tune.queue_wait)
    // can overlap others without nesting, so a span's parent is the
    // innermost earlier span that contains it entirely.
    const auto end_of = [&](size_t i) {
      return spans[i]->ts_us + spans[i]->dur_us;
    };
    std::vector<double> self_us(spans.size());
    std::vector<size_t> open;  // earlier spans, innermost last
    for (size_t i = 0; i < spans.size(); ++i) {
      self_us[i] = static_cast<double>(spans[i]->dur_us);
      while (!open.empty() && end_of(open.back()) <= spans[i]->ts_us) {
        open.pop_back();
      }
      for (size_t k = open.size(); k-- > 0;) {
        if (end_of(open[k]) >= end_of(i)) {
          self_us[open[k]] -= static_cast<double>(spans[i]->dur_us);
          break;
        }
      }
      open.push_back(i);
    }
    for (size_t i = 0; i < spans.size(); ++i) add(*spans[i], self_us[i]);
  }
  return table;
}

}  // namespace dmis::bench

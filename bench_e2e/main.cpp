// dmis_bench: end-to-end benchmark of DistMIS-cpp.
//
//   dmis_bench --workload <train_fullvol|train_widepatch|sweep|serve_mixed>
//              [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//              [--out-dir DIR] [--git-sha SHA] [--allow-debug]
//
// Untraced (--trace 0) runs report the end-to-end metrics. A traced run
// (--trace 1) measures half the time untraced and half with obs::Tracer
// armed, then runs the one-thread layer probe, and reports the per-layer
// metrics; it also writes a Chrome trace to DIR/traces/ and a per-span
// count / total / self-time table to stderr. The last stdout line is
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// and the exit code is 0 only when every output check passed. See
// README.md for what each metric and workload means.
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <span>
#include <sstream>
#include <thread>

#include "harness.hpp"
#include "obs/metrics.hpp"

extern char** environ;

namespace dmis::bench {
namespace {

// Set-up repeats at least 5 times and until 1 s has gone by (at most 50
// times), so that a set-up of a few milliseconds still gets a stable
// median.
constexpr int kSetupMinRepetitions = 5;
constexpr int kSetupMaxRepetitions = 50;
constexpr double kSetupMinSeconds = 1.0;
constexpr int kProbeReps = 20;
// Per-thread trace ring: large enough that a traced phase drops nothing
// (checked: obs.trace_dropped must be 0).
constexpr size_t kTraceBufferEvents = size_t{1} << 18;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"peak_rss_mb", "MB"},
    {"ops_per_s", "1/s"},      {"latency_ms.p50", "ms"},
    {"latency_ms.p90", "ms"},  {"dice", "frac"},
};

constexpr MetricSpec kPerLayer[] = {
    {"data.wait_frac", "frac"},
    {"data.prefetch_stalls", "count"},
    {"data.examples_read", "count"},
    {"nn.fwd_ms", "ms"},
    {"nn.bwd_ms", "ms"},
    {"nn.optim_ms", "ms"},
    {"nn.fwd_gflops", "GFLOP/s"},
    {"nn.infer_ms", "ms"},
    {"nn.window_ms", "ms"},
    {"nn.checkpoint_save_ms", "ms"},
    {"nn.backward_frac", "frac"},
    {"nn.checkpoint_saves", "count"},
    {"comm.allreduce_calls_per_step", "count"},
    {"comm.allreduce_mb_per_step", "MB"},
    {"comm.allreduce_frac", "frac"},
    {"comm.allreduce_gbps", "GB/s"},
    {"train.sync_exposed_frac", "frac"},
    {"train.overlap_frac", "frac"},
    {"train.straggler_ratio", "x"},
    {"train.dp_efficiency", "x"},
    {"tune.queue_wait_frac", "frac"},
    {"tune.slot_busy_frac", "frac"},
    {"tune.tail_ratio", "x"},
    {"tune.fit_frac", "frac"},
    {"serve.queue_frac", "frac"},
    {"serve.gen_late_ratio", "x"},
    {"obs.trace_overhead_frac", "frac"},
    {"obs.trace_dropped", "count"},
};

using Factory = std::unique_ptr<Workload> (*)(const RunConfig&);
const std::map<std::string, Factory> kWorkloads = {
    {"train_fullvol", make_train_fullvol},
    {"train_widepatch", make_train_widepatch},
    {"sweep", make_sweep},
    {"serve_mixed", make_serve_mixed},
};

// Knobs that change what the workloads measure; the workloads are
// defined on their defaults.
constexpr const char* kPerfKnobs[] = {"DMIS_COMM_ALGO", "DMIS_COMPRESS",
                                      "DMIS_BUCKET_BYTES", "DMIS_KERNEL"};

struct Args {
  RunConfig run;
  std::string out_dir = ".bench_build";
  std::string git_sha = "unknown";
  bool allow_debug = false;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "dmis_bench: " << error
            << "\nusage: dmis_bench --workload "
               "<train_fullvol|train_widepatch|sweep|serve_mixed> "
               "[--seed N] [--seconds S] [--trace 0|1] [--smoke] "
               "[--out-dir DIR] [--git-sha SHA] [--allow-debug]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        args.run.workload = value();
      } else if (flag == "--seed") {
        args.run.seed = std::stoull(value());
      } else if (flag == "--seconds") {
        args.run.seconds = std::stod(value());
      } else if (flag == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        args.run.trace = v == "1";
      } else if (flag == "--smoke") {
        args.run.smoke = true;
      } else if (flag == "--out-dir") {
        args.out_dir = value();
      } else if (flag == "--git-sha") {
        args.git_sha = value();
      } else if (flag == "--allow-debug") {
        args.allow_debug = true;
      } else {
        usage("unknown argument " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (kWorkloads.count(args.run.workload) == 0) {
    usage("unknown or missing --workload '" + args.run.workload + "'");
  }
  if (!(args.run.seconds > 0.0 && args.run.seconds <= 120.0)) {
    usage("--seconds must be in (0, 120]");
  }
  return args;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Shortest decimal form that reads back as the same double.
std::string json_number(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
    brand = brand.c_str();  // drop trailing NULs
    const size_t first = brand.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : brand.substr(first);
  }
#endif
  return "unknown";
}

struct CpuFlags {
  bool avx2 = false;
  bool avx512f = false;
  bool f16c = false;
};

CpuFlags cpu_flags() {
  CpuFlags flags;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  flags.avx2 = __builtin_cpu_supports("avx2");
  flags.avx512f = __builtin_cpu_supports("avx512f");
  flags.f16c = __builtin_cpu_supports("f16c");
#endif
  return flags;
}

std::string context_json(const Args& args) {
  const CpuFlags cpu = cpu_flags();
  std::ostringstream os;
  os << "{\"context\": {\"workload\": " << json_string(args.run.workload)
     << ", \"seed\": " << args.run.seed
     << ", \"seconds\": " << json_number(args.run.seconds)
     << ", \"trace\": " << (args.run.trace ? 1 : 0)
     << ", \"smoke\": " << (args.run.smoke ? "true" : "false")
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu_model\": " << json_string(cpu_model())
     << ", \"avx2\": " << (cpu.avx2 ? "true" : "false")
     << ", \"avx512f\": " << (cpu.avx512f ? "true" : "false")
     << ", \"f16c\": " << (cpu.f16c ? "true" : "false")
     << ", \"build_type\": " << json_string(DMIS_BENCH_BUILD_TYPE)
     << ", \"compiler\": " << json_string(DMIS_BENCH_COMPILER)
     << ", \"git_sha\": " << json_string(args.git_sha) << ", \"env\": {";
  bool first = true;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    const size_t eq = entry.find('=');
    if (entry.rfind("DMIS_", 0) != 0 || eq == std::string::npos) continue;
    os << (first ? "" : ", ") << json_string(entry.substr(0, eq)) << ": "
       << json_string(entry.substr(eq + 1));
    first = false;
  }
  os << "}}}";
  return os.str();
}


// Registry counters and gauges by name, read on both sides of the
// traced phase.
std::map<std::string, double> registry_values() {
  std::map<std::string, double> values;
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::instance().snapshot();
  for (const auto& c : snap.counters) {
    values[c.name] = static_cast<double>(c.value);
  }
  for (const auto& g : snap.gauges) values[g.name] = g.value;
  return values;
}

double value_of(const std::map<std::string, double>& values,
                const std::string& name) {
  const auto it = values.find(name);
  return it == values.end() ? 0.0 : it->second;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::map<std::string, double> layer_metrics(
    const std::vector<obs::TraceEvent>& events,
    const std::map<std::string, double>& before,
    const std::map<std::string, double>& after, const ProbeResult& probe,
    const LayerBasis& basis, const PhaseResult& untraced,
    const PhaseResult& traced) {
  std::map<std::string, SpanStats> spans = summarize_spans(events);
  const auto delta = [&](const std::string& name) {
    return value_of(after, name) - value_of(before, name);
  };
  const auto total = [&](const char* name) { return spans[name].total_ms; };
  // Rank-time: every step period counted once per replica that ran it.
  double rank_time_ms = 0.0;
  std::vector<double> trial_ms;
  for (const obs::TraceEvent& ev : events) {
    if (std::strcmp(ev.name, "bench.step") == 0) {
      rank_time_ms += static_cast<double>(ev.dur_us * ev.args[1].value) / 1e3;
    } else if (std::strcmp(ev.name, "tune.trial") == 0) {
      trial_ms.push_back(static_cast<double>(ev.dur_us) / 1e3);
    }
  }
  const double rank_steps = static_cast<double>(spans["bench.step"].arg_sum[1]);
  const double overlap = total("train.grad_sync.overlap");
  const double trial = total("tune.trial");
  const double request = total("serve.request");

  std::map<std::string, double> m;
  m["data.wait_frac"] = ratio(total("bench.data.next"), total("bench.step"));
  m["data.prefetch_stalls"] = delta("data.prefetch_stalls");
  m["data.examples_read"] = delta("data.examples_read");
  m["nn.fwd_ms"] = probe.fwd_ms;
  m["nn.bwd_ms"] = probe.bwd_ms;
  m["nn.optim_ms"] = probe.optim_ms;
  m["nn.fwd_gflops"] = probe.fwd_gflops;
  m["nn.infer_ms"] = probe.infer_ms;
  m["nn.window_ms"] = probe.window_ms;
  m["nn.checkpoint_save_ms"] = probe.checkpoint_save_ms;
  m["nn.backward_frac"] = ratio(total("train.backward"), rank_time_ms);
  m["nn.checkpoint_saves"] = delta("nn.checkpoint_saves");
  m["comm.allreduce_calls_per_step"] =
      ratio(delta("comm.allreduce_calls"), rank_steps);
  m["comm.allreduce_mb_per_step"] =
      ratio(delta("comm.allreduce_bytes") / 1e6, rank_steps);
  m["comm.allreduce_frac"] = ratio(total("comm.allreduce"), rank_time_ms);
  m["comm.allreduce_gbps"] =
      ratio(static_cast<double>(spans["comm.allreduce"].arg_sum[0]) / 1e9,
            total("comm.allreduce") / 1e3);
  m["train.sync_exposed_frac"] =
      ratio(total("train.grad_sync.wait"), rank_time_ms);
  m["train.overlap_frac"] =
      ratio(overlap, overlap + total("train.grad_sync.tail"));
  m["train.straggler_ratio"] = value_of(after, "train.straggler.ratio");
  m["train.dp_efficiency"] =
      basis.dp_world > 0 ? ratio(traced.throughput(), probe.samples_per_s)
                         : 0.0;
  m["tune.queue_wait_frac"] =
      ratio(total("tune.queue_wait"), total("tune.queue_wait") + trial);
  m["tune.slot_busy_frac"] =
      ratio(trial, basis.tune_slots * total("bench.sweep"));
  m["tune.tail_ratio"] =
      ratio(percentile(trial_ms, 100.0), median(trial_ms));
  m["tune.fit_frac"] = ratio(total("bench.fit"), trial);
  m["serve.queue_frac"] = ratio(request - total("serve.infer"), request);
  m["serve.gen_late_ratio"] =
      ratio(traced.gen_late_ms_max, median(traced.latency_ms));
  m["obs.trace_overhead_frac"] =
      1.0 - ratio(traced.throughput(), untraced.throughput());
  m["obs.trace_dropped"] =
      static_cast<double>(obs::Tracer::instance().dropped());
  return m;
}

void print_span_table(const std::vector<obs::TraceEvent>& events) {
  std::map<std::string, SpanStats> spans = summarize_spans(events);
  std::vector<std::pair<std::string, SpanStats>> rows(spans.begin(),
                                                      spans.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_ms > b.second.self_ms;
  });
  std::fprintf(stderr, "%-34s %9s %12s %12s %10s\n", "span", "count",
               "total_ms", "self_ms", "max_ms");
  for (const auto& [name, s] : rows) {
    std::fprintf(stderr, "%-34s %9lld %12.3f %12.3f %10.3f\n", name.c_str(),
                 static_cast<long long>(s.count), s.total_ms, s.self_ms,
                 s.max_ms);
  }
}

int run(const Args& args) {
  const RunConfig& config = args.run;
  std::unique_ptr<Workload> workload = kWorkloads.at(config.workload)(config);

  std::vector<double> setup_s;
  double setup_total_s = 0.0;
  for (int i = 1; i <= kSetupMaxRepetitions; ++i) {
    const Clock::time_point t0 = Clock::now();
    workload->setup();
    setup_s.push_back(seconds_since(t0));
    setup_total_s += setup_s.back();
    if (config.smoke || (i >= kSetupMinRepetitions &&
                         setup_total_s >= kSetupMinSeconds)) {
      break;
    }
  }

  std::map<std::string, double> metrics;
  PhaseResult all;
  std::vector<std::string> failures;
  if (!config.trace) {
    all = workload->run(config.seconds);
    metrics["setup_s"] = median(setup_s);
    metrics["ops_per_s"] = all.throughput();
    metrics["latency_ms.p50"] = percentile(all.latency_ms, 50.0);
    metrics["latency_ms.p90"] = percentile(all.latency_ms, 90.0);
  } else {
    obs::Tracer& tracer = obs::Tracer::instance();
    tracer.set_buffer_capacity(kTraceBufferEvents);
    const PhaseResult untraced = workload->run(config.seconds / 2.0);
    const std::map<std::string, double> before = registry_values();
    tracer.enable();
    const PhaseResult traced = workload->run(config.seconds / 2.0);
    tracer.disable();
    const std::map<std::string, double> after = registry_values();
    const std::vector<obs::TraceEvent> events = tracer.events();
    all = untraced;
    all.merge(traced);
    const ProbeResult probe =
        run_probe(workload->probe_spec(), config.work_dir,
                  derive_seed(config.seed, 9), config.smoke ? 2 : kProbeReps);
    metrics = layer_metrics(events, before, after, probe, workload->basis(),
                            untraced, traced);
    const std::string trace_dir = args.out_dir + "/traces";
    std::filesystem::create_directories(trace_dir);
    const std::string path = trace_dir + "/" + config.workload + "_seed" +
                             std::to_string(config.seed) + ".json";
    tracer.write_chrome_trace(path);
    std::cerr << "dmis_bench: trace written to " << path << "\n";
    print_span_table(events);
    if (tracer.dropped() != 0) {
      failures.push_back("tracer dropped " +
                         std::to_string(tracer.dropped()) + " events");
    }
  }

  workload->check(failures);
  if (!config.trace) {
    metrics["dice"] = workload->dice();
    metrics["peak_rss_mb"] = peak_rss_mb();
  }
  if (all.failed != 0) {
    failures.push_back(std::to_string(all.failed) + " of " +
                       std::to_string(all.attempted) + " operations failed");
  }

  std::ostringstream values;
  bool first = true;
  for (const MetricSpec& spec :
       config.trace ? std::span<const MetricSpec>(kPerLayer)
                    : std::span<const MetricSpec>(kEndToEnd)) {
    const auto it = metrics.find(spec.name);
    double v = it == metrics.end() ? NAN : it->second;
    if (!std::isfinite(v)) {
      failures.push_back(std::string("metric ") + spec.name +
                         " was not measured");
      v = 0.0;
    }
    values << (first ? "" : ", ") << json_string(spec.name)
           << ": {\"value\": " << json_number(v)
           << ", \"unit\": " << json_string(spec.unit) << "}";
    first = false;
  }

  std::ostringstream detail;
  detail << "{\"detail\": {\"setup_s\": [";
  for (size_t i = 0; i < setup_s.size(); ++i) {
    detail << (i ? ", " : "") << json_number(setup_s[i]);
  }
  detail << "], \"work\": " << json_number(all.work)
         << ", \"busy_s\": " << json_number(all.busy_s)
         << ", \"latency_samples\": " << all.latency_ms.size()
         << ", \"gen_late_ms_max\": " << json_number(all.gen_late_ms_max)
         << ", \"failures\": [";
  for (size_t i = 0; i < failures.size(); ++i) {
    detail << (i ? ", " : "") << json_string(failures[i]);
  }
  detail << "]}}";
  std::cout << detail.str() << "\n";

  for (const std::string& f : failures) {
    std::cerr << "dmis_bench: check failed: " << f << "\n";
  }
  std::cout << "{\"correct\": " << (failures.empty() ? "true" : "false")
            << ", \"attempted\": " << all.attempted
            << ", \"failed\": " << all.failed << ", \"metrics\": {"
            << values.str() << "}}" << std::endl;
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace dmis::bench

int main(int argc, char** argv) {
  using namespace dmis::bench;
  Args args = parse_args(argc, argv);
  if (std::strcmp(DMIS_BENCH_BUILD_TYPE, "Release") != 0 && !args.allow_debug) {
    std::cerr << "dmis_bench: built as '" << DMIS_BENCH_BUILD_TYPE
              << "', not Release; timings would not be comparable "
                 "(pass --allow-debug to run anyway)\n";
    return 2;
  }
  for (const char* knob : kPerfKnobs) {
    if (const char* v = std::getenv(knob); v != nullptr && *v != '\0') {
      std::cerr << "dmis_bench: warning: " << knob << "=" << v
                << " is set; the workloads are defined on defaults\n";
    }
  }
  std::cout << context_json(args) << "\n";
  args.run.work_dir = args.out_dir + "/work/" + args.run.workload + "_" +
                      std::to_string(::getpid());
  int rc = 2;
  try {
    std::filesystem::create_directories(args.run.work_dir);
    rc = run(args);
  } catch (const std::exception& e) {
    std::cerr << "dmis_bench: " << args.run.workload << " failed: " << e.what()
              << "\n";
  }
  std::error_code ec;
  std::filesystem::remove_all(args.run.work_dir, ec);
  return rc;
}

#!/usr/bin/env bash
# Repo verification: the tier-1 build + full test suite, then an
# AddressSanitizer pass over the kernel-heavy suites (SGEMM, the
# implicit-GEMM and fused GEMM + col2im conv kernels against their
# stored-matrix oracles, conv parity
# against the loop-nest reference and gradchecks — where indexing bugs
# would scribble), a
# ThreadSanitizer pass over the concurrency-heavy suites (raylite tasks/
# tune retries, comm collectives + async comm workers, the gradient
# bucketer and mirrored strategy, the fault injector, the telemetry
# registry/tracer, the segmentation server, and the chaos integration
# sweeps — including chaos_serve, the
# serving robustness gate, and chaos_grow, the elastic scale-up gate),
# where data races would live, plus an until-fail flake screen over the
# comm suites, a kill-and-restart sweep-resume smoke, then traced example
# smokes that
# check the telemetry exports are valid, non-empty JSON — including
# that the bucketed gradient sync genuinely overlaps allreduce with
# backward — and benchmark runs that regenerate BENCH_conv3d.json /
# BENCH_allreduce.json / BENCH_serve.json and assert the floors the
# optimization PRs promised (bucketed vs per-tensor gradient sync;
# serve worker-pool scaling and zero shed at nominal load).
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc)"

echo "== tier-1: build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j"${JOBS}"
(cd build && ctest --output-on-failure -j"${JOBS}")

echo "== flake screen: comm suites repeated until-fail 3x =="
# The collective schedules are lockstep thread choreography; a race or
# an order-dependent rendezvous tends to show up as a rare flake, not a
# deterministic failure. Repeat the comm-heavy suites until-fail.
(cd build && ctest --repeat until-fail:3 -j"${JOBS}" \
  -R '^(comm_test|chaos_dp_test|chaos_grow_test)\.' | tail -3)

echo "== asan: gemm + conv kernel oracles + every nn suite =="
# Layers read the activations nn::Graph owns (module.hpp), so a lifetime
# fault in any layer, the graph or the pipelined U-Net shows up here:
# the whole of nn_test runs, not only the conv suites.
cmake -B build-asan -S . -DDMIS_SANITIZE=address >/dev/null
cmake --build build-asan -j"${JOBS}" --target tensor_test nn_test
./build-asan/tests/tensor_test \
  --gtest_filter='Shapes/*:Sgemm*:Geometries/*:Im2col*:Geoms/*:Col2imGemm*:GemmIm2colT*'
./build-asan/tests/nn_test

echo "== tsan: raylite + comm + train + obs suites =="
cmake -B build-tsan -S . -DDMIS_SANITIZE=thread >/dev/null
cmake --build build-tsan -j"${JOBS}" \
  --target raylite_test comm_test train_test common_test obs_test \
           serve_test chaos_test chaos_dp_test chaos_grow_test \
           chaos_serve_test
for t in raylite_test comm_test train_test common_test obs_test \
         serve_test chaos_test; do
  echo "-- tsan: ${t}"
  ./build-tsan/tests/"${t}"
done

echo "== tsan chaos: elastic data-parallel recovery under rank loss =="
# The acceptance gate of the failure-semantics PR: a 4-rank mirrored run
# loses one rank mid-step (crashed and hung variants) and must either
# abort with a typed CommError within the deadline or shrink to the
# survivors, restore the step-consistent checkpoint, and match the
# fault-free smaller run — deadlock- and race-free under TSan.
./build-tsan/tests/chaos_dp_test

echo "== tsan chaos: elastic scale-up under kill + rejoin =="
# The acceptance gate of the elastic scale-up PR: a 4-rank mirrored run
# loses rank 3 mid-epoch with its rejoin pre-scheduled (the FaultInjector
# restart action), continues shrunk to 3, re-admits the rank at the next
# epoch boundary (the rejoin request is a count the boundary drains),
# and must finish at world 4 matching the fault-free 4-rank run —
# including the kill-rejoin-kill double fault and a slow epoch boundary
# — race-free under TSan. The rejoin is requested from a dying rank
# thread and drained by the driver, and the grow broadcast runs on the
# rebuilt group's rank workers, which is where TSan earns its keep.
./build-tsan/tests/chaos_grow_test

echo "== tsan chaos: segmentation serving under crashes, hangs, delays =="
# The acceptance gate of the robust-serving PR: a 4-worker server is
# driven through a request mix while workers crash on pickup, one worker
# hangs (with auto-release) and inference stalls; every request must
# resolve to a result or a typed ServeError within its deadline, the
# survivors' masks must be bitwise identical to the fault-free run, and
# the server must keep serving once the faults stop — all TSan-clean.
./build-tsan/tests/chaos_serve_test

echo "== tsan chaos: flight recorder on an injected collective fault =="
# The acceptance gate of the observability PR: a rank hit by an injected
# comm.collective fault aborts the group, and the crash dump written to
# DMIS_FLIGHT_DIR must contain the failing collective's span and the
# per-rank health table with the dead rank — race-free under TSan.
./build-tsan/tests/obs_test --gtest_filter='FlightRecorder*'

cmake -B build-ubsan -S . -DDMIS_SANITIZE=undefined >/dev/null
cmake --build build-ubsan -j"${JOBS}" \
  --target comm_test train_test common_test chaos_dp_test
for t in comm_test train_test common_test chaos_dp_test; do
  echo "-- ubsan: ${t}"
  ./build-ubsan/tests/"${t}"
done

echo "== telemetry: traced example smokes =="
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "${SMOKE_DIR}"' EXIT
DMIS_TRACE="${SMOKE_DIR}/tune_trace.json" \
  DMIS_METRICS="${SMOKE_DIR}/tune_metrics.jsonl" \
  ./build/examples/tune_search 2 >/dev/null
# A small bucket cap makes the smoke's toy model span several buckets,
# so allreduces genuinely launch mid-backward (the overlap assertion
# below); the default 1 MiB cap would fit the whole model in one.
DMIS_TRACE="${SMOKE_DIR}/dp_trace.json" \
  DMIS_BUCKET_BYTES=16384 \
  ./build/examples/data_parallel 2 >/dev/null
python3 - "${SMOKE_DIR}" <<'EOF'
import json, sys

smoke_dir = sys.argv[1]

def load_events(path):
    with open(path) as f:
        trace = json.load(f)
    events = trace["traceEvents"]
    assert events, f"{path}: trace has no events"
    return events

def span_names(path):
    events = load_events(path)
    return len(events), {e["name"] for e in events}

n_tune, tune = span_names(f"{smoke_dir}/tune_trace.json")
for required in ("tune.trial", "tune.queue_wait", "train.step",
                 "train.forward", "data.load"):
    assert required in tune, f"tune trace missing {required!r}: {sorted(tune)}"

dp_events = load_events(f"{smoke_dir}/dp_trace.json")
n_dp, dp = len(dp_events), {e["name"] for e in dp_events}
for required in ("comm.allreduce", "comm.allreduce.reduce_scatter",
                 "comm.allreduce.all_gather", "train.backward",
                 "train.grad_sync.overlap", "train.grad_sync.wait"):
    assert required in dp, f"dp trace missing {required!r}: {sorted(dp)}"

# The point of the bucketed path: gradient allreduce overlaps backward.
# (a) the bucketer's own overlap span must cover real time — the first
# bucket launched before backward finished;
overlaps = [e for e in dp_events if e["name"] == "train.grad_sync.overlap"]
assert any(e["dur"] > 0 for e in overlaps), \
    f"no overlap between allreduce launch and backward: {overlaps}"
# (b) some ring allreduce span must intersect a backward span in wall
# time (the rings run on comm workers while replicas back-propagate).
backwards = [(e["ts"], e["ts"] + e["dur"]) for e in dp_events
             if e["name"] == "train.backward"]
rings = [(e["ts"], e["ts"] + e["dur"]) for e in dp_events
         if e["name"] == "comm.allreduce"]
assert any(r0 < b1 and b0 < r1
           for (r0, r1) in rings for (b0, b1) in backwards), \
    "no comm.allreduce span overlaps any train.backward span"

with open(f"{smoke_dir}/tune_metrics.jsonl") as f:
    lines = [json.loads(line) for line in f if line.strip()]
assert lines, "metrics dump is empty"
counters = {m["name"]: m["value"] for m in lines if m["type"] == "counter"}
assert counters.get("tune.trials_completed", 0) > 0, counters

print(f"tune trace OK ({n_tune} events), dp trace OK ({n_dp} events), "
      f"metrics OK ({len(lines)} instruments)")
EOF

echo "== telemetry: live /metrics scrape during a tune sweep =="
# The observability PR's acceptance gate: a sweep runs with the embedded
# exporter up; a scraper polls /metrics and /healthz mid-run, validates
# the Prometheus exposition (TYPE lines, histogram bucket cumulativity,
# +Inf == _count), and the *last* scrape — taken in the DMIS_OBS_LINGER_MS
# window after all counters settled — must reconcile exactly with the
# tune.trials.* counters in the final JSONL dump. dmis_top must also be
# able to render a live table from the same endpoint.
OBS_PORT="$(( (RANDOM % 20000) + 20000 ))"
# DMIS_FLIGHT_DIR is armed through the environment on purpose: the env
# bootstrap at static-init time is a distinct code path from the
# configure() calls the unit tests use, and it once recursed into a
# still-initializing instance().
DMIS_OBS_PORT="${OBS_PORT}" DMIS_OBS_LINGER_MS=4000 \
  DMIS_METRICS="${SMOKE_DIR}/live_metrics.jsonl" \
  DMIS_FLIGHT_DIR="${SMOKE_DIR}/flight" \
  ./build/examples/tune_search 2 >/dev/null &
TUNE_PID=$!
for _ in $(seq 1 100); do  # wait for the exporter to come up
  if ./build/tools/dmis_top --port "${OBS_PORT}" --once >"${SMOKE_DIR}/top.txt" 2>/dev/null; then
    break
  fi
  sleep 0.1
done
grep -q "trials" "${SMOKE_DIR}/top.txt" \
  || { echo "dmis_top produced no live table"; cat "${SMOKE_DIR}/top.txt"; exit 1; }
kill -USR1 "${TUNE_PID}"  # on-demand flight dump from the live sweep
python3 - "${OBS_PORT}" "${SMOKE_DIR}" <<'EOF'
import json, sys, time, urllib.error, urllib.request

port, smoke_dir = sys.argv[1], sys.argv[2]
last_scrape = None
health_ok = False
deadline = time.time() + 180
while time.time() < deadline:
    try:
        with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics", timeout=2) as r:
            last_scrape = r.read().decode()
        with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=2) as r:
            body = json.loads(r.read().decode())
            assert body["status"] in ("ok", "degraded"), body
            health_ok = True
    except (urllib.error.URLError, ConnectionError, OSError):
        if last_scrape is not None:
            break  # exporter gone after the linger window: run finished
    time.sleep(0.1)
else:
    sys.exit("tune_search did not finish within the scrape deadline")
assert last_scrape, "never managed to scrape /metrics"
assert health_ok, "never managed to scrape /healthz"
with open(f"{smoke_dir}/final_scrape.prom", "w") as f:
    f.write(last_scrape)

# Prometheus text-format validation on the final scrape.
families = {}
samples = []
for line in last_scrape.splitlines():
    if not line:
        continue
    if line.startswith("# TYPE "):
        _, _, fam, kind = line.split(" ")
        assert fam not in families, f"duplicate TYPE for {fam}"
        families[fam] = kind
        continue
    assert not line.startswith("#"), f"unexpected comment: {line}"
    name = line.split("{")[0].split(" ")[0]
    value = line.rsplit(" ", 1)[1]
    float(value.replace("+Inf", "inf"))  # every sample value parses
    samples.append((name, line))
assert families, "no TYPE lines in scrape"
for name, line in samples:
    base = name
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix) and name[: -len(suffix)] in families:
            base = name[: -len(suffix)]
    assert base in families, f"sample without TYPE: {line}"

# Histogram conformance: buckets cumulative and +Inf == _count,
# per label set.
hist_fams = [f for f, kind in families.items() if kind == "histogram"]
assert hist_fams, "no histogram families in scrape"
for fam in hist_fams:
    series = {}
    counts = {}
    for name, line in samples:
        if name == f"{fam}_bucket":
            labels = line[line.index("{") + 1:line.rindex("}")]
            le = [kv for kv in labels.split(",") if kv.startswith('le="')][0]
            rank = ",".join(kv for kv in labels.split(",")
                            if not kv.startswith('le="'))
            series.setdefault(rank, []).append(
                (le[4:-1], int(line.rsplit(" ", 1)[1])))
        elif name == f"{fam}_count":
            rank = (line[line.index("{") + 1:line.rindex("}")]
                    if "{" in line.split(" ")[0] else "")
            counts[rank] = int(line.rsplit(" ", 1)[1])
    for rank, buckets in series.items():
        values = [v for _, v in buckets]  # rendered in ascending-le order
        assert values == sorted(values), f"{fam}{{{rank}}} not cumulative"
        assert buckets[-1][0] == "+Inf", f"{fam}{{{rank}}} missing +Inf"
        assert buckets[-1][1] == counts[rank], \
            f"{fam}{{{rank}}}: +Inf {buckets[-1][1]} != _count {counts[rank]}"

# Exact reconciliation: the live scrape's tune counters against the
# final JSONL dump (both written after the sweep settled).
scraped = {name: int(line.rsplit(" ", 1)[1]) for name, line in samples
           if name.startswith("dmis_tune_")}
with open(f"{smoke_dir}/live_metrics.jsonl") as f:
    dumped = {m["name"]: m["value"] for m in map(json.loads, f)
              if m["type"] == "counter" and m["name"].startswith("tune.")}
assert dumped, "JSONL dump has no tune counters"
for name, value in dumped.items():
    prom = "dmis_" + name.replace(".", "_")
    assert prom in scraped, f"scrape missing {prom}"
    assert scraped[prom] == value, \
        f"{prom}: scrape {scraped[prom]} != JSONL {value}"
completed = dumped.get("tune.trials_completed", 0)
assert completed == 6, \
    f"tune_search runs a 3x2 grid; completed {completed} trials"

print(f"live scrape OK ({len(samples)} samples, {len(families)} families, "
      f"{len(hist_fams)} histograms conformant, "
      f"{len(dumped)} tune counters reconciled, {completed} trials)")
EOF
wait "${TUNE_PID}"
grep -q '"trigger":"signal.SIGUSR1"' "${SMOKE_DIR}"/flight/flight_*.json \
  || { echo "SIGUSR1 produced no flight dump"; ls -l "${SMOKE_DIR}/flight" || true; exit 1; }

echo "== sweep resume: kill mid-sweep, restart, same best trial =="
# The sweep-ledger gate: a 6-trial sweep is killed (rc 42) once 3 trials
# have reached the durable ledger; the restarted sweep must adopt every
# ledgered trial without re-running it (>= 3 — the fast sequential
# trials can land one more line in the instant between the ledger poll
# and the _exit), finish the rest, and land on the same best trial and
# metric as an uninterrupted sweep over the same grid.
SWEEP_DIR="${SMOKE_DIR}/sweep_resume"
rc=0
./build/examples/sweep_resume "${SWEEP_DIR}" 3 >/dev/null || rc=$?
[ "${rc}" -eq 42 ] || { echo "first run: expected crash rc 42, got ${rc}"; exit 1; }
resumed="$(./build/examples/sweep_resume "${SWEEP_DIR}" | tail -1)"
uninterrupted="$(./build/examples/sweep_resume "${SWEEP_DIR}_ref" | tail -1)"
echo "resumed:       ${resumed}"
echo "uninterrupted: ${uninterrupted}"
adopted="$(printf '%s\n' "${resumed}" | sed 's/.*adopted=\([0-9]*\).*/\1/')"
[ "${adopted:-0}" -ge 3 ] \
  || { echo "restart adopted only ${adopted} of the >= 3 ledgered trials"; exit 1; }
# Same completed count, best trial and best metric as the clean run
# (the adopted= field legitimately differs: >= 3 vs 0).
strip_adopted() { printf '%s\n' "$1" | sed 's/adopted=[0-9]* //'; }
[ "$(strip_adopted "${resumed}")" = "$(strip_adopted "${uninterrupted}")" ] \
  || { echo "resumed sweep diverged from the uninterrupted run"; exit 1; }

echo "== bench: conv kernels =="
# Recorded, not gated: end-to-end conv cost in a training step is gated
# by the train_fullvol workload of the end-to-end benchmark (bench_e2e/).
./build/bench/bench_conv3d --benchmark_filter='Conv' \
  --benchmark_min_time=0.1 \
  --benchmark_out=BENCH_conv3d.json --benchmark_out_format=json \
  >/dev/null

echo "== bench: gradient sync + ring collectives =="
# Nine randomly interleaved repetitions, gated on their median: on a
# timesliced host per-rep times scatter with scheduler noise in both
# directions (a whole repetition can run 20% fast or slow), so a mean,
# a minimum, or few repetitions all flake; interleaving spreads every
# benchmark's repetitions across the whole run and the median is
# robust to wild single repetitions. Only the aggregate rows (mean,
# median, stddev, cv) are written, which keeps the committed file small.
./build/bench/bench_allreduce \
  --benchmark_filter='GradSync|RingAllreduce|NaiveReduceBroadcast' \
  --benchmark_min_time=0.1 \
  --benchmark_repetitions=9 \
  --benchmark_enable_random_interleaving=true \
  --benchmark_report_aggregates_only=true \
  --benchmark_out=BENCH_allreduce.json --benchmark_out_format=json \
  >/dev/null
python3 - BENCH_allreduce.json <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    bench = json.load(f)
medians = [b for b in bench["benchmarks"]
           if b.get("aggregate_name") == "median"]
times = {b["run_name"]: b["real_time"] for b in medians}

# The bucketed overlapped gradient sync must beat a blocking per-tensor
# allreduce (the bench's own loop) by >= 1.5x on the U-Net gradient
# payload (measured 1.7-2.4x; the floor catches a real regression
# without flaking).
for ranks in (2, 4):
    per_tensor = times[f"BM_GradSyncPerTensor/{ranks}"]
    bucketed = times[f"BM_GradSyncBucketed/{ranks}"]
    ratio = per_tensor / bucketed
    status = "OK" if ratio >= 1.5 else "TOO SLOW"
    print(f"ranks={ranks}: per-tensor {per_tensor:.3f}ms / bucketed "
          f"{bucketed:.3f}ms = {ratio:.2f}x [{status}]")
    assert ratio >= 1.5, \
        f"ranks={ranks}: bucketed only {ratio:.2f}x vs per-tensor"
print("gradient sync bench OK (bucketed >= 1.5x per-tensor at 2 and 4 ranks)")
EOF

echo "== bench: serving throughput across worker-pool sizes =="
# Nine randomly interleaved repetitions per worker count, as the
# gradient-sync stage runs: one unrepeated run per row swung the 1-worker
# rate about 10x between back-to-back runs on a shared host. The scaling
# floor reads the per-row medians; the zero-shed invariant is checked on
# every repetition, so no single shedding run hides in an aggregate.
./build/bench/bench_serve \
  --benchmark_min_time=0.2 \
  --benchmark_repetitions=9 \
  --benchmark_enable_random_interleaving=true \
  --benchmark_out=BENCH_serve.json --benchmark_out_format=json \
  >/dev/null
CORES="$(nproc)" python3 - BENCH_serve.json <<'EOF'
import json, os, statistics, sys

with open(sys.argv[1]) as f:
    bench = json.load(f)

def reps(workers):
    rows = [b for b in bench["benchmarks"]
            if b["run_name"] == f"BM_ServeThroughput/{workers}/real_time"
            and b["run_type"] == "iteration"]
    assert len(rows) == 9, f"{workers}-worker row has {len(rows)} repetitions"
    return rows

def median(workers, key):
    return statistics.median(r[key] for r in reps(workers))

# Nominal load (queue sized for the whole batch, no deadlines) must
# never shed: shedding here means admission control is broken.
for workers in (1, 2, 4):
    for r in reps(workers):
        assert r["shed"] == 0, \
            f"{workers}-worker nominal load shed {r['shed']} requests"

# Worker-pool scaling floor for 4 workers vs 1. The 2.5x SLO assumes
# >= 4 real cores; on the smaller CI hosts the pool cannot scale past
# the core count, so the floor degrades to "does not collapse":
#   >= 4 cores: 2.5x    2-3 cores: 1.3x    1 core: 0.7x
cores = int(os.environ.get("CORES", "1"))
floor = 2.5 if cores >= 4 else (1.3 if cores >= 2 else 0.7)
one = median(1, "items_per_second")
four = median(4, "items_per_second")
ratio = four / one
status = "OK" if ratio >= floor else "TOO SLOW"
print(f"serve throughput (medians of 9): 1w {one:.0f}/s, 4w {four:.0f}/s = "
      f"{ratio:.2f}x (floor {floor}x on {cores} cores) [{status}]")
for workers in (1, 2, 4):
    print(f"  {workers}w: {median(workers, 'items_per_second'):.0f} vol/s, "
          f"p50 {median(workers, 'p50_ms'):.2f}ms, "
          f"p99 {median(workers, 'p99_ms'):.2f}ms")
assert ratio >= floor, \
    f"4-worker throughput only {ratio:.2f}x of 1-worker (floor {floor}x)"
print("serve bench OK (zero shed at nominal load, scaling floor held)")
EOF

echo "verify OK"

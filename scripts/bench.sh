#!/usr/bin/env bash
# bench.sh — regression harness for the kernel and training hot paths.
#
# Runs the kernel-path benchmarks (seed saxpy GEMM vs the rule-blocked
# shared-pack pipeline at the Figure 1 FC shapes, transposed products,
# compress/expand) and the experiment-level suites (Figure1Kernels,
# Table2Throughput, EndToEndParallelStep, SerialTrainStep), then writes
# BENCH_kernels.json at the repository root with ns/op, B/op and allocs/op
# per benchmark, the speedup matrices (GEMM shared-vs-seed, transposed
# shared-vs-tiled, SpMM/SDDMM) and the machine fingerprint.
#
# The script FAILS (non-zero exit) if the shared-pack kernel regresses
# below MIN_GEMM_SPEEDUP (default 1.5x) over the seed kernel on any
# Figure-1 FC shape — the repo's floor for the kernel-path win. The
# same floor applies to the transposed backward products: the
# shared-pack MatMulT/TMatMul must hold MIN_GEMM_SPEEDUP over the PR-1 4×4
# register-tile kernels on every Figure-1 backward shape (warn-only on
# single-CPU machines, like the SpMM gate below).
# On AVX2 hosts the strip sweep's vector micro-kernel puts both ratios far
# above the floor (committed baseline, two vCPUs: 5.5-8.9x over seed,
# 5.4-12.8x over tiled), so there the gate catches a build or host that
# lost the kernel. With the Go kernel alone 1.5x holds on dedicated
# hardware; on shared/virtualized machines the seed kernel's memory-light
# loop swings with clock and steal state (we have measured the same binary
# at 2.9 and 4.6 GFLOPS an hour apart, and a shared dev box recorded
# 1.37-1.54x), so such environments — CI included — set
# MIN_GEMM_SPEEDUP=1.2: a broken pack path lands near 1.0x, so the relaxed
# floor still catches real regressions without tripping on scheduler noise.
#
# It also gates the sparse execution path, where the paper says it can win:
# the transposed-CSR SpMM must beat the dense-masked GEMM by
# MIN_SPMM_SPEEDUP (default 1.5x) at the >=90%-sparsity points of the
# BenchmarkSpMM matrix (the committed baseline, two vCPUs with both kernels
# vectorised: 2.0-2.5x at 90%, 2.0-2.9x at 95%, 2.6-3.2x at 99%). The 50%
# and 75% points are recorded ungated: there the two kernels are within
# 1.5x of each other (0.9-1.0x at 50%, 1.4x at 75%). Warn-only on
# single-CPU machines.
#
# A gated matrix that comes out empty, or with a row missing its partner,
# FAILS in every mode (count-based smoke runs and single-CPU machines
# included): a renamed or deleted benchmark family would otherwise pass
# every floor vacuously.
#
# It also records the transport overhead: the same AllReduce and p2p
# ping-pong workloads over the in-process channel mesh and the TCP loopback
# wire land in BENCH_comm.json with the tcp/local ratio per workload. Only
# the small-payload (latency-bound) points are gated — there the ratio is
# framing + syscall cost (~10-30x on a quiet box); at large payloads the
# in-process mesh hands the same slice pointer zero-copy while the wire
# must serialize, so that ratio grows with payload size and is recorded
# ungated. The gate (MAX_COMM_OVERHEAD, default 100x) is warn-only either
# way: it flags a pathological wire path — a lost fast path or per-send
# allocation storm — without failing on scheduler noise.
#
# Finally it exercises the serving path end to end: a samo-serve smoke run
# (concurrent requests verified bitwise against the offline inference
# forward) followed by a load test whose p50/p99 latency and throughput
# land in BENCH_serving.json. The p99 floor (MAX_SERVE_P99_MS, default
# 25ms for the tiny benchmark model) is warn-only on single-CPU machines,
# where the batching engine and its clients contend for one core and
# latency measures the scheduler, not the engine.
#
# Usage: scripts/bench.sh [benchtime]   (default 2s; raise for stabler
# numbers, or pass e.g. 3x for a quick smoke run — count-based benchtimes
# are too noisy for the regression gate, which then only warns)
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${1:-2s}"
OUT="BENCH_kernels.json"
MIN_GEMM_SPEEDUP="${MIN_GEMM_SPEEDUP:-1.5}"
MIN_SPMM_SPEEDUP="${MIN_SPMM_SPEEDUP:-1.5}"
TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

echo "running kernel benchmarks (benchtime=$BENCHTIME, count=3)..." >&2
# count=3 with min-aggregation below: on shared machines a noise burst in
# one 2s window can swing a 200ms/op benchmark by 10%; the minimum of
# three runs is the honest kernel speed.
# BenchmarkGEMM$ leaves out BenchmarkGEMMSmallM (gemmRule's line sweep,
# 168 sub-benchmarks that gate nothing here).
go test -run '^$' -bench 'BenchmarkGEMM$|BenchmarkMatMulT|BenchmarkTMatMul' \
    -benchmem -benchtime="$BENCHTIME" -count=3 ./internal/tensor/ | tee -a "$TMP" >&2

echo "running sparse-execution benchmarks..." >&2
# The sparse-vs-dense FC forward matrix (masked-dense GEMM vs CSR): at
# >=90% sparsity the CSR kernels must convert pruned FLOPs into time
# (gated at MIN_SPMM_SPEEDUP below); below that the ratio is recorded.
go test -run '^$' -bench 'BenchmarkSpMM|BenchmarkSDDMM' \
    -benchmem -benchtime="$BENCHTIME" -count=3 ./internal/sparse/ | tee -a "$TMP" >&2

echo "running training-path benchmarks..." >&2
go test -run '^$' \
    -bench 'BenchmarkFigure1Kernels|BenchmarkTable2Throughput|BenchmarkEndToEndParallelStep|BenchmarkSerialTrainStep|BenchmarkCompressExpandRoundTrip' \
    -benchmem -benchtime="$BENCHTIME" . | tee -a "$TMP" >&2

GATE=1
case "$BENCHTIME" in
    *x) GATE=0 ;; # count-based smoke runs are too noisy to gate on
esac

python3 - "$TMP" "$OUT" "$MIN_GEMM_SPEEDUP" "$GATE" "$MIN_SPMM_SPEEDUP" <<'EOF'
import json, os, re, subprocess, sys

lines = open(sys.argv[1]).read().splitlines()
min_speedup = float(sys.argv[3])
gate = sys.argv[4] == "1"
min_spmm = float(sys.argv[5])
cpu = ""
results = {}
for ln in lines:
    if ln.startswith("cpu:"):
        cpu = ln[4:].strip()
    m = re.match(r"^(Benchmark\S+)\s+(\d+)\s+([\d.]+) ns/op(?:\s+([\d.]+) [^\s]+)*", ln)
    if not m:
        continue
    name = re.sub(r"-\d+$", "", m.group(1))
    entry = {"iters": int(m.group(2)), "ns_per_op": float(m.group(3))}
    for val, unit in re.findall(r"([\d.]+) (B/op|allocs/op|GFLOPS)", ln):
        key = unit.replace("/", "_per_")
        entry[key] = float(val)
    # -count>1 repeats a benchmark; keep the fastest run (noise only adds).
    if name not in results or entry["ns_per_op"] < results[name]["ns_per_op"]:
        results[name] = entry

def ratio(slow, fast):
    if slow in results and fast in results:
        return round(results[slow]["ns_per_op"] / results[fast]["ns_per_op"], 3)
    return None

shared_vs_seed = {}
for name in list(results):
    m = re.match(r"BenchmarkGEMM/shared/(\d+)$", name)
    if not m:
        continue
    dim = m.group(1)
    shared_vs_seed["gemm_%sx%s" % (dim, dim)] = ratio(
        "BenchmarkGEMM/seed/" + dim, "BenchmarkGEMM/shared/" + dim)

matmult, tmatmul = {}, {}
for name in list(results):
    m = re.match(r"Benchmark(MatMulT|TMatMul)/tiled/(\d+)$", name)
    if not m:
        continue
    bench, dim = m.group(1), m.group(2)
    table = matmult if bench == "MatMulT" else tmatmul
    table["gemm_%sx%s" % (dim, dim)] = ratio(
        "Benchmark%s/tiled/%s" % (bench, dim), "Benchmark%s/shared/%s" % (bench, dim))

spmm, sddmm = {}, {}
for name in list(results):
    m = re.match(r"BenchmarkSpMM/dense/(\d+)x([\d.]+)$", name)
    if m:
        dim, sp = m.group(1), m.group(2)
        spmm["spmm_%s_s%s" % (dim, sp)] = ratio(
            "BenchmarkSpMM/dense/%sx%s" % (dim, sp),
            "BenchmarkSpMM/sparse/%sx%s" % (dim, sp))
    m = re.match(r"BenchmarkSDDMM/dense/(\d+)$", name)
    if m:
        dim = m.group(1)
        sddmm["sddmm_%s" % dim] = ratio(
            "BenchmarkSDDMM/dense/" + dim, "BenchmarkSDDMM/sparse/" + dim)

go_version = subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()
json.dump({
    "description": "Kernel/training hot-path benchmark baseline. "
                   "Regenerate with scripts/bench.sh.",
    "cpu": cpu,
    "cpus": os.cpu_count(),
    "go": go_version,
    "gemm_speedup_shared_vs_seed": shared_vs_seed,
    "matmult_speedup_shared_vs_tiled": matmult,
    "tmatmul_speedup_shared_vs_tiled": tmatmul,
    "spmm_speedup_sparse_vs_dense": spmm,
    "sddmm_speedup_sparse_vs_dense": sddmm,
    "benchmarks": dict(sorted(results.items())),
}, open(sys.argv[2], "w"), indent=2)
print("wrote", sys.argv[2])

# Missing data is not noise: a gate over an empty matrix, or over a row
# whose partner benchmark is gone, would pass vacuously, so it fails here in
# every mode before any floor is compared.
spmm_gated = {k: sp for k, sp in spmm.items() if float(k.rsplit("_s", 1)[1]) >= 0.90}
missing = []
for label, table in (("GEMM shared-vs-seed", shared_vs_seed),
                     ("MatMulT shared-vs-tiled", matmult),
                     ("TMatMul shared-vs-tiled", tmatmul),
                     ("SpMM sparse-vs-dense at >=90% sparsity", spmm_gated)):
    if not table:
        missing.append("%s: no benchmark rows matched" % label)
    missing += ["%s %s: one side of the ratio did not run" % (label, key)
                for key, sp in sorted(table.items()) if sp is None]
if missing:
    sys.exit("missing benchmark data:\n  " + "\n  ".join(missing) +
             "\n(a renamed or deleted benchmark must be renamed or deleted "
             "here too, not gated vacuously)")

# Regression gate: the shared-pack kernel must hold the floor over the seed
# kernel on every Figure-1 FC shape.
failures = ["shared kernel on %s: %.3fx over seed, floor is %.2fx" % (key, sp, min_speedup)
            for key, sp in sorted(shared_vs_seed.items()) if sp < min_speedup]
if failures:
    msg = ("GEMM kernel regression vs seed baseline:\n  " + "\n  ".join(failures) +
           "\n(the dense GEMM is the paper's whole lever on throughput; "
           "do not ship a kernel below the floor)")
    if gate:
        sys.exit(msg)
    print("WARNING (not gating, count-based benchtime):\n" + msg)

# Transposed-GEMM gate: the shared-pack backward products must hold the same
# floor over the PR-1 tiled kernels on every Figure-1 backward shape.
# Warn-only on a single CPU, like the SpMM gate: the win holds even
# serially, but a one-core box leaves no headroom against scheduler noise.
t_failures = []
for label, table in (("MatMulT", matmult), ("TMatMul", tmatmul)):
    for key, sp in sorted(table.items()):
        if sp < min_speedup:
            t_failures.append("%s shared kernel on %s: %.3fx over tiled, floor is %.2fx"
                              % (label, key, sp, min_speedup))
if t_failures:
    msg = ("Transposed GEMM regression vs tiled baseline:\n  " +
           "\n  ".join(t_failures) +
           "\n(the backward-pass GEMMs dominate pruned-model step time — "
           "Figure 1; do not ship them below the floor)")
    if gate and (os.cpu_count() or 1) > 1:
        sys.exit(msg)
    reason = "single CPU" if (os.cpu_count() or 1) <= 1 else "count-based benchtime"
    print("WARNING (not gating, %s):\n%s" % (reason, msg))

# SpMM gate: at the high-sparsity points (>=90%) the transposed-CSR SpMM
# must beat the dense-masked GEMM by the floor — there a vector CSR kernel
# converts the pruned FLOPs into time even against a vector GEMM. The points
# below are recorded but not gated (see the header). Warn-only on a single
# CPU, like the transposed-GEMM gate.
s_failures = []
for key, sp in sorted(spmm_gated.items()):
    if sp < min_spmm:
        s_failures.append("sparse SpMM on %s: %.3fx over dense-masked, floor is %.2fx"
                          % (key, sp, min_spmm))
if s_failures:
    msg = ("Sparse SpMM regression vs dense-masked baseline:\n  " +
           "\n  ".join(s_failures) +
           "\n(at >=90% sparsity the pruned FLOPs must convert to time; "
           "do not ship the sparse path below the floor)")
    if gate and (os.cpu_count() or 1) > 1:
        sys.exit(msg)
    reason = "single CPU" if (os.cpu_count() or 1) <= 1 else "count-based benchtime"
    print("WARNING (not gating, %s):\n%s" % (reason, msg))
EOF

echo "running transport benchmarks (local vs tcp loopback)..." >&2
COMM_OUT="BENCH_comm.json"
MAX_COMM_OVERHEAD="${MAX_COMM_OVERHEAD:-100}"
COMM_TMP="$(mktemp)"
go test -run '^$' -bench 'BenchmarkAllReduce|BenchmarkSendRecv' \
    -benchmem -benchtime="$BENCHTIME" -count=3 ./internal/comm/ | tee "$COMM_TMP" >&2

python3 - "$COMM_TMP" "$COMM_OUT" "$MAX_COMM_OVERHEAD" <<'EOF'
import json, os, re, subprocess, sys

lines = open(sys.argv[1]).read().splitlines()
max_overhead = float(sys.argv[3])
cpu = ""
results = {}
for ln in lines:
    if ln.startswith("cpu:"):
        cpu = ln[4:].strip()
    m = re.match(r"^(Benchmark\S+)\s+(\d+)\s+([\d.]+) ns/op", ln)
    if not m:
        continue
    name = re.sub(r"-\d+$", "", m.group(1))
    entry = {"iters": int(m.group(2)), "ns_per_op": float(m.group(3))}
    for val, unit in re.findall(r"([\d.]+) (B/op|allocs/op|MB/s)", ln):
        entry[unit.replace("/", "_per_")] = float(val)
    if name not in results or entry["ns_per_op"] < results[name]["ns_per_op"]:
        results[name] = entry

# tcp/local overhead per workload: same benchmark name with the transport
# segment swapped.
overhead = {}
for name in sorted(results):
    if "/local/" not in name:
        continue
    tcp = name.replace("/local/", "/tcp/")
    if tcp in results:
        key = name.replace("Benchmark", "").replace("/local", "")
        overhead[key] = round(results[tcp]["ns_per_op"] / results[name]["ns_per_op"], 2)

go_version = subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()
json.dump({
    "description": "Transport benchmark baseline: in-process channel mesh vs "
                   "TCP loopback wire. Regenerate with scripts/bench.sh.",
    "cpu": cpu,
    "cpus": os.cpu_count(),
    "go": go_version,
    "tcp_overhead_vs_local": overhead,
    "benchmarks": dict(sorted(results.items())),
}, open(sys.argv[2], "w"), indent=2)
print("wrote", sys.argv[2])

# Warn-only framing-overhead gate: loopback cost is machine state, not code
# quality, so this never fails the run — it exists to flag a pathological
# wire path (lost local fast path, per-send allocations) loudly. Only the
# latency-bound small-payload points gate; the large-payload ratio measures
# the in-process mesh's zero-copy advantage, which legitimately grows with
# payload size.
bad = ["%s: tcp is %.1fx local (envelope %.0fx)" % (k, v, max_overhead)
       for k, v in sorted(overhead.items())
       if v > max_overhead and "sz1024" in k]
if bad:
    print("WARNING: transport overhead outside the expected envelope "
          "(warn-only):\n  " + "\n  ".join(bad))
EOF
rm -f "$COMM_TMP"

echo "running serving smoke + load test..." >&2
SERVE_OUT="BENCH_serving.json"
MAX_SERVE_P99_MS="${MAX_SERVE_P99_MS:-25}"
# Smoke first: every served response must be bitwise-identical to the
# offline inference forward of its sample alone — a perf number from an
# engine that serves wrong bits would be meaningless.
go run ./cmd/samo-serve -mode smoke -model gpt -requests 48 -concurrency 8 >&2
go run ./cmd/samo-serve -mode loadtest -model gpt -requests 400 -concurrency 12 \
    -out "$SERVE_OUT" >&2

python3 - "$SERVE_OUT" "$MAX_SERVE_P99_MS" "$GATE" <<'EOF'
import json, os, sys

rep = json.load(open(sys.argv[1]))
max_p99 = float(sys.argv[2])
gate = sys.argv[3] == "1"
print("serving: p50 %.3f ms, p99 %.3f ms, %.0f req/s (mean batch %.2f)"
      % (rep["p50_ms"], rep["p99_ms"], rep["throughput_rps"], rep["mean_batch"]))
if rep["p99_ms"] > max_p99:
    msg = ("serving p99 latency %.3f ms exceeds the %.1f ms floor "
           "(the engine never holds a request back, so a p99 this high "
           "means requests are queueing behind forwards)"
           % (rep["p99_ms"], max_p99))
    if gate and (os.cpu_count() or 1) > 1:
        sys.exit(msg)
    reason = "single CPU" if (os.cpu_count() or 1) <= 1 else "count-based benchtime"
    print("WARNING (not gating, %s):\n%s" % (reason, msg))
EOF

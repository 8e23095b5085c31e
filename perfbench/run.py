#!/usr/bin/env python3
"""Repository benchmark: K-FAC-opt vs SGD step throughput and time-to-accuracy.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the dkfac library and the `perfbench`
launcher from source into .bench_build/perfbench, runs the workload, checks
that training was correct, and prints one JSON object as the last line of
standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (tracing off); --trace 1 reports the
per-layer metrics from a separate traced run. Workloads, metrics and what
each metric should move are described in perfbench/README.md. A run
manifest and the full result are also written to
.bench_build/perfbench/results/.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"

WORKLOADS = ("kfac-socket-2r", "sgd-socket-2r", "kfac-inv1-overlap-thread-2r")
# Every run must end within this many seconds of its start.
RUN_DEADLINE_S = 170.0
# Span names of traced_loop.cpp, indexed by its Phase enum.
SPAN_NAMES = ("step", "data", "forward", "backward", "grad_sync", "kfac_step",
              "optim_step", "eval", "factor_probe")
PHASES = ("data", "forward", "backward", "grad_sync", "kfac_step", "optim_step")
# A first step this much slower than the run's typical first step is a stall.
FIRST_STEP_STALL_S = 0.5
# The traced step must be this fully covered by the train.* phase spans.
MIN_PHASE_COVERAGE = 0.97


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail_setup(msg):
    """Exits nonzero without a result: the benchmark cannot run at all."""
    log(f"perfbench: {msg}")
    sys.exit(1)


# ---------------------------------------------------------------- build ----

def run_group(cmd, deadline, **kwargs):
    """Runs `cmd` in its own process group until `deadline`, then kills the
    whole group (forked rank processes and compiler jobs included).
    Returns (returncode or None on timeout, stdout)."""
    proc = subprocess.Popen(cmd, start_new_session=True, cwd=ROOT, **kwargs)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        code = proc.returncode
    except subprocess.TimeoutExpired:
        out, code = None, None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return code, out


def build(deadline):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail_setup(f"dkfac sources not found under {ROOT / 'src'}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    with open(BUILD_DIR / ".lock", "w") as lock, open(log_path, "w") as out:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR),
                      "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            try:
                code, _ = run_group(cmd, deadline, stdout=out, stderr=subprocess.STDOUT)
            except OSError as e:
                code = str(e)
            if code != 0:
                out.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-20:]
                fail_setup("build step %s failed (%s):\n%s" % (cmd[:2], code, "\n".join(tail)))


def run_launcher(args, deadline):
    """Runs the perfbench launcher and returns (its JSON, error)."""
    code, out = run_group([str(BINARY)] + args, deadline, stdout=subprocess.PIPE)
    if code is None:
        return None, "launcher timed out"
    if code != 0:
        return None, f"launcher exited with code {code}"
    try:
        return json.loads(out.decode().strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, "launcher printed no JSON"


# ------------------------------------------------------------- manifest ----

def manifest(raw, seed):
    info, _ = run_launcher(["manifest"], time.monotonic() + 30)
    sha = None  # None when the checkout is not a git work tree of its own
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10).stdout.split()
        if Path(top).resolve() == ROOT:
            sha = head
    except (OSError, ValueError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    info = info or {}
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "build_type": info.get("build_type"),
        "DKFAC_NATIVE_ARCH": info.get("native_arch"),
        "compiler": info.get("compiler"),
        "ranks": raw.get("ranks") if raw else None,
        "backend": raw.get("backend") if raw else None,
        "omp_threads_per_rank": raw.get("omp_threads_per_rank") if raw else None,
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


# ---------------------------------------------------------------- stats ----

def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 100]."""
    s = sorted(values)
    if not s:
        return float("nan")
    pos = (len(s) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def median(values):
    return statistics.median(values) if values else 0.0


class Run:
    """The launcher's raw records plus the checks they failed."""

    def __init__(self, raw):
        self.raw = raw
        self.launches = raw["launches"]
        self.warmup = raw["warmup_steps"]
        self.target = raw["target_accuracy"]
        self.errors = []
        self.attempted = 0
        self.failed = 0

    def of_kind(self, *kinds):
        return [l for l in self.launches if l["kind"] in kinds]

    def account(self):
        """Counts steps per launch; a failed launch fails all its steps."""
        for l in self.launches:
            planned = l["planned_steps"]
            self.attempted += planned
            recs = l["rank_records"]
            bad = [r for r in recs if not r or not r.get("ok")]
            if l["status"] != 0 or bad:
                self.failed += planned
                why = "; ".join(r.get("error", "?") for r in bad if r) or "no record"
                self.errors.append(f"{l['kind']} launch failed (status {l['status']}): {why}")
                l["failed"] = True

    def good(self, *kinds):
        return [l for l in self.of_kind(*kinds) if not l.get("failed")]


def step_ms(rec, warmup, epoch=None):
    """Step times seen from outside through the trainer's step_probe:
    the time between consecutive probes of one epoch (so per-epoch
    evaluation is excluded), after the warm-up steps; all epochs, or one."""
    p, e = rec["probe_ns"], rec["probe_epoch"]
    return [(p[i + 1] - p[i]) / 1e6 for i in range(warmup, len(p) - 1)
            if e[i] == e[i + 1] and epoch in (None, e[i])]


def setup_split(l, warmup):
    recs = l["rank_records"]
    r0 = recs[0]
    return {
        "setup_s": max(r["probe_ns"][warmup] for r in recs) / 1e9 - l["t0_ns"] / 1e9,
        "launch_ms": (max(r["t_fn_ns"] for r in recs) - l["t0_ns"]) / 1e6,
        "model_ms": (r0["t_model_ns"] - r0["t_fn_ns"]) / 1e6,
        "warmup_ms": (r0["probe_ns"][warmup] - r0["t_model_ns"]) / 1e6,
        "first_step_s": (r0["probe_ns"][1] - r0["probe_ns"][0]) / 1e9,
    }


def check_training(run, l):
    """Loss finite and falling, target reached, no steady-state allocation."""
    for r in l["rank_records"]:
        loss = r["train_loss"]
        if not loss or not all(math.isfinite(x) for x in loss):
            run.errors.append(f"{l['kind']} rank {r['rank']}: non-finite loss {loss}")
        elif len(loss) > 1 and not loss[-1] < loss[0]:
            run.errors.append(f"{l['kind']} rank {r['rank']}: loss did not fall {loss}")
        if r["steady_state_allocs"] != 0:
            run.errors.append(f"{l['kind']} rank {r['rank']}: "
                              f"{r['steady_state_allocs']} steady-state comm allocations")
    r0 = l["rank_records"][0]
    if l["kind"] != "baseline" and not any(v >= run.target for v in r0["val_accuracy"]):
        run.errors.append(f"{l['kind']}: target accuracy {run.target} not reached "
                          f"({r0['val_accuracy']})")


def check_repeatable(run, launches):
    """Identical launches must end on bitwise-equal loss."""
    bits = {l["rank_records"][0]["train_loss_bits"][-1] for l in launches}
    if len(bits) > 1:
        run.errors.append(f"final loss differs between identical launches: {sorted(bits)}")


def time_to_target(run, rec):
    """(seconds, epochs) from the first step to the end of the first epoch
    whose validation accuracy reaches the target."""
    hit = next((e for e, v in enumerate(rec["val_accuracy"]) if v >= run.target), None)
    if hit is None:
        return float("nan"), float("nan")
    return (rec["epoch_end_ns"][hit] - rec["probe_ns"][0]) / 1e9, hit + 1


def e2e_metrics(run):
    full = run.good("full")
    for l in full:
        check_training(run, l)
    check_repeatable(run, full)
    global_batch = run.raw["local_batch"] * run.raw["ranks"]
    steps, epoch_rates, rss = [], [], []
    for l in full:
        r0 = l["rank_records"][0]
        steps += step_ms(r0, run.warmup)
        # Throughput per epoch, so that a burst of load from outside the
        # benchmark moves the run's median only if it lasts half the run.
        for epoch in sorted(set(r0["probe_epoch"])):
            ms = step_ms(r0, run.warmup, epoch)
            if ms:
                epoch_rates.append(global_batch * len(ms) / (sum(ms) / 1e3))
        rss.append(max(r["peak_rss_kib"] for r in l["rank_records"]) / 1024.0)
    setups = [setup_split(l, run.warmup)["setup_s"] for l in run.good("setup", "full")]
    log(f"perfbench: {len(full)} full launch(es), {len(steps)} step samples, "
        f"{len(setups)} set-ups")
    return {
        "samples_per_s": (median(epoch_rates), "1/s"),
        "step_ms.p50": (percentile(steps, 50), "ms"),
        "step_ms.p95": (percentile(steps, 95), "ms"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (median(rss), "MiB"),
    }


# ---------------------------------------------------------------- traced ---

def traced_phases(rec, warmup):
    """Per-step phase durations (ms) from a traced rank's spans."""
    per_step = {}
    evals = []
    for phase, step, t0, t1 in rec["spans"]:
        name = SPAN_NAMES[phase]
        ms = (t1 - t0) / 1e6
        if name == "eval":
            evals.append(ms)
        elif step >= warmup and name != "factor_probe":
            per_step.setdefault(step, {}).setdefault(name, 0.0)
            per_step[step][name] += ms
    steps = [per_step[s] for s in sorted(per_step)]
    out = {p: median([s.get(p, 0.0) for s in steps]) for p in PHASES}
    out["eval"] = median(evals)
    total = sum(s["step"] for s in steps)
    out["step"] = median([s["step"] for s in steps])
    out["coverage"] = sum(s.get(p, 0.0) for s in steps for p in PHASES) / total
    out["samples_per_s"] = rec["local_batch"] * rec["world"] * len(steps) / (total / 1e3)
    out["by_step"] = dict(zip(sorted(per_step), steps))
    return out


def write_chrome_trace(launch, path):
    """Bench spans of every traced rank as a Chrome trace_event file."""
    events = []
    t_base = launch["t0_ns"]
    for rec in launch["rank_records"]:
        for phase, step, t0, t1 in rec["spans"]:
            events.append({"name": "train." + SPAN_NAMES[phase], "ph": "X",
                           "pid": rec["rank"], "tid": 0,
                           "ts": (t0 - t_base) / 1e3, "dur": (t1 - t0) / 1e3,
                           "args": {"step": step}})
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events}))


def traced_metrics(run):
    untraced = run.good("full")
    traced = run.good("traced")
    for l in untraced + traced:
        check_training(run, l)
    if not untraced or not traced:
        return None, None
    trec = traced[0]["rank_records"]
    t0rec = trec[0]
    ph = traced_phases(t0rec, run.warmup)
    if ph["coverage"] < MIN_PHASE_COVERAGE:
        run.errors.append(f"train.* phases cover only {ph['coverage']:.3f} of the traced step")
    ref_bits = untraced[0]["rank_records"][0]["train_loss_bits"][-1]
    for r in trec:
        if r["train_loss_bits"][-1] != ref_bits:
            run.errors.append(
                f"traced loop rank {r['rank']} final loss {r['train_loss'][-1]!r} != "
                f"train_with_comm {untraced[0]['rank_records'][0]['train_loss'][-1]!r}")

    untraced_steps = step_ms(untraced[0]["rank_records"][0], run.warmup)
    global_batch = run.raw["local_batch"] * run.raw["ranks"]
    untraced_sps = global_batch * len(untraced_steps) / (sum(untraced_steps) / 1e3)

    lay = t0rec["layers"]
    kfac = "decomp_ms" in lay
    rep = t0rec["kfac_report"]
    spans_by_step = ph["by_step"]
    inv = [i for i, s in enumerate(rep["step"]) if rep["decompositions_updated"][i]
           and s >= run.warmup]
    plain = [i for i, s in enumerate(rep["step"]) if not rep["decompositions_updated"][i]
             and s >= run.warmup]
    kfac_ms = lambda idx: median([spans_by_step[rep["step"][i]]["kfac_step"] for i in idx])
    decomposition_ms = median([rep["decomposition_s"][i] * 1e3 for i in inv])
    factor_ms = median([rep["factor_s"][i] * 1e3 for i in inv])
    a_ms, g_ms = median(t0rec["a_factor_ms"]), median(t0rec["g_factor_ms"])
    decomp_ms = lay.get("decomp_ms", 0.0)
    rank_decomp = [r["layers"].get("decomp_ms", 0.0) for r in trec]
    c = t0rec["comm"]
    per_step = lambda v: v / c["steps"] if c["steps"] else 0.0
    rec0 = [setup_split(l, run.warmup) for l in run.good("setup", "full")]
    first = median([s["first_step_s"] for s in rec0])

    m = {}
    for p in PHASES:
        m[f"train.{p}_ms"] = (ph[p], "ms")
    m["train.eval_ms"] = (ph["eval"], "ms")
    u0 = untraced[0]["rank_records"][0]
    m["final_loss"] = (u0["train_loss"][-1], "nats")
    ttt, ett = time_to_target(run, u0)
    m["time_to_target_s"] = (ttt, "s")
    m["epochs_to_target"] = (ett, "count")
    m["train.step_ms"] = (ph["step"], "ms")
    m["train.phase_coverage"] = (ph["coverage"], "ratio")
    m["nn.conv.forward_ms"] = (lay["conv_forward_ms"], "ms")
    m["nn.conv.backward_ms"] = (lay["conv_backward_ms"], "ms")
    m["nn.conv.im2col_ms"] = (lay["conv_im2col_ms"], "ms")
    m["nn.bn.forward_ms"] = (lay["bn_forward_ms"], "ms")
    m["nn.bn.backward_ms"] = (lay["bn_backward_ms"], "ms")
    m["nn.conv.forward_share"] = (lay["conv_forward_ms"] / ph["forward"], "ratio")
    m["nn.conv.a_factor_ms"] = (a_ms, "ms")
    m["nn.conv.g_factor_ms"] = (g_ms, "ms")
    m["linalg.gemm_gflops"] = (lay["gemm_flops"] / lay["gemm_ms"] / 1e6, "GFLOP/s")
    m["linalg.syrk_gflops"] = (lay["syrk_flops"] / lay["syrk_ms"] / 1e6, "GFLOP/s")
    m["linalg.decomp_ms"] = (decomp_ms, "ms")
    m["linalg.decomp_flops"] = (lay.get("decomp_flops", 0.0), "count")
    m["kfac.decomposition_ms"] = (decomposition_ms if kfac else 0.0, "ms")
    m["kfac.factor_ms"] = (factor_ms if kfac else 0.0, "ms")
    m["kfac.precondition_ms"] = (median([x * 1e3 for x in rep["precondition_s"]]), "ms")
    m["kfac.inv_step_ms"] = (kfac_ms(inv), "ms")
    m["kfac.plain_step_ms"] = (kfac_ms(plain), "ms")
    m["kfac.decomp_wait_ms"] = ((decomposition_ms - decomp_ms) if kfac else 0.0, "ms")
    m["kfac.assign_imbalance"] = (lay.get("assign_imbalance", 0.0), "ratio")
    m["kfac.decomp_rank_imbalance"] = (
        max(rank_decomp) / statistics.mean(rank_decomp) if kfac else 0.0, "ratio")
    m["comm.allreduce.calls_per_step"] = (per_step(c["allreduce_calls"]), "count")
    m["comm.allreduce.bytes_per_step"] = (per_step(c["allreduce_bytes"]), "B")
    m["comm.allgather.calls_per_step"] = (per_step(c["allgather_calls"]), "count")
    m["comm.allgather.bytes_per_step"] = (per_step(c["allgather_bytes"]), "B")
    m["comm.wire.sent_bytes_per_step"] = (per_step(c["wire_sent_bytes"]), "B")
    m["comm.factor.encoded_bytes_per_step"] = (per_step(c["factor_encoded_bytes"]), "B")
    m["comm.arena.steady_allocs"] = (max(r["steady_state_allocs"] for r in trec), "count")
    m["comm.async.hidden_ms"] = (
        max(0.0, per_step(c["async_comm_s"] - c["async_wait_s"]) * 1e3), "ms")
    m["obs.trace_overhead"] = (1.0 - ph["samples_per_s"] / untraced_sps, "ratio")
    m["table5.factor_comp_ms"] = (a_ms + g_ms if kfac else 0.0, "ms")
    m["table5.factor_comm_ms"] = (max(0.0, factor_ms - a_ms - g_ms) if kfac else 0.0, "ms")
    m["table5.eig_comp_ms"] = (decomp_ms, "ms")
    m["table5.eig_comm_ms"] = (m["kfac.decomp_wait_ms"][0], "ms")
    m["setup.launch_ms"] = (median([s["launch_ms"] for s in rec0]), "ms")
    m["setup.model_ms"] = (median([s["model_ms"] for s in rec0]), "ms")
    m["setup.warmup_ms"] = (median([s["warmup_ms"] for s in rec0]), "ms")
    m["setup.first_step_stalls"] = (
        sum(1 for s in rec0 if s["first_step_s"] > first + FIRST_STEP_STALL_S), "count")

    base = run.good("baseline")
    speedups = {p: 0.0 for p in ("overall",) + PHASES + ("eval",)}
    if base:
        bph = traced_phases(base[0]["rank_records"][0], run.warmup)
        speedups["overall"] = ph["samples_per_s"] / bph["samples_per_s"]
        for p in PHASES + ("eval",):
            speedups[p] = bph[p] / ph[p] if ph[p] > 0 else 0.0
    m["scaling.speedup_vs_1rank"] = (speedups["overall"], "x")
    for p in PHASES + ("eval",):
        m[f"scaling.speedup_vs_1rank.{p}"] = (speedups[p], "x")
    return m, traced[0]


def print_tables(raw, m):
    """The paper's Table V (time profile per inverse step) and Table VI
    (decomposition load balance), measured on this run."""
    print(f"Table V (measured, {raw['workload']}, per inverse step, rank 0):")
    print(f"  factor  Tcomp {m['table5.factor_comp_ms'][0]:8.2f} ms   "
          f"Tcomm {m['table5.factor_comm_ms'][0]:8.2f} ms")
    print(f"  eig     Tcomp {m['table5.eig_comp_ms'][0]:8.2f} ms   "
          f"Tcomm {m['table5.eig_comm_ms'][0]:8.2f} ms")
    print(f"Table VI (measured, {raw['workload']}): decomposition time max/mean over ranks "
          f"{m['kfac.decomp_rank_imbalance'][0]:.3f}  vs  assigned n^3 max/mean "
          f"{m['kfac.assign_imbalance'][0]:.3f}")


# ----------------------------------------------------------------- main ----

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    # SIGTERM unwinds like an exception, so run_group still kills the
    # process group it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    start = time.monotonic()
    build(start + 880.0)
    # A run that had to build (the first in a checkout) may take longer.
    deadline = max(start + RUN_DEADLINE_S, time.monotonic() + 120.0)
    mode = "traced" if args.trace else "e2e"
    raw, err = run_launcher([mode, "--workload", args.workload, "--seed", str(args.seed),
                           "--seconds", str(args.seconds)], deadline)
    stamp = manifest(raw, args.seed)
    print("manifest: " + json.dumps(stamp, sort_keys=True))

    if raw is None:
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        log(f"perfbench: {err}")
        print(json.dumps(result))
        return 1

    run = Run(raw)
    run.account()
    if args.trace:
        m, traced_launch = traced_metrics(run)
        if m is None:
            m = {}
        else:
            print_tables(raw, m)
            write_chrome_trace(traced_launch, BUILD_DIR / "traces" /
                               f"{args.workload}-seed{args.seed}.trace.json")
    else:
        m = e2e_metrics(run)
    fail_ratio = run.failed / run.attempted if run.attempted else 1.0
    if args.trace:
        m["fail_ratio"] = (fail_ratio, "ratio")
    for e in run.errors:
        log(f"perfbench: check failed: {e}")
    print(f"steps attempted {run.attempted}, failed {run.failed}")

    # A metric that could not be measured (failed run) is null, not NaN.
    metrics = {k: {"value": v if math.isfinite(v) else None, "unit": u}
               for k, (v, u) in m.items()}
    correct = not run.errors and run.failed == 0
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    out = BUILD_DIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"manifest": stamp, "errors": run.errors, **result},
                              indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Standing end-to-end benchmark: the paper's apps on the threads platform.

    python3 bench_e2e/run.py --workload mandel|walker|matmul|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. It builds the ``bench-e2e`` package in
this directory (into ``$CARGO_TARGET_DIR``, else ``bench_e2e/target``),
then, for ``--seconds``, starts one fresh process per sample so that each
sample's peak resident memory is its own. Every sample is verified; a
faulted, stalled or wrong sample is counted as failed and its timings are
dropped. With ``--trace 1`` one more sample runs with the program's
tracing and profiler on; it gives the per-layer metrics and its spans are
written to ``bench_e2e/out/``.

Workloads (two daemons, default ``ClusterConfig``):
  mandel  Fig. 3 manager/worker, 1280x1280, 32x32 blocks, 512 iterations;
          the Fig. 2 PVM program runs the same scene, interleaved A/B/B/A.
  walker  32 interpreted walkers x 256 hops on a 16-node ring, a
          128-iteration orbit loop in bytecode before every hop.
  matmul  Fig. 11 distribute_A/rotate_B, 4x4 grid of 96x96 blocks.

Every invocation also runs a paper-shape cell on the simulator and
compares its cost-model seconds bit for bit with ``sim_pins.json``; a
mismatch fails the benchmark. Those seconds come from the calibrated
1997 cost model and never measure this system's speed.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``). The exit code is
1 if any sample failed, 2 if the benchmark could not run.
"""

import argparse
import glob
import json
import os
import subprocess
import sys
import time

sys.dont_write_bytecode = True
import stats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("mandel", "walker", "matmul")
CHILD_TIMEOUT_S = 60
# Pooled task samples needed for a p99 with ten samples beyond it.
MIN_TASKS = 1000
P_TAIL = 99.0

# (name, unit, better). Each metric is measured on every workload.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("task_p50_ms", "ms", "lower"),
]

# (name, unit, better). From the one traced sample, except `task.p99_ms`,
# pooled from the untraced samples: on this 2-CPU shared host its spread
# from seed to seed (up to 0.3 on walker) is wider than any bound a gate
# may have, so it is tracked here, without a bound. A layer a workload
# does not use reads 0 and is given as a share (ratio), never as a time.
PER_LAYER = [
    ("task.p99_ms", "ms", "lower"),
    ("lang.compile_s", "s", "lower"),
    ("core.register_s", "s", "lower"),
    ("core.new_s", "s", "lower"),
    ("core.place_s", "s", "lower"),
    ("vm.ops", "count", "lower"),
    ("prof.exec_s", "s", "lower"),
    ("vm.ops_per_exec_s", "1/s", "higher"),
    ("analysis.typed_loops", "count", "higher"),
    ("compile.superinsts", "count", "higher"),
    ("prof.queue_s", "s", "lower"),
    ("core.segments", "count", "lower"),
    ("core.hops", "count", "lower"),
    ("core.migrations_in", "count", "lower"),
    ("core.migration_bytes", "bytes", "lower"),
    ("native.kernel_s", "s", "lower"),
    ("native.kernel_calls", "count", "lower"),
    ("native.kernel_frac", "ratio", "higher"),
    ("native.service_frac", "ratio", "lower"),
    ("core.overhead_frac", "ratio", "lower"),
    ("core.hop_out_frac", "ratio", "lower"),
    ("core.hop_back_frac", "ratio", "lower"),
    ("gvt.rounds", "count", "lower"),
    ("gvt.step_frac", "ratio", "lower"),
    ("prof.park_frac", "ratio", "lower"),
    ("prof.unattributed_frac", "ratio", "lower"),
    ("prof.unattributable_layers", "count", "lower"),
    ("pvm.run_ratio", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.dropped", "count", "lower"),
]

# The native each workload's kernel runs in; the others are service.
KERNEL = {"mandel": "native.compute", "walker": "native.lap",
          "matmul": "native.block_multiply"}
# Profiler phases measured on the host clock. On threads `verify` and
# `enc` are charged from the 1997 cost model, so they are not host time.
HOST_PHASES = ("queue", "exec", "park")
BUSY_PHASES = ("verify", "exec", "enc", "xport", "stall")
SETUP_STEPS = ("core.new_s", "lang.compile_s", "core.register_s", "core.build_s",
               "core.set_node_var_s", "core.inject_s")


def die(msg, code=2):
    print(f"bench_e2e: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Build the sample binary; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        rc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=900).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}")
    if rc != 0:
        die(f"build failed with exit code {rc}")
    return os.path.join(target, "release", "bench-e2e")


class Runner:
    def __init__(self, binary):
        self.binary = binary
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def child(self, args, counted=True):
        """Run one child; returns its JSON record, or None when it failed,
        stalled or printed a wrong result."""
        record, why = None, None
        try:
            proc = subprocess.run([self.binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                                  timeout=CHILD_TIMEOUT_S)
            if proc.returncode == 0:
                record = json.loads(proc.stdout.decode().strip().splitlines()[-1])
            else:
                why = f"exit code {proc.returncode}"
        except subprocess.TimeoutExpired:
            why = f"stalled past {CHILD_TIMEOUT_S} s"
        except (ValueError, IndexError):
            why = "unreadable output"
        if counted:
            self.attempted += 1
        if record is None or record.get("ok") is False:
            self.errors.append(f"{' '.join(args)}: {why or record.get('error')}")
            if counted:
                self.failed += 1
            return None
        return record


def host_facts(runner):
    env = runner.child(["env"], counted=False)
    rev = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or rev
        except (OSError, subprocess.TimeoutExpired):
            pass
    try:
        rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True,
                               timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        rustc = "unknown"
    loc = {}
    for src in sorted(glob.glob(os.path.join(ROOT, "crates", "*", "src"))
                      + [os.path.join(ROOT, "src")]):
        crate = "messengers" if src == os.path.join(ROOT, "src") else os.path.basename(os.path.dirname(src))
        lines = 0
        for path in glob.glob(os.path.join(src, "**", "*.rs"), recursive=True):
            with open(path, encoding="utf-8") as f:
                lines += sum(1 for _ in f)
        loc[crate] = lines
    return {"available_parallelism": (env or {}).get("available_parallelism"),
            "git_rev": rev, "rustc": rustc, "rust_loc": loc}


def sim_cell(runner):
    """Run the paper-shape cell; returns a list of mismatch descriptions."""
    with open(os.path.join(HERE, "sim_pins.json"), encoding="utf-8") as f:
        pins = json.load(f)
    got = runner.child(["sim"], counted=False)
    if got is None:
        return ["the sim cell did not run"]
    bad = []
    for name, want in sorted(pins.items()):
        cell = got.get(name)
        if cell is None or not cell["ok"]:
            bad.append(f"{name}: wrong result")
        elif cell["bits"] != want:
            bad.append(f"{name}: {cell['s']} s (bits {cell['bits']}), pinned bits {want}")
    for name, cell in sorted(got.items()):
        print(f"  sim {name:<22} {cell['s']:.6f} cost-model s (1997 testbed, not this host)")
    return bad


def sample_loop(runner, workload, seed, seconds):
    """Untraced samples for `seconds` (longer if fewer than MIN_TASKS task
    latencies were pooled). Mandel interleaves PVM runs A/B/B/A."""
    ref = []
    if workload == "mandel":
        r = runner.child(["ref", "mandel", str(seed)], counted=False)
        if r is None:
            die("could not compute the mandel reference image")
        ref = ["--ref", str(r["checksum"])]
    samples, pvm, tasks = [], [], 0
    start = time.monotonic()
    i = 0
    while True:
        elapsed = time.monotonic() - start
        if elapsed >= seconds and (tasks >= MIN_TASKS or elapsed >= 3 * seconds):
            break
        jobs = [("msgr", ["sample", workload, str(seed)] + ref)]
        if workload == "mandel":
            jobs.append(("pvm", ["pvm", str(seed)] + ref))
            if i % 4 in (1, 2):
                jobs.reverse()
        for kind, args in jobs:
            rec = runner.child(args)
            if rec is None:
                continue
            if kind == "pvm":
                pvm.append(rec)
            else:
                samples.append(rec)
                tasks += len(rec["tasks_ms"])
        i += 1
    return samples, pvm, ref


def setup_seconds(rec):
    return sum(rec["setup"].get(k, 0.0) for k in SETUP_STEPS)


def end_to_end(samples):
    tasks = [t for r in samples for t in r["tasks_ms"]]
    if not samples or (stats.tail_percentile(len(tasks)) or 0) < P_TAIL:
        return None
    return {
        "setup_s": stats.median([setup_seconds(r) for r in samples]),
        "run_s": stats.median([r["run_s"] for r in samples]),
        "cpu_s": stats.median([r["cpu_s"] for r in samples]),
        "peak_rss_mb": stats.median([r["peak_rss_mb"] for r in samples]),
        "task_p50_ms": stats.percentile(tasks, 50),
    }


def task_tail(samples):
    return stats.percentile([t for r in samples for t in r["tasks_ms"]], P_TAIL)


def share(part, whole):
    return part / whole if whole else 0.0


def per_layer(workload, t, untraced_run_s, pvm_run_s, task_p99):
    """Per-layer metrics from the traced sample `t`."""
    c, prof, natives = t["counters"], t["prof_s"], t["natives"]
    daemon_s = t["daemons"] * t["run_s"]
    kernel = natives.get(KERNEL[workload], [0.0, 0])
    native_s = sum(v[0] for v in natives.values())
    setup = t["setup"]
    hop = {k: stats.percentile(t[k], 50) if t.get(k) else 0.0 for k in ("hop_out_ms", "hop_back_ms")}
    task_p50 = stats.percentile(t["tasks_ms"], 50)
    gaps = t.get("step_gap_ms") or []
    steps = len(gaps) + 1 if gaps else 0
    return {
        "task.p99_ms": task_p99,
        "lang.compile_s": setup["lang.compile_s"],
        "core.register_s": setup["core.register_s"],
        "core.new_s": setup["core.new_s"],
        "core.place_s": sum(setup.get(k, 0.0) for k in
                            ("core.build_s", "core.set_node_var_s", "core.inject_s")),
        "vm.ops": c["ops"],
        "prof.exec_s": prof["exec"],
        "vm.ops_per_exec_s": share(c["ops"], prof["exec"]),
        "analysis.typed_loops": c["analysis_typed_loops"],
        "compile.superinsts": c["compile_superinsts"],
        "prof.queue_s": prof["queue"],
        "core.segments": c["segments"],
        "core.hops": c["hops"],
        "core.migrations_in": c["migrations_in"],
        "core.migration_bytes": c["migration_bytes"],
        "native.kernel_s": kernel[0],
        "native.kernel_calls": kernel[1],
        "native.kernel_frac": share(kernel[0], daemon_s),
        "native.service_frac": share(native_s - kernel[0], daemon_s),
        "core.overhead_frac": 1.0 - share(native_s, daemon_s),
        "core.hop_out_frac": share(hop["hop_out_ms"], task_p50),
        "core.hop_back_frac": share(hop["hop_back_ms"], task_p50),
        "gvt.rounds": c["gvt_rounds"],
        "gvt.step_frac": share(stats.percentile(gaps, 50) * steps / 1e3, t["run_s"]) if gaps else 0.0,
        "prof.park_frac": share(prof["park"], sum(prof.values())),
        "prof.unattributed_frac": 1.0 - share(prof["exec"], daemon_s),
        "prof.unattributable_layers": sum(1 for p in BUSY_PHASES if prof[p] > daemon_s),
        "pvm.run_ratio": share(untraced_run_s, pvm_run_s) if pvm_run_s else 0.0,
        "trace.overhead_frac": share(t["run_s"], untraced_run_s) - 1.0,
        "trace.dropped": c["trace_dropped"],
    }


def describe(name, unit, values):
    if not values:
        return f"  {name:<14} no samples"
    q1, q3 = stats.quartiles(values)
    return (f"  {name:<14} {stats.median(values):>12.6g} {unit:<3} median  n={len(values):<5}"
            f" q1={q1:.6g} q3={q3:.6g} spread={stats.spread(values):.3f}")


def report_untraced(workload, samples, pvm, attempted, failed):
    print(f"[{workload}] {len(samples)} verified samples; "
          f"failed_frac={share(failed, attempted):.4f} ({failed} of {attempted} runs)")
    print(describe("setup_s", "s", [setup_seconds(r) for r in samples]))
    for key, unit in (("run_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")):
        print(describe(key, unit, [r[key] for r in samples]))
    tasks = [t for r in samples for t in r["tasks_ms"]]
    tail = stats.tail_percentile(len(tasks))
    label = {"mandel": "block (next_task hand-out to deposit)",
             "walker": "lap (one walker: orbit loop, hop, wait)",
             "matmul": "B-block step (multiply k to multiply k+1)"}[workload]
    if tasks:
        print(f"  task latency, {label}: n={len(tasks)} p50="
              f"{stats.percentile(tasks, 50):.4f} ms p99={stats.percentile(tasks, 99):.4f} ms"
              + (f" tail p{tail:g}={stats.percentile(tasks, tail):.4f} ms" if tail else ""))
    if workload == "mandel":
        print(describe("pvm_run_s", "s", [r["run_s"] for r in pvm]))
        print(describe("pvm_cpu_s", "s", [r["cpu_s"] for r in pvm]))


def report_traced(workload, t, spans_path):
    prof = t["prof_s"]
    print(f"[{workload}] traced sample: run_s={t['run_s']:.6f}; profiler phases "
          "(host clock: queue, exec, park; verify/enc are 1997 cost-model charges):")
    daemon_s = t["daemons"] * t["run_s"]
    for p, v in prof.items():
        flag = "" if p in HOST_PHASES else "  [cost model, not host time]"
        if p in BUSY_PHASES and v > daemon_s:
            flag += "  [UNATTRIBUTABLE: exceeds daemons x run_s]"
        note = "  (offered load (k-1)/k, not overhead)" if p == "queue" else ""
        print(f"  prof.{p:<7} {v:>12.6f} s{note}{flag}")
    for name, (secs, calls) in sorted(t["natives"].items()):
        print(f"  {name:<22} {secs:.6f} s in {calls} calls")
    for key in ("hop_out_ms", "hop_back_ms", "step_gap_ms"):
        if t.get(key):
            print(f"  {key[:-3]}_ms_p50 = {stats.percentile(t[key], 50):.4f} ms (n={len(t[key])})")
    with open(spans_path, encoding="utf-8") as f:
        spans = [json.loads(line) for line in f]
    own = stats.self_times(spans)
    totals = {}
    for s in spans:
        entry = totals.setdefault(s["name"], [0, 0, 0])
        entry[0] += 1
        entry[1] += s["end_ns"] - s["start_ns"]
        entry[2] += own[s["id"]]
    print(f"  spans ({len(spans)} written to {os.path.relpath(spans_path, ROOT)}): name, count, "
          "total s, self s")
    for name, (n, total, self_ns) in sorted(totals.items(), key=lambda kv: -kv[1][2]):
        print(f"    {name:<24} {n:>6} {total / 1e9:>12.6f} {self_ns / 1e9:>12.6f}")


def stress_check(workload, layers):
    """Whether the traced sample stresses the layer the workload is for."""
    if workload == "walker":
        share_, what = 1.0 - layers["prof.unattributed_frac"], "prof.exec_s share of daemon-s"
    elif workload == "matmul":
        share_, what = layers["gvt.step_frac"], "gvt.step_gap_ms_p50 x steps share of run_s"
    else:
        share_, what = layers["native.kernel_frac"], "native.compute_s share of daemon-s"
    verdict = "ok" if share_ > 0.5 else "NOT MET: resize the workload"
    print(f"  stress check: {what} = {share_:.3f} ({verdict})")


def run_workload(runner, workload, seed, seconds, trace):
    attempted, failed = runner.attempted, runner.failed
    samples, pvm, ref = sample_loop(runner, workload, seed, seconds)
    report_untraced(workload, samples, pvm, runner.attempted - attempted, runner.failed - failed)
    metrics = end_to_end(samples)
    if metrics is None:
        return None, [], []
    if not trace:
        return metrics, END_TO_END, metrics
    spans_path = os.path.join(OUT, f"spans-{workload}-{seed}.jsonl")
    t = runner.child(["sample", workload, str(seed), "--trace", "--spans", spans_path] + ref)
    if t is None:
        return None, [], []
    report_traced(workload, t, spans_path)
    pvm_run_s = stats.median([r["run_s"] for r in pvm]) if pvm else 0.0
    layers = per_layer(workload, t, metrics["run_s"], pvm_run_s, task_tail(samples))
    stress_check(workload, layers)
    return layers, PER_LAYER, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    set_vars = sorted(k for k in os.environ if k.startswith("MSGR_"))
    if set_vars:
        die(f"refusing to run with {', '.join(set_vars)} set: they change the program measured")
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        die("the repository's crates are missing; run from a full checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    for key, declared in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        if [(m["name"], m["unit"], m["better"]) for m in bench[key]] != [tuple(d) for d in declared]:
            die(f"the {key} metrics differ from BENCHMARK.json")
    os.makedirs(OUT, exist_ok=True)

    runner = Runner(build())
    facts = host_facts(runner)
    print(f"host: available_parallelism={facts['available_parallelism']} "
          f"rev={facts['git_rev']} {facts['rustc']}")
    print("rust LOC per crate: " + ", ".join(f"{k}={v}" for k, v in facts["rust_loc"].items()))
    mismatches = sim_cell(runner)
    if mismatches:
        for m in mismatches:
            print(f"bench_e2e: sim-shape mismatch: {m}", file=sys.stderr)
        sys.exit(1)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, record = {}, {"host": facts, "seed": args.seed, "trace": args.trace}
    correct = True
    for w in workloads:
        values, names, untraced = run_workload(runner, w, args.seed, args.seconds, args.trace)
        record[w] = {"untraced": untraced, "reported": values}
        if values is None:
            correct = False
            continue
        for name, unit, _ in names:
            key = name if len(workloads) == 1 else f"{w}.{name}"
            metrics[key] = {"value": values[name], "unit": unit}
    for e in runner.errors:
        print(f"bench_e2e: failed sample: {e}", file=sys.stderr)
    correct = correct and runner.failed == 0
    record.update(attempted=runner.attempted, failed=runner.failed, errors=runner.errors)
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-{args.trace}.json"), "w",
              encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Checks of the benchmark's own statistics and names, each with seeded
mutants it must kill.

    python3 bench_e2e/test_stats.py

Every check first passes on the real ``stats.py`` / ``run.py``. Then each
mutant (one textual edit to one of those files, whose original text must
occur exactly once) is loaded as a fresh module, and the check named for
it must fail on it. A check that also passes on its mutant would pass
vacuously, so a surviving mutant fails this script.
"""

import importlib.util
import json
import math
import os
import statistics
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load(name, filename, source):
    spec = importlib.util.spec_from_loader(name, loader=None)
    module = importlib.util.module_from_spec(spec)
    module.__file__ = os.path.join(HERE, filename)
    exec(compile(source, filename, "exec"), module.__dict__)
    return module


def read(filename):
    with open(os.path.join(HERE, filename), encoding="utf-8") as f:
        return f.read()


def check_tail_percentile(st, rn):
    assert st.tail_percentile(19) is None
    assert st.tail_percentile(20) == 50.0
    assert st.tail_percentile(99) == 75.0
    assert st.tail_percentile(100) == 90.0
    assert st.tail_percentile(999) == 95.0
    assert st.tail_percentile(1000) == 99.0
    assert st.tail_percentile(10000) == 99.9
    # The chosen percentile leaves at least ten samples strictly above it.
    for n in range(20, 2500, 7):
        values = list(range(n))
        p = st.tail_percentile(n)
        cut = st.percentile(values, p)
        assert sum(1 for v in values if v > cut) >= st.BEYOND, (n, p, cut)
    # ... and is the highest candidate that does.
    for n in (20, 100, 200, 1000, 2000, 10000):
        higher = [q for q in st.TAIL_LADDER if q > st.tail_percentile(n)]
        for q in higher:
            values = list(range(n))
            assert sum(1 for v in values if v > st.percentile(values, q)) < st.BEYOND, (n, q)


def check_percentile(st, rn):
    values = list(range(1, 101))
    assert st.percentile(values, 50) == 50
    assert st.percentile(values, 99) == 99
    assert st.percentile(values, 100) == 100
    assert st.percentile([7.0], 99) == 7.0
    assert st.percentile(list(range(1, 1001)), 99.9) == 999
    # 99.9 * 41000 / 100 evaluates to 40959.00000000001 in floating point.
    assert st.percentile(list(range(1, 41001)), 99.9) == 40959
    assert st.percentile([3, 1, 2], 50) == 2


def check_median_iqr(st, rn):
    assert st.median([3, 1, 2]) == 2
    assert st.median([4, 1, 3, 2]) == 2.5
    data = [float(v) for v in range(1, 11)]
    assert st.quartiles(data) == (2.75, 8.25)
    assert math.isclose(st.spread(data), 1.0)
    # The same quartiles the acceptance check uses.
    odd = [0.91, 1.02, 0.97, 1.10, 0.95, 1.01, 0.99]
    q1, _, q3 = statistics.quantiles(odd, n=4)
    assert st.quartiles(odd) == (q1, q3)
    assert math.isclose(st.spread(odd), (q3 - q1) / statistics.median(odd))


def check_name_rule(st, rn):
    for good in ("run_s", "task_p99_ms", "core.hop_out_frac", "9lives", "a-b", "x" * 64):
        assert st.valid_name(good), good
    for bad in ("", "_x", ".x", "-x", "x" * 65, "a b", "a/b", "café", "a\n", None):
        assert not st.valid_name(bad), bad
    for good in ("ms", "s", "1/s", "count", "%", "MB", "ratio"):
        assert st.valid_unit(good), good
    for bad in ("", "u" * 17, "m s", "µs"):
        assert not st.valid_unit(bad), bad


def fake_samples(rn):
    sample = {"setup": {k: 1e-3 for k in rn.SETUP_STEPS}, "daemons": 2, "run_s": 1.0, "cpu_s": 1.5,
              "peak_rss_mb": 16.0, "tasks_ms": [float(i) for i in range(1000)]}
    traced = dict(sample, counters={"ops": 10, "hops": 2, "segments": 3, "migrations_in": 2,
                                    "migration_bytes": 100, "gvt_rounds": 1,
                                    "analysis_typed_loops": 1, "compile_superinsts": 1,
                                    "trace_dropped": 0},
                  prof_s={p: 0.25 for p in ("queue", "verify", "exec", "enc", "xport", "park",
                                            "stall")},
                  natives={"native.compute": [0.5, 10], "native.deposit": [0.1, 10]},
                  hop_out_ms=[0.1, 0.2], hop_back_ms=[0.3], step_gap_ms=[1.0, 2.0])
    return sample, traced


def check_names_match_benchmark(st, rn):
    with open(BENCHMARK_JSON, encoding="utf-8") as f:
        bench = json.load(f)
    for key, declared in (("end_to_end", rn.END_TO_END), ("per_layer", rn.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in bench[key]]
        assert listed == [tuple(d) for d in declared], key
    sample, traced = fake_samples(rn)
    emitted = rn.end_to_end([sample])
    assert list(emitted) == [m["name"] for m in bench["end_to_end"]]
    emitted = rn.per_layer("mandel", traced, 1.0, 0.5, 10.0)
    assert list(emitted) == [m["name"] for m in bench["per_layer"]]
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(set(names)) == len(names), "a name is used twice"
    assert all(st.valid_name(n) for n in names + [w["name"] for w in bench["workloads"]])
    assert all(st.valid_unit(m["unit"]) for m in bench["end_to_end"] + bench["per_layer"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def check_self_times(st, rn):
    spans = [
        {"id": 0, "parent": None, "start_ns": 0, "end_ns": 100},
        {"id": 1, "parent": 0, "start_ns": 10, "end_ns": 40},
        {"id": 2, "parent": 0, "start_ns": 30, "end_ns": 60},   # overlaps span 1
        {"id": 3, "parent": 0, "start_ns": 35, "end_ns": 50},   # inside 1 and 2
        {"id": 4, "parent": 0, "start_ns": 90, "end_ns": 120},  # runs past its parent
        {"id": 5, "parent": 1, "start_ns": 12, "end_ns": 20},
    ]
    own = st.self_times(spans)
    assert own == {0: 100 - 50 - 10, 1: 30 - 8, 2: 30, 3: 15, 4: 30, 5: 8}, own


CHECKS = {
    "tail_percentile": check_tail_percentile,
    "percentile": check_percentile,
    "median_iqr": check_median_iqr,
    "name_rule": check_name_rule,
    "names_match": check_names_match_benchmark,
    "self_times": check_self_times,
}

# (file, original text, replacement, check that must kill it)
MUTANTS = [
    ("stats.py", "if n - rank(p, n) >= BEYOND:", "if n - rank(p, n) > BEYOND:", "tail_percentile"),
    ("stats.py", "TAIL_LADDER = (99.9, 99.0,", "TAIL_LADDER = (99.0,", "tail_percentile"),
    ("stats.py", "BEYOND = 10", "BEYOND = 9", "tail_percentile"),
    ("stats.py", "return max(1, math.ceil(p * n / 100.0 - 1e-9))",
     "return max(1, int(p * n / 100.0))", "percentile"),
    ("stats.py", "return max(1, math.ceil(p * n / 100.0 - 1e-9))",
     "return max(1, math.ceil(p * n / 100.0))", "percentile"),
    ("stats.py", "return sorted(values)[rank(p, len(values)) - 1]",
     "return sorted(values)[min(rank(p, len(values)), len(values) - 1)]", "percentile"),
    ("stats.py", "return statistics.median(values)", "return sorted(values)[len(values) // 2]",
     "median_iqr"),
    ("stats.py", "q1, _, q3 = statistics.quantiles(values, n=4)",
     "q1, _, q3 = statistics.quantiles(values, n=4, method='inclusive')", "median_iqr"),
    ("stats.py", "return (q3 - q1) / abs(m) if m else math.inf",
     "return (q3 - q1) / statistics.mean(values)", "median_iqr"),
    ("stats.py", r'NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")',
     r'NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,64}")', "name_rule"),
    ("stats.py", r'NAME_RE = re.compile(r"[A-Za-z0-9][',
     r'NAME_RE = re.compile(r"[A-Za-z0-9_][', "name_rule"),
    ("stats.py", "return isinstance(name, str) and NAME_RE.fullmatch(name) is not None",
     "return isinstance(name, str) and NAME_RE.match(name) is not None", "name_rule"),
    ("run.py", '    ("task_p50_ms", "ms", "lower"),\n', "", "names_match"),
    ("run.py", '"native.kernel_calls": kernel[1],', '"native.kernel_call": kernel[1],',
     "names_match"),
    ("run.py", '"trace.dropped": c["trace_dropped"],', "", "names_match"),
    ("stats.py", "                reach = b\n", "", "self_times"),
    ("stats.py", "a, b = max(c[\"start_ns\"], reach), min(c[\"end_ns\"], hi)",
     "a, b = c[\"start_ns\"], c[\"end_ns\"]", "self_times"),
]


def run_check(name, st, rn):
    try:
        CHECKS[name](st, rn)
        return None
    except Exception:  # noqa: BLE001 - any failure kills a mutant
        return traceback.format_exc(limit=1).strip().splitlines()[-1]


def main():
    sources = {"stats.py": read("stats.py"), "run.py": read("run.py")}
    real_stats = load("stats", "stats.py", sources["stats.py"])
    sys.modules["stats"] = real_stats
    real_run = load("run", "run.py", sources["run.py"])
    failures = 0
    for name in CHECKS:
        err = run_check(name, real_stats, real_run)
        print(f"check {name:<16} {'ok' if err is None else 'FAILED: ' + err}")
        failures += err is not None
    for i, (filename, original, replacement, check) in enumerate(MUTANTS):
        count = sources[filename].count(original)
        if count != 1:
            print(f"mutant {i:>2} ({check}): original text found {count} times in {filename}")
            failures += 1
            continue
        mutated = sources[filename].replace(original, replacement)
        st, rn = real_stats, real_run
        if filename == "stats.py":
            st = load("stats_mutant", filename, mutated)
        else:
            rn = load("run_mutant", filename, mutated)
        err = run_check(check, st, rn)
        print(f"mutant {i:>2} {filename}:{check:<16} "
              + ("SURVIVED" if err is None else f"killed ({err[:60]})"))
        failures += err is None
    print(f"{len(CHECKS)} checks, {len(MUTANTS)} mutants, {failures} failures")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()

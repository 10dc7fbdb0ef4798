#!/usr/bin/env bash
# Tier-1 verification, fully offline: the workspace must build, test, and
# stay formatted with no network access and no external registry
# dependencies (see "Hermetic builds" in README.md / DESIGN.md).
#
# Flags:
#   --soak   additionally run the long chaos soak test (ignored by
#            default): sustained loss + periodic crash/restart cycles.
set -euo pipefail

cd "$(dirname "$0")/.."

soak=0
for arg in "$@"; do
    case "$arg" in
        --soak) soak=1 ;;
        *) echo "unknown flag: $arg" >&2; exit 2 ;;
    esac
done

echo "== cargo metadata: path-only dependency check =="
# Every dependency must resolve from within this repository. `cargo
# metadata --offline` fails outright if anything needs the registry; the
# grep double-checks that no package outside the workspace sneaked in.
if cargo metadata --offline --format-version 1 \
    | grep -o '"source":"[^"]*"' | grep -qv '"source":""' ; then
    echo "error: non-path dependency found in cargo metadata" >&2
    exit 1
fi
echo "ok: all dependencies are workspace-local"

echo "== cargo build --release --offline =="
cargo build --release --offline --workspace

echo "== cargo test -q --offline =="
cargo test -q --offline --workspace

echo "== threads GVT liveness =="
# On threads, idle daemons kick the GVT coordinator and nothing else
# starts a round. A lost kick parks matmul for good; the timeout turns
# that stall into a failure within two minutes rather than at the
# cluster's 300 s deadline. Three runs, since a lost kick is a race.
for run in 1 2 3; do
    echo "liveness run $run/3"
    timeout 120 cargo test -q --offline --test cross_system matmul
done

echo "== lint: msgr-lint over all MSGR-C sources =="
# Static analysis of every navigation program we ship: the .mc example
# scripts plus the programs embedded in msgr-apps. Warnings are denied —
# in-tree code is the idiom reference and must stay clean.
cargo build --release --offline --bin msgr-lint
find examples -name '*.mc' -print0 \
    | xargs -0 ./target/release/msgr-lint --deny-warnings --builtin

echo "== cargo clippy -D warnings =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== chaos: fault-injection property sweep =="
# Two pinned fault seeds (regression anchors) plus one fresh seed per CI
# run. MSGR_FAULT_SEED perturbs every cluster seed in the chaos suites
# (transient faults and permanent-kill recovery); the fresh value is
# logged so a red run can be replayed exactly.
for seed in 1 424242 "$(date +%s)"; do
    echo "chaos seed: $seed (replay: MSGR_FAULT_SEED=$seed scripts/ci.sh)"
    MSGR_FAULT_SEED="$seed" cargo test -q --offline -p msgr-core --test fault_props
    MSGR_FAULT_SEED="$seed" cargo test -q --offline -p msgr-core --test recovery_props
    MSGR_FAULT_SEED="$seed" cargo test -q --offline -p msgr-core --test ctrl_props
done

echo "== control plane: consensus + gossip properties, quorum ablation (BENCH_0009) =="
# The decentralized control plane end to end: the msgr-ctrl unit and
# property suites (single-decree agreement safety, gossip convergence)
# re-run standalone, then the quorum-vs-deterministic succession
# ablation runs in smoke mode at k ∈ {1,2,3} and its output is
# schema-validated (the committed full-mode BENCH_0009.json is checked
# in the bench-artifact sweep below).
cargo test -q --offline -p msgr-ctrl
cargo build --release --offline -p msgr-bench --bin ablation_recovery
ctrl_dir="$(mktemp -d)"
./target/release/ablation_recovery --quorum --smoke > "$ctrl_dir/BENCH_0009.smoke.json"
./target/release/ablation_recovery --check "$ctrl_dir/BENCH_0009.smoke.json"
rm -rf "$ctrl_dir"
echo "ok: control plane green, quorum smoke schema-valid"

echo "== bench: local-move ablation smoke (BENCH_0006) =="
# Run the local-move ablation in smoke mode (seconds, not minutes) and
# schema-validate its output: every metric the acceptance criteria name
# (messengers/sec, hops/sec, xport p50/p99, hop and byte counters) must
# be present, parseable, and non-negative — a silently missing metric
# fails CI. The committed BENCH_0006.json is checked in the
# bench-artifact sweep below.
cargo build --release --offline -p msgr-bench --bin ablation_move
bench_dir="$(mktemp -d)"
./target/release/ablation_move --smoke > "$bench_dir/BENCH_0006.smoke.json"
./target/release/ablation_move --check "$bench_dir/BENCH_0006.smoke.json"
rm -rf "$bench_dir"
echo "ok: local-move ablation smoke schema-valid"

echo "== trace: deterministic flight-recorder smoke =="
# Record the same seeded chaos run twice (loss + a mid-run daemon kill),
# validate the JSONL (summary parses it and checks the header/schema),
# and require the two recordings to be byte-identical — the CLI face of
# the `same_seed_runs_serialize_byte_identically` property. `msgr trace`
# exits 1 on findings (invalid trace, differing runs) and 2 on internal
# errors, so any failure here fails CI.
cargo build --release --offline --bin msgr
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
trace_run() {
    ./target/release/msgr run examples/scripts/walker.mc \
        --topology examples/scripts/ring.topo --daemons 4 --inject r0:2 \
        --seed 7 --faults drop=0.05,kill=2@20 --trace "$1" >/dev/null
}
trace_run "$trace_dir/a.jsonl"
trace_run "$trace_dir/b.jsonl"
./target/release/msgr trace summary "$trace_dir/a.jsonl" >/dev/null
./target/release/msgr trace diff "$trace_dir/a.jsonl" "$trace_dir/b.jsonl"
./target/release/msgr trace chrome "$trace_dir/a.jsonl" "$trace_dir/a.chrome.json" >/dev/null
for ev in hop retransmit checkpoint restore; do
    if ! grep -q "\"ev\":\"$ev\"" "$trace_dir/a.jsonl"; then
        echo "error: chaos trace is missing \"$ev\" events" >&2
        exit 1
    fi
done
echo "ok: chaos trace is schema-valid, complete, and reproducible"

echo "== execution: CLI run + overlay-vs-interpreter ablation smoke (BENCH_0007) =="
# Daemons always run the interpreter with the compiled overlay, so every
# test above already exercised it; the 256-case differential suite
# (crates/vm/tests/diff_props.rs) holds it to the bare interpreter. Here
# the CLI gets one real run, and the in-process overlay-vs-interpreter
# ablation runs in smoke mode with its output schema-validated
# (committed BENCH_0007.json: bench-artifact sweep).
./target/release/msgr run examples/scripts/walker.mc \
    --topology examples/scripts/ring.topo --daemons 4 --inject r0:2 \
    --seed 7 >/dev/null
cargo build --release --offline -p msgr-bench --bin ablation_compile
compile_dir="$(mktemp -d)"
./target/release/ablation_compile --smoke > "$compile_dir/BENCH_0007.smoke.json"
./target/release/ablation_compile --check "$compile_dir/BENCH_0007.smoke.json"
rm -rf "$compile_dir"
echo "ok: CLI ran end to end, overlay smoke schema-valid"

echo "== analysis: interprocedural summaries end to end (BENCH_0008) =="
# The whole-program effect analysis: (a) both paper apps must be clean
# under the interprocedural lint family, checked through the
# machine-readable --json face (which doubles as its schema check);
# (b) summaries must be stable across a wire-codec roundtrip and the
# summary-guided overlay bit-equal to the interpreter (the vm property
# suite); (c) the summaries ablation runs in smoke mode with analysis
# enabled and its output schema-validated (committed BENCH_0008.json:
# bench-artifact sweep below).
lint_json="$(./target/release/msgr-lint --json --builtin)"
echo "$lint_json" | grep -q '"version":1' \
    || { echo "error: msgr-lint --json lost its schema header" >&2; exit 1; }
echo "$lint_json" | grep -q '"errors":0,"warnings":0,"diagnostics":\[\]' \
    || { echo "error: builtin paper apps are not lint-clean: $lint_json" >&2; exit 1; }
# A known-dirty program must produce a well-formed diagnostic row with
# every schema field present (code, function, pc, line, severity).
dirty_dir="$(mktemp -d)"
printf 'w() {\n    node int t;\n    t = 1;\n    t = 2;\n    hop(ll = $last);\n}\n' \
    > "$dirty_dir/dirty.mc"
dirty_json="$(./target/release/msgr-lint --json "$dirty_dir/dirty.mc")"
for field in '"code":"N303"' '"severity":"warning"' '"function":"w"' '"pc":' '"line":3'; do
    echo "$dirty_json" | grep -qF "$field" \
        || { echo "error: msgr-lint --json row missing $field: $dirty_json" >&2; exit 1; }
done
rm -rf "$dirty_dir"
cargo test -q --offline -p msgr-vm --test diff_props summaries
# Typed loops run specialized to their entry kinds; the differential
# property over generated licensed loops (edge values, unstable kinds,
# every fuel level) gets 4096 cases here instead of the default 128.
MSGR_CHECK_CASES=4096 cargo test -q --release --offline -p msgr-vm --test typed_loops \
    typed_loops_match_the_interpreter_at_every_fuel
analysis_dir="$(mktemp -d)"
./target/release/ablation_compile --summaries --smoke > "$analysis_dir/BENCH_0008.smoke.json"
./target/release/ablation_compile --check "$analysis_dir/BENCH_0008.smoke.json"
rm -rf "$analysis_dir"
echo "ok: apps lint-clean, summaries stable, typed loops exact, smoke schema-valid"

echo "== profile: cost attribution end to end (BENCH_0010) =="
# The deterministic profiler (DESIGN.md §13). Four guarantees, checked
# on the CLI surface: (a) a profiled run yields a report, a critical
# path, and non-empty folded stacks; (b) same-seed profiled runs are
# byte-identical — trace, report, and folded file; (c) profiling off is
# the status quo: two unprofiled runs are byte-identical and carry no
# profiler events, and `msgr profile` refuses them with exit 1; (d) a
# truncated flight recorder makes `msgr trace summary` exit 1. The
# profile ablation then runs in smoke mode, whose schema bounds the
# measured profiling overhead at <=5%.
prof_dir="$(mktemp -d)"
prof_run() { # $1 = out.jsonl, $2... = extra flags
    local out="$1"; shift
    ./target/release/msgr run examples/scripts/hotloop.mc \
        --topology examples/scripts/ring.topo --daemons 4 --inject r0:3,2000 \
        --seed 7 "$@" --trace "$out" >/dev/null
}
prof_run "$prof_dir/on_a.jsonl" --profile
prof_run "$prof_dir/on_b.jsonl" --profile
prof_run "$prof_dir/off_a.jsonl"
prof_run "$prof_dir/off_b.jsonl"
./target/release/msgr trace diff "$prof_dir/on_a.jsonl" "$prof_dir/on_b.jsonl"
./target/release/msgr trace diff "$prof_dir/off_a.jsonl" "$prof_dir/off_b.jsonl"
if grep -q '"ev":"phase_ledger"\|"ev":"pc_sample"' "$prof_dir/off_a.jsonl"; then
    echo "error: profiler events leaked into an unprofiled trace" >&2
    exit 1
fi
# Reports are compared without --folded: the folded trailer echoes the
# output path, which differs between the two invocations by design.
./target/release/msgr profile "$prof_dir/on_a.jsonl" > "$prof_dir/a.report"
./target/release/msgr profile "$prof_dir/on_b.jsonl" > "$prof_dir/b.report"
./target/release/msgr profile "$prof_dir/on_a.jsonl" \
    --folded "$prof_dir/a.folded" >/dev/null
./target/release/msgr profile "$prof_dir/on_b.jsonl" \
    --folded "$prof_dir/b.folded" >/dev/null
cmp -s "$prof_dir/a.report" "$prof_dir/b.report" \
    || { echo "error: same-seed profile reports differ" >&2; exit 1; }
cmp -s "$prof_dir/a.folded" "$prof_dir/b.folded" \
    || { echo "error: same-seed folded stacks differ" >&2; exit 1; }
[ -s "$prof_dir/a.folded" ] \
    || { echo "error: folded stacks are empty for a hot-loop run" >&2; exit 1; }
grep -Eq '^[^ ;]+;[^ ;]+;L[0-9]+ [0-9]+$' "$prof_dir/a.folded" \
    || { echo "error: folded stacks are not 'prog;func;Lline count' rows" >&2; exit 1; }
grep -q 'critical path' "$prof_dir/a.report" \
    || { echo "error: profile report lost its critical path" >&2; exit 1; }
if ./target/release/msgr profile "$prof_dir/off_a.jsonl" >/dev/null 2>&1; then
    echo "error: msgr profile accepted a trace with no profiler events" >&2
    exit 1
fi
# Forge a truncated recording (the header's drop count is authoritative)
# and require summary to refuse it with the findings exit code.
sed '1s/"dropped":0/"dropped":7/' "$prof_dir/off_a.jsonl" > "$prof_dir/truncated.jsonl"
if ./target/release/msgr trace summary "$prof_dir/truncated.jsonl" >/dev/null; then
    echo "error: trace summary exited 0 on a truncated recording" >&2
    exit 1
fi
cargo build --release --offline -p msgr-bench --bin ablation_profile
./target/release/ablation_profile --smoke > "$prof_dir/BENCH_0010.smoke.json"
./target/release/ablation_profile --check "$prof_dir/BENCH_0010.smoke.json"
rm -rf "$prof_dir"
echo "ok: profiler deterministic, additive, folded stacks well-formed, overhead bounded"

echo "== bench artifacts: schema-check every committed BENCH_*.json =="
# One sweep validates every committed artifact with its own checker, so
# adding BENCH_0011.json without registering a checker here fails CI
# instead of silently shipping an unvalidated artifact.
for bench in BENCH_*.json; do
    case "$bench" in
        BENCH_0006.json) checker=ablation_move ;;
        BENCH_0007.json | BENCH_0008.json) checker=ablation_compile ;;
        BENCH_0009.json) checker=ablation_recovery ;;
        BENCH_0010.json) checker=ablation_profile ;;
        *) echo "error: no schema checker registered for $bench" >&2; exit 1 ;;
    esac
    ./target/release/"$checker" --check "$bench"
    echo "ok: $bench ($checker --check)"
done

if [ "$soak" = 1 ]; then
    echo "== chaos soak (--soak) =="
    cargo test -q --offline -p msgr-core --test fault_props -- --ignored soak_
    cargo test -q --offline -p msgr-core --test recovery_props -- --ignored
    cargo test -q --offline -p msgr-core --test cluster -- --ignored
    cargo test -q --offline -p msgr-core --test ctrl_props -- --ignored
fi

echo "== cargo fmt --check =="
cargo fmt --check

echo "tier-1: all green"

//! One sample of the standing end-to-end benchmark, run in a fresh
//! process so that its peak resident memory is its own. `run.py` starts
//! these processes, interleaves them, and turns their JSON lines into
//! the benchmark's metrics.
//!
//! ```text
//! bench-e2e sample <mandel|walker|matmul> <seed> [--trace] [--ref <checksum>] [--spans <file>]
//! bench-e2e pvm <seed> --ref <checksum>      # the Fig. 2 PVM baseline on the mandel scene
//! bench-e2e ref mandel <seed>                # reference image checksum for the mandel scene
//! bench-e2e sim                              # paper-shape cost-model cell (simulated seconds)
//! bench-e2e env                              # host facts: available_parallelism
//! ```
//!
//! Every sample prints exactly one JSON line on stdout. A sample whose
//! output is wrong prints `"ok": false` with the reason; its timings are
//! not used.

mod mandel;
mod matmul;
mod sim;
mod spans;
mod walker;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use msgr_core::{ClusterConfig, ThreadCluster, ThreadReport};

use spans::{Span, Spans};

/// Daemons per cluster: one per CPU of the 2-CPU host the sizes were
/// chosen on.
pub const DAEMONS: usize = 2;

/// The default configuration users get, plus tracing and profiling for
/// the traced sample.
pub fn config(trace: bool) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(DAEMONS);
    if trace {
        cfg.trace.enabled = true;
        // Large enough that no workload's ring wraps; `trace.dropped`
        // reports it if one ever does.
        cfg.trace.capacity = 1 << 20;
        cfg.profile = true;
    }
    cfg
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)`.
pub fn unit(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// The state of the input stream `stream` drawn from `seed`.
pub fn rng(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ stream
}

/// Process CPU time (user + system, all threads) in seconds.
pub fn process_cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and the clock id is a constant the kernel
    // always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident memory of this process, in MB: `VmHWM` of its own
/// address space. (`getrusage` would also count the spawning parent's
/// pages that the address space had before `exec`.)
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib as f64 / 1024.0)
}

/// Shared shape of one sample: spans for set-up and run, the report,
/// and the workload's own latency samples.
pub struct Sample {
    pub spans: Arc<Spans>,
    setup: usize,
    pub report: Option<ThreadReport>,
    pub cpu_s: f64,
    /// Latency of each unit of work, in ms (see each workload).
    pub tasks_ms: Vec<f64>,
    /// Further latency series a workload reports, in ms.
    pub series: Vec<(&'static str, Vec<f64>)>,
}

impl Sample {
    fn new() -> Self {
        let spans = Arc::new(Spans::new());
        let setup = spans.open("setup", None);
        Sample { spans, setup, report: None, cpu_s: 0.0, tasks_ms: Vec::new(), series: Vec::new() }
    }

    /// Time one set-up step as a child of the `setup` span.
    pub fn step<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.spans.time(name, Some(self.setup), f)
    }

    /// Close set-up, run the cluster inside the `core.run` span while
    /// charging process CPU time, and reject faulted runs.
    pub fn run(&mut self, cluster: &mut ThreadCluster) -> Result<(), String> {
        self.spans.close(self.setup);
        let id = self.spans.open("core.run", None);
        self.spans.adopt_natives(id);
        let cpu0 = process_cpu_seconds();
        let result = cluster.run();
        self.cpu_s = process_cpu_seconds() - cpu0;
        self.spans.close(id);
        let report = result.map_err(|e| format!("cluster run failed: {e}"))?;
        if let Some((mid, err)) = report.faults.first() {
            return Err(format!("messenger {mid} faulted: {err}"));
        }
        self.report = Some(report);
        Ok(())
    }
}

/// Spans of one native kind, in recording order.
pub fn natives<'a>(spans: &'a [Span], name: &'static str) -> impl Iterator<Item = &'a Span> {
    spans.iter().filter(move |s| s.name == name)
}

pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn json_f64s(v: &[f64]) -> String {
    let parts: Vec<String> = v.iter().map(|x| format!("{x}")).collect();
    format!("[{}]", parts.join(", "))
}

/// Counters the metrics read from the merged `ThreadReport.stats`.
const COUNTERS: [&str; 9] = [
    "ops",
    "hops",
    "segments",
    "migrations_in",
    "migration_bytes",
    "gvt_rounds",
    "analysis_typed_loops",
    "compile_superinsts",
    "trace_dropped",
];

fn sample_json(s: &Sample, rss_mb: f64) -> String {
    let spans = s.spans.snapshot();
    let report = s.report.as_ref().expect("a finished sample has a report");
    let mut out = String::new();
    let _ = write!(out, "{{\"ok\": true, \"daemons\": {DAEMONS}");
    let _ = write!(out, ", \"run_s\": {}, \"cpu_s\": {}", report.wall_seconds, s.cpu_s);
    let _ = write!(out, ", \"peak_rss_mb\": {rss_mb}");
    let setup: Vec<String> = spans
        .iter()
        .filter(|sp| sp.parent.is_some_and(|p| spans[p].name == "setup"))
        .map(|sp| format!("\"{}_s\": {}", sp.name, (sp.end - sp.start) as f64 / 1e9))
        .collect();
    let _ = write!(out, ", \"setup\": {{{}}}", setup.join(", "));
    let _ = write!(out, ", \"tasks_ms\": {}", json_f64s(&s.tasks_ms));
    for (name, v) in &s.series {
        let _ = write!(out, ", \"{name}\": {}", json_f64s(v));
    }
    let counters: Vec<String> =
        COUNTERS.iter().map(|c| format!("\"{c}\": {}", report.stats.counter(c))).collect();
    let _ = write!(out, ", \"counters\": {{{}}}", counters.join(", "));
    let mut natives: BTreeMap<&str, (f64, u64)> = BTreeMap::new();
    for sp in spans.iter().filter(|sp| sp.daemon.is_some()) {
        let entry = natives.entry(sp.name).or_default();
        entry.0 += (sp.end - sp.start) as f64 / 1e9;
        entry.1 += 1;
    }
    let natives: Vec<String> =
        natives.iter().map(|(n, (secs, calls))| format!("\"{n}\": [{secs}, {calls}]")).collect();
    let _ = write!(out, ", \"natives\": {{{}}}", natives.join(", "));
    if let Some(trace) = &report.trace {
        let profile = msgr_prof::Profile::from_trace(trace);
        let phases: Vec<String> = msgr_prof::PHASES
            .iter()
            .zip(profile.phase_totals())
            .map(|(p, ns)| format!("\"{p}\": {}", ns as f64 / 1e9))
            .collect();
        let _ = write!(out, ", \"prof_s\": {{{}}}", phases.join(", "));
    }
    out.push('}');
    out
}

struct Args {
    positional: Vec<String>,
    trace: bool,
    reference: Option<u64>,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args { positional: Vec::new(), trace: false, reference: None, spans: None };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace" => a.trace = true,
            "--ref" => {
                let v = it.next().ok_or("--ref needs a value")?;
                a.reference = Some(v.parse().map_err(|_| format!("bad --ref {v:?}"))?);
            }
            "--spans" => a.spans = Some(it.next().ok_or("--spans needs a file")?),
            _ => a.positional.push(arg),
        }
    }
    Ok(a)
}

fn seed_arg(v: Option<&String>) -> Result<u64, String> {
    let v = v.ok_or("missing seed")?;
    v.parse().map_err(|_| format!("bad seed {v:?}"))
}

fn main() {
    if let Some((k, _)) = std::env::vars().find(|(k, _)| k.starts_with("MSGR_")) {
        eprintln!("bench-e2e: refusing to run with {k} set: it changes the program measured");
        std::process::exit(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench-e2e: {e}");
            std::process::exit(2);
        }
    };
    let p = &args.positional;
    let result = match p.first().map(String::as_str) {
        Some("sample") => {
            let workload = p.get(1).map(String::as_str).unwrap_or("");
            seed_arg(p.get(2)).and_then(|seed| {
                let mut s = Sample::new();
                let outcome = match workload {
                    "mandel" => {
                        let reference = args.reference.ok_or("mandel needs --ref")?;
                        mandel::sample(&mut s, seed, args.trace, reference)
                    }
                    "walker" => walker::sample(&mut s, seed, args.trace),
                    "matmul" => matmul::sample(&mut s, seed, args.trace),
                    other => return Err(format!("unknown workload {other:?}")),
                };
                Ok(match outcome {
                    Ok(()) => {
                        if let Some(path) = &args.spans {
                            let run = format!("{workload}-{seed}-{}", std::process::id());
                            let body = spans::to_jsonl(&run, &s.spans.snapshot());
                            if let Err(e) = std::fs::write(path, body) {
                                return Err(format!("writing spans to {path}: {e}"));
                            }
                        }
                        sample_json(&s, peak_rss_mb()?)
                    }
                    Err(e) => format!("{{\"ok\": false, \"error\": {:?}}}", e),
                })
            })
        }
        Some("pvm") => seed_arg(p.get(1)).and_then(|seed| {
            let reference = args.reference.ok_or("pvm needs --ref")?;
            mandel::pvm(seed, reference)
        }),
        Some("ref") if p.get(1).map(String::as_str) == Some("mandel") => {
            seed_arg(p.get(2)).map(|seed| format!("{{\"checksum\": {}}}", mandel::reference(seed)))
        }
        Some("sim") => Ok(sim::cell_json()),
        Some("env") => Ok(format!(
            "{{\"available_parallelism\": {}}}",
            std::thread::available_parallelism().map_or(0, |n| n.get())
        )),
        _ => Err("usage: bench-e2e sample|pvm|ref|sim|env ...".to_string()),
    };
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("bench-e2e: {e}");
            std::process::exit(2);
        }
    }
}

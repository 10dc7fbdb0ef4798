//! # msgr-bench — the evaluation harness
//!
//! One function per figure of the paper (§3.1.2, §3.2.2), each returning
//! a [`Table`] with exactly the series the paper plots. The binaries in
//! `src/bin/` print them; EXPERIMENTS.md records the measured outputs
//! next to the paper's claims. Every data point is verified (image
//! checksum / product matrix) before its timing is reported.

pub mod harness;

use std::sync::Arc;

use msgr_apps::calib::Calib;
use msgr_apps::mandel::{render_sequential, MandelScene, MandelWork};
use msgr_apps::matmul::{
    max_abs_diff, multiply_reference, sequential_seconds, test_matrix, MatmulScene,
};
use msgr_apps::{mandel_msgr, mandel_pvm, matmul_msgr, matmul_pvm};
use msgr_core::config::{VtMode, VtService};
use msgr_core::ClusterConfig;
use msgr_pvm::PvmNet;

/// A printable result table (one per figure).
#[derive(Debug, Clone)]
pub struct Table {
    /// Figure id and description.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "== {} ==", self.title)?;
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |f: &mut std::fmt::Formatter<'_>, cells: &[String]| -> std::fmt::Result {
            for (w, c) in widths.iter().zip(cells) {
                write!(f, "{c:>w$}  ", w = w)?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

fn fmt_s(v: f64) -> String {
    format!("{v:.3}")
}

/// Render a histogram's p50/p99/max as JSON fields named `<key>_p50` …,
/// or the same fields as `null` when the run never recorded the metric.
fn quantile_fields(stats: &msgr_sim::Stats, key: &str) -> String {
    match stats.histogram(key) {
        Some(h) => format!(
            "\"{key}_p50\": {}, \"{key}_p99\": {}, \"{key}_max\": {}",
            h.quantile(0.50),
            h.quantile(0.99),
            h.max()
        ),
        None => format!("\"{key}_p50\": null, \"{key}_p99\": null, \"{key}_max\": null"),
    }
}

/// When the `MSGR_BENCH_TRACE` environment variable names a directory,
/// write `run.trace`'s JSONL there as `<figure>.jsonl` (per-figure trace
/// capture for the flight-recorder tooling). Silently a no-op otherwise.
pub fn capture_trace(figure: &str, trace: Option<&msgr_core::Trace>) {
    let Ok(dir) = std::env::var("MSGR_BENCH_TRACE") else {
        return;
    };
    let Some(trace) = trace else {
        return;
    };
    let dir = std::path::PathBuf::from(dir);
    if std::fs::create_dir_all(&dir).is_ok() {
        let _ = std::fs::write(dir.join(format!("{figure}.jsonl")), trace.to_jsonl());
    }
}

/// `true` iff per-figure trace capture is requested ([`capture_trace`]).
/// Benchmarks enable `cfg.trace` only under this flag so the recorder
/// never perturbs normal timing runs.
pub fn trace_requested() -> bool {
    std::env::var("MSGR_BENCH_TRACE").is_ok()
}

/// The processor counts the paper sweeps (1 to 32).
pub const PAPER_PROCS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// One Mandelbrot figure (Figs. 4, 5, 6): runtime vs processors for the
/// three grid sizes, with the sequential-C time as reference. Series:
/// MESSENGERS, PVM.
pub fn mandel_figure(fig: &str, size: u32, procs: &[usize], grids: &[u32]) -> Table {
    let calib = Calib::default();
    let mut table = Table::new(
        format!("{fig}: Mandelbrot {size}x{size}, 512 colors, region (-2,-1.2,0.4,1.2) [seconds]"),
        &["grid", "procs", "messengers", "pvm", "seq C"],
    );
    for &grid in grids {
        let work = Arc::new(MandelWork::compute(MandelScene::paper(size, grid)));
        let (seq, expected) = render_sequential(&work, &calib);
        for &p in procs {
            let m = mandel_msgr::run_sim(&work, p, &calib, ClusterConfig::new(p))
                .expect("messengers run");
            assert_eq!(m.checksum, expected, "messengers image mismatch at {p} procs");
            let v = mandel_pvm::run_sim(&work, p, &calib, PvmNet::Ethernet100).expect("pvm run");
            assert_eq!(v.checksum, expected, "pvm image mismatch at {p} procs");
            table.row(vec![
                format!("{grid}x{grid}"),
                p.to_string(),
                fmt_s(m.seconds),
                fmt_s(v.seconds),
                fmt_s(seq),
            ]);
        }
    }
    table
}

/// Fig. 7: the most favorable case (1280×1280, 8×8 grid) — runtimes and
/// the MESSENGERS speedup over PVM and over sequential C.
pub fn fig7(procs: &[usize]) -> Table {
    let calib = Calib::default();
    let work = Arc::new(MandelWork::compute(MandelScene::paper(1280, 8)));
    let (seq, expected) = render_sequential(&work, &calib);
    let mut table = Table::new(
        "Fig. 7: Mandelbrot 1280x1280, 8x8 grid (most favorable case) [seconds]",
        &["procs", "messengers", "pvm", "seq C", "pvm/messengers", "speedup vs seq"],
    );
    for &p in procs {
        let m = mandel_msgr::run_sim(&work, p, &calib, ClusterConfig::new(p)).expect("messengers");
        assert_eq!(m.checksum, expected);
        let v = mandel_pvm::run_sim(&work, p, &calib, PvmNet::Ethernet100).expect("pvm");
        assert_eq!(v.checksum, expected);
        table.row(vec![
            p.to_string(),
            fmt_s(m.seconds),
            fmt_s(v.seconds),
            fmt_s(seq),
            format!("{:.2}", v.seconds / m.seconds),
            format!("{:.2}", seq / m.seconds),
        ]);
    }
    table
}

/// One matmul figure (Fig. 12a: m = 2 at 110 MHz; Fig. 12b: m = 3 at
/// 170 MHz): runtime vs block size. Series: MESSENGERS, PVM, naive
/// sequential, blocked sequential.
pub fn matmul_figure(fig: &str, m: u32, block_sizes: &[u32], cpu_speed: f64) -> Table {
    let calib = Calib::default();
    let mut table = Table::new(
        format!("{fig}: matrix multiplication, {m}x{m} grid ({} procs) [seconds]", m * m),
        &["block s", "n", "messengers", "pvm", "seq naive", "seq blocked"],
    );
    for &s in block_sizes {
        let scene = MatmulScene::new(m, s);
        let a = test_matrix(scene.n(), 1);
        let b = test_matrix(scene.n(), 2);
        let reference = multiply_reference(&a, &b);

        let mut cfg = ClusterConfig::new((m * m) as usize);
        cfg.cpu_speed = cpu_speed;
        let mr = matmul_msgr::run_sim(scene, &a, &b, &calib, cfg).expect("messengers matmul");
        assert!(
            max_abs_diff(&mr.product, &reference) < 1e-6,
            "messengers product mismatch at s={s}"
        );
        let pr = matmul_pvm::run_sim(
            scene,
            &a,
            &b,
            &calib,
            (m * m) as usize,
            PvmNet::Ethernet100,
            cpu_speed,
        )
        .expect("pvm matmul");
        assert!(max_abs_diff(&pr.product, &reference) < 1e-6, "pvm product mismatch at s={s}");

        let (naive, blocked) = sequential_seconds(scene, &calib);
        table.row(vec![
            s.to_string(),
            scene.n().to_string(),
            fmt_s(mr.seconds / cpu_speed.max(1e-9) * cpu_speed), // already scaled by cluster
            fmt_s(pr.seconds),
            fmt_s(naive / cpu_speed),
            fmt_s(blocked / cpu_speed),
        ]);
    }
    table
}

/// The §3.2 sequential claim: blocked ≈13% faster than naive at
/// n = 1500 in 3×3 blocks.
pub fn text_seqblock() -> Table {
    let calib = Calib::default();
    let mut table = Table::new(
        "§3.2 text: sequential naive vs block-oriented [seconds, 110 MHz]",
        &["n", "blocks", "naive", "blocked", "speedup"],
    );
    for (n, m) in [(600u32, 3u32), (900, 3), (1500, 3)] {
        let scene = MatmulScene::new(m, n / m);
        let (naive, blocked) = sequential_seconds(scene, &calib);
        table.row(vec![
            n.to_string(),
            format!("{m}x{m}"),
            fmt_s(naive),
            fmt_s(blocked),
            format!("{:.3}", naive / blocked),
        ]);
    }
    table
}

/// The §3.2.2 speedup claims: 4 procs / n=1000 → 3.7 over blocked, 4.5
/// over naive; 9 procs / n=1500 → 5.8 / 6.7.
pub fn text_speedups() -> Table {
    let calib = Calib::default();
    let mut table = Table::new(
        "§3.2.2 text: MESSENGERS speedups over the sequential algorithms",
        &["grid", "n", "messengers", "seq naive", "seq blocked", "vs blocked", "vs naive"],
    );
    for (m, s, speed) in [(2u32, 500u32, 1.0f64), (3, 500, 1.55)] {
        let scene = MatmulScene::new(m, s);
        let a = test_matrix(scene.n(), 1);
        let b = test_matrix(scene.n(), 2);
        let mut cfg = ClusterConfig::new((m * m) as usize);
        cfg.cpu_speed = speed;
        let mr = matmul_msgr::run_sim(scene, &a, &b, &calib, cfg).expect("messengers matmul");
        let (naive, blocked) = sequential_seconds(scene, &calib);
        let (naive, blocked) = (naive / speed, blocked / speed);
        table.row(vec![
            format!("{m}x{m}"),
            scene.n().to_string(),
            fmt_s(mr.seconds),
            fmt_s(naive),
            fmt_s(blocked),
            format!("{:.2}", blocked / mr.seconds),
            format!("{:.2}", naive / mr.seconds),
        ]);
    }
    table
}

/// Ablation: shared code registry vs carrying code on every migration
/// (the WAVE-style design), on the fine-grained Mandelbrot workload
/// where per-hop bytes matter most.
pub fn ablation_carrycode() -> Table {
    let calib = Calib::default();
    let work = Arc::new(MandelWork::compute(MandelScene::paper(320, 32)));
    let mut table = Table::new(
        "Ablation: shared code registry vs carry-code (Mandelbrot 320x320, 32x32 grid)",
        &["procs", "registry [s]", "carry-code [s]", "registry MB", "carry MB"],
    );
    for p in [4usize, 16] {
        let run = |carry: bool| {
            let mut cfg = ClusterConfig::new(p);
            cfg.carry_code = carry;
            mandel_msgr::run_sim(&work, p, &calib, cfg).expect("run")
        };
        let lean = run(false);
        let fat = run(true);
        table.row(vec![
            p.to_string(),
            fmt_s(lean.seconds),
            fmt_s(fat.seconds),
            format!("{:.2}", lean.stats.counter("migration_bytes") as f64 / 1e6),
            format!("{:.2}", fat.stats.counter("migration_bytes") as f64 / 1e6),
        ]);
    }
    table
}

/// Ablation: the GVT protocol's cost — matmul with the message-based
/// conservative protocol at different round intervals, and optimistic
/// Time Warp.
pub fn ablation_gvt() -> Table {
    let calib = Calib::default();
    let mut table = Table::new(
        "Ablation: virtual-time machinery (matmul 3x3, s=50, Ethernet)",
        &["mode", "gvt interval [ms]", "seconds", "gvt rounds", "rollbacks"],
    );
    let scene = MatmulScene::new(3, 50);
    let a = test_matrix(scene.n(), 1);
    let b = test_matrix(scene.n(), 2);
    let reference = multiply_reference(&a, &b);
    for (mode, interval_ms) in [
        (VtMode::Conservative, 1u64),
        (VtMode::Conservative, 5),
        (VtMode::Conservative, 20),
        (VtMode::Optimistic, 5),
    ] {
        let mut cfg = ClusterConfig::new(9);
        cfg.vt_mode = mode;
        cfg.vt_service = VtService::On;
        cfg.gvt_interval = interval_ms * 1_000_000;
        let run = matmul_msgr::run_sim(scene, &a, &b, &calib, cfg).expect("run");
        assert!(max_abs_diff(&run.product, &reference) < 1e-6);
        table.row(vec![
            format!("{mode:?}"),
            interval_ms.to_string(),
            fmt_s(run.seconds),
            run.stats.counter("gvt_rounds").to_string(),
            run.stats.counter("rollbacks").to_string(),
        ]);
    }
    table
}

/// Ablation: PVM routing via the pvmds (3.3 default) vs direct task
/// TCP routes, on the coarse Mandelbrot workload.
pub fn ablation_pvmroute() -> Table {
    let calib = Calib::default();
    let work = Arc::new(MandelWork::compute(MandelScene::paper(640, 8)));
    let mut table = Table::new(
        "Ablation: PVM pvmd store-and-forward vs direct routing (Mandelbrot 640x640, 8x8)",
        &["procs", "pvmd route [s]", "direct route [s]"],
    );
    for p in [4usize, 16] {
        let routed = mandel_pvm::run_sim(&work, p, &calib, PvmNet::Ethernet100).expect("routed");
        // Direct routing (PvmRouteDirect) is a cost-model switch.
        let direct = mandel_pvm::run_sim_routed(&work, p, &calib, PvmNet::Ethernet100, true)
            .expect("direct");
        table.row(vec![p.to_string(), fmt_s(routed.seconds), fmt_s(direct.seconds)]);
    }
    table
}

/// Ablation: the network medium — 10 Mbit shared, 100 Mbit shared
/// (calibrated default), and a full-duplex switch — for both systems on
/// the coarse Mandelbrot workload at 16 processors.
pub fn ablation_network() -> Table {
    use msgr_core::config::NetKind;
    let calib = Calib::default();
    let work = Arc::new(MandelWork::compute(MandelScene::paper(640, 8)));
    let mut table = Table::new(
        "Ablation: network medium (Mandelbrot 640x640, 8x8 grid, 16 procs)",
        &["medium", "messengers [s]", "pvm [s]"],
    );
    let cases: [(&str, NetKind, PvmNet); 3] = [
        ("10 Mbit shared", NetKind::Ethernet10, PvmNet::Ethernet10),
        ("100 Mbit shared", NetKind::Ethernet100, PvmNet::Ethernet100),
        (
            "100 Mbit switched",
            NetKind::Switched { bandwidth_bps: 100e6 },
            PvmNet::Switched { bandwidth_bps: 100e6 },
        ),
    ];
    for (name, mk, pk) in cases {
        let mut cfg = ClusterConfig::new(16);
        cfg.net = mk;
        let m = mandel_msgr::run_sim(&work, 16, &calib, cfg).expect("messengers");
        let v = mandel_pvm::run_sim(&work, 16, &calib, pk).expect("pvm");
        table.row(vec![name.to_string(), fmt_s(m.seconds), fmt_s(v.seconds)]);
    }
    table
}

/// Ablation: conservative GVT vs optimistic Time Warp across workload
/// density (the swarm individual-based simulation). Sparse swarms give
/// optimism its win; the fully synchronized matmul (see
/// [`ablation_gvt`]) is the opposing case.
pub fn ablation_timewarp() -> Table {
    use msgr_apps::swarm::{run, SwarmScene};
    let mut table = Table::new(
        "Ablation: conservative vs Time Warp on the swarm (6x6 torus, 16 ticks, 4 daemons)",
        &["ants", "conservative [s]", "time warp [s]", "rollbacks", "winner"],
    );
    for ants in [6i64, 12, 24, 48, 96] {
        let scene = SwarmScene { side: 6, ants, ticks: 16, daemons: 4 };
        let cons = run(scene, VtMode::Conservative).expect("conservative");
        let opt = run(scene, VtMode::Optimistic).expect("optimistic");
        assert_eq!(cons.field, opt.field, "modes must agree at {ants} ants");
        table.row(vec![
            ants.to_string(),
            fmt_s(cons.seconds),
            fmt_s(opt.seconds),
            opt.stats.counter("rollbacks").to_string(),
            if opt.seconds < cons.seconds { "time warp" } else { "conservative" }.to_string(),
        ]);
    }
    table
}

/// Ablation: completion time under injected frame loss, MESSENGERS vs
/// PVM on the coarse Mandelbrot workload. Returns JSON (one object per
/// loss rate) rather than a [`Table`] so the numbers can feed plots
/// directly.
///
/// Both systems see the same loss rates but recover differently: the
/// MESSENGERS transport retransmits selectively on a ~10 ms timer with
/// exponential backoff, while PVM 3.3's pvmd protocol is stop-and-wait
/// with a 250 ms retry timer that stalls the whole message. Every
/// messenger run's image checksum is asserted against the sequential
/// render — loss may slow the run but must never corrupt it
/// (exactly-once delivery).
///
/// Don't be surprised if the MESSENGERS times wobble a few percent
/// *either way* as loss rises: Mandelbrot is a dynamic task farm, so a
/// delayed frame changes which worker pulls which (variable-cost)
/// block, and the makespan moves with the reshuffle. The PVM times,
/// serialized through the manager and the 250 ms retry timer, only go
/// up.
///
/// # Panics
///
/// Panics if any run fails or produces a wrong image.
pub fn ablation_faults() -> String {
    use msgr_sim::FaultPlan;
    let calib = Calib::default();
    let procs = 8usize;
    let work = Arc::new(MandelWork::compute(MandelScene::paper(128, 8)));
    let (_, expected) = render_sequential(&work, &calib);
    let mut runs = Vec::new();
    for loss in [0.0f64, 0.01, 0.05, 0.10] {
        let mut cfg = ClusterConfig::new(procs);
        cfg.faults = FaultPlan::lossy(loss);
        if trace_requested() {
            cfg.trace = msgr_core::TraceConfig::on();
        }
        let msgr = mandel_msgr::run_sim(&work, procs, &calib, cfg).expect("messenger run");
        assert_eq!(msgr.checksum, expected, "image corrupted at loss={loss}");
        capture_trace(
            &format!("ablation_faults_loss{:02}", (loss * 100.0) as u32),
            msgr.trace.as_ref(),
        );

        let mut pcfg = msgr_pvm::PvmSimConfig::new(procs);
        pcfg.faults = FaultPlan::lossy(loss);
        let pvm = mandel_pvm::run_sim_cfg(&work, &calib, pcfg).expect("pvm run");
        assert_eq!(pvm.checksum, expected, "pvm image corrupted at loss={loss}");

        runs.push(format!(
            concat!(
                "    {{\"loss\": {:.2}, \"messengers_s\": {:.6}, \"pvm_s\": {:.6}, ",
                "\"msgr_retransmits\": {}, \"msgr_frames_lost\": {}, ",
                "\"pvm_retransmissions\": {}, {}}}"
            ),
            loss,
            msgr.seconds,
            pvm.seconds,
            msgr.stats.counter("xport_retransmits"),
            msgr.stats.counter("net_frames_lost"),
            pvm.stats.counter("retransmissions"),
            quantile_fields(&msgr.stats, "xport_delivery_ns"),
        ));
    }
    format!(
        "{{\n  \"ablation\": \"faults\",\n  \"workload\": \"mandelbrot 128x128, 8x8 grid, {procs} procs\",\n  \"runs\": [\n{}\n  ]\n}}",
        runs.join(",\n")
    )
}

/// Ablation: permanent daemon death — failure detection, failover, and
/// replay cost as a function of when the worker dies. Emits JSON.
///
/// One Mandelbrot workload, one victim daemon, kill times swept from
/// "almost at startup" to "deep into the run". Later kills lose more
/// uncheckpointed work and replay more blocks, so `seconds` degrades
/// visibly relative to the fault-free baseline while the image checksum
/// stays exact. Counters expose the recovery pipeline: `fd_deaths`
/// (detector verdicts), `restores`/`restored_*` (failover),
/// `xport_redirected` (in-flight reroute), `recovery_latency_ms`
/// (death verdict → daemon restored).
///
/// # Panics
///
/// Panics if any run fails or produces a wrong image.
pub fn ablation_recovery() -> String {
    use msgr_sim::{CrashEvent, FaultPlan, MILLI};
    let calib = Calib::default();
    let procs = 8usize;
    let work = Arc::new(MandelWork::compute(MandelScene::paper(128, 8)));
    let (_, expected) = render_sequential(&work, &calib);

    let run_with = |plan: FaultPlan| {
        let mut cfg = ClusterConfig::new(procs);
        cfg.seed = 42;
        cfg.faults = plan;
        if trace_requested() {
            cfg.trace = msgr_core::TraceConfig::on();
        }
        mandel_msgr::run_sim(&work, procs, &calib, cfg).expect("messenger run")
    };

    let baseline = run_with(FaultPlan::none());
    assert_eq!(baseline.checksum, expected, "baseline image corrupted");

    let mut runs = vec![format!(
        "    {{\"kill_at_ms\": null, \"seconds\": {:.6}, \"slowdown\": 1.0}}",
        baseline.seconds
    )];
    for at_ms in [5u64, 20, 50, 100] {
        let plan =
            FaultPlan { crashes: vec![CrashEvent::kill(3, at_ms * MILLI)], ..FaultPlan::none() };
        let r = run_with(plan);
        assert_eq!(r.checksum, expected, "image corrupted with kill at {at_ms} ms");
        assert_eq!(r.stats.counter("kills"), 1, "kill at {at_ms} ms never fired");
        assert_eq!(r.stats.counter("restores"), 1, "no failover for kill at {at_ms} ms");
        capture_trace(&format!("ablation_recovery_kill{at_ms}ms"), r.trace.as_ref());
        runs.push(format!(
            concat!(
                "    {{\"kill_at_ms\": {}, \"seconds\": {:.6}, \"slowdown\": {:.4}, ",
                "\"checkpoints\": {}, \"fd_deaths\": {}, \"evictions\": {}, ",
                "\"restored_nodes\": {}, \"restored_messengers\": {}, ",
                "\"xport_redirected\": {}, \"recovery_latency_ms\": {:.3}, {}}}"
            ),
            at_ms,
            r.seconds,
            r.seconds / baseline.seconds,
            r.stats.counter("checkpoints"),
            r.stats.counter("fd_deaths"),
            r.stats.counter("evictions"),
            r.stats.counter("restored_nodes"),
            r.stats.counter("restored_messengers"),
            r.stats.counter("xport_redirected"),
            r.stats.counter("recovery_latency_ns") as f64 / 1e6,
            quantile_fields(&r.stats, "recovery_latency_ns"),
        ));
    }
    format!(
        "{{\n  \"ablation\": \"recovery\",\n  \"workload\": \"mandelbrot 128x128, 8x8 grid, {procs} procs, kill daemon 3\",\n  \"runs\": [\n{}\n  ]\n}}",
        runs.join(",\n")
    )
}

/// BENCH_0009 — quorum succession and `k`-replicated checkpoints vs the
/// deterministic next-alive baseline. Emits JSON.
///
/// One Mandelbrot workload, one victim daemon, a sweep of kill times ×
/// cluster seeds; each `(succession, k)` configuration runs the whole
/// sweep and reports recovery-latency p50/p99 **across the sweep** (one
/// death verdict → restore latency per run) plus replication cost
/// counters. The headline numbers are the quorum/deterministic latency
/// ratios at `k = 2`: consensus adds a round of proposals and promises
/// before the heir may act, and the acceptance bar is that this costs
/// at most 3× the baseline's detector-to-restore latency (full mode).
/// Every run's image checksum is asserted against the sequential
/// render — burial by majority may be slower, never wrong.
///
/// # Panics
///
/// Panics if any run fails, produces a wrong image, or never recovers.
pub fn ablation_quorum(smoke: bool) -> String {
    use msgr_core::Succession;
    use msgr_sim::{CrashEvent, FaultPlan, MILLI};
    let calib = Calib::default();
    let procs = 8usize;
    let work = if smoke {
        Arc::new(MandelWork::compute(MandelScene::paper(64, 4)))
    } else {
        Arc::new(MandelWork::compute(MandelScene::paper(128, 8)))
    };
    let (_, expected) = render_sequential(&work, &calib);
    let kill_times: &[u64] = if smoke { &[5, 50] } else { &[5, 20, 50, 100] };
    let seeds: &[u64] = if smoke { &[42] } else { &[42, 7, 1234] };

    let quantile = |sorted: &[f64], q: f64| -> f64 {
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[idx]
    };

    let mut rows = Vec::new();
    // `(succession, k) → p50 latency` for the summary ratios.
    let mut p50 = std::collections::HashMap::new();
    for succession in [Succession::Deterministic, Succession::Quorum] {
        for k in [1usize, 2, 3] {
            let mut latencies_ms = Vec::new();
            let mut seconds = 0.0f64;
            let mut replicas = 0u64;
            let mut replica_bytes = 0u64;
            let mut gossip_merges = 0u64;
            for &seed in seeds {
                for &at_ms in kill_times {
                    let mut cfg = ClusterConfig::new(procs);
                    cfg.seed = seed;
                    cfg.succession = succession;
                    cfg.replication = k;
                    cfg.faults = FaultPlan {
                        crashes: vec![CrashEvent::kill(3, at_ms * MILLI)],
                        ..FaultPlan::none()
                    };
                    let r = mandel_msgr::run_sim(&work, procs, &calib, cfg).expect("run");
                    assert_eq!(
                        r.checksum, expected,
                        "image corrupted ({succession:?}, k={k}, kill at {at_ms} ms)"
                    );
                    assert_eq!(r.stats.counter("kills"), 1);
                    assert_eq!(
                        r.stats.counter("restores"),
                        1,
                        "no failover ({succession:?}, k={k})"
                    );
                    latencies_ms.push(r.stats.counter("recovery_latency_ns") as f64 / 1e6);
                    seconds += r.seconds;
                    replicas += r.stats.counter("ckpt_replicas");
                    replica_bytes += r.stats.counter("ckpt_replica_bytes");
                    gossip_merges += r.stats.counter("gossip_merges");
                }
            }
            latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let (lp50, lp99) = (quantile(&latencies_ms, 0.50), quantile(&latencies_ms, 0.99));
            p50.insert((succession, k), lp50);
            let name = match succession {
                Succession::Deterministic => "deterministic",
                Succession::Quorum => "quorum",
            };
            rows.push(format!(
                concat!(
                    "    {{\"succession\": \"{}\", \"replication\": {}, \"runs\": {}, ",
                    "\"recovery_latency_ms_p50\": {:.3}, \"recovery_latency_ms_p99\": {:.3}, ",
                    "\"mean_seconds\": {:.6}, \"ckpt_replicas\": {}, ",
                    "\"ckpt_replica_bytes\": {}, \"gossip_merges\": {}}}"
                ),
                name,
                k,
                latencies_ms.len(),
                lp50,
                lp99,
                seconds / latencies_ms.len() as f64,
                replicas,
                replica_bytes,
                gossip_merges,
            ));
        }
    }
    let ratio = |k: usize| p50[&(Succession::Quorum, k)] / p50[&(Succession::Deterministic, k)];
    format!(
        concat!(
            "{{\n  \"bench\": \"BENCH_0009\",\n  \"ablation\": \"quorum\",\n",
            "  \"mode\": \"{}\",\n",
            "  \"workload\": \"mandelbrot {}, {} procs, kill daemon 3 at {:?} ms x seeds {:?}\",\n",
            "  \"rows\": [\n{}\n  ],\n",
            "  \"latency_ratio_p50_k1\": {:.4},\n",
            "  \"latency_ratio_p50_k2\": {:.4},\n",
            "  \"latency_ratio_p50_k3\": {:.4}\n}}"
        ),
        if smoke { "smoke" } else { "full" },
        if smoke { "64x64, 4x4 grid" } else { "128x128, 8x8 grid" },
        procs,
        kill_times,
        seeds,
        rows.join(",\n"),
        ratio(1),
        ratio(2),
        ratio(3),
    )
}

/// Schema check for a `BENCH_0009.json` produced by [`ablation_quorum`]:
/// required keys present, both succession modes recorded at `k` ∈
/// {1, 2, 3}, every latency and counter finite and non-negative, the
/// quorum rows actually replicated checkpoints, and — for a
/// `"mode": "full"` file — the `k = 2` quorum/deterministic p50 latency
/// ratio at most 3×.
///
/// # Errors
///
/// A human-readable description of the first violation found.
pub fn validate_bench_0009(json: &str) -> Result<(), String> {
    fn number_after(json: &str, key: &str, from: usize) -> Result<f64, String> {
        let pat = format!("\"{key}\":");
        let at = json[from..]
            .find(&pat)
            .map(|i| from + i + pat.len())
            .ok_or_else(|| format!("missing key {key:?}"))?;
        let rest = json[at..].trim_start();
        let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
        let tok = rest[..end].trim();
        if tok == "null" {
            return Err(format!("key {key:?} is null"));
        }
        tok.parse::<f64>().map_err(|_| format!("key {key:?} holds non-number {tok:?}"))
    }

    if !json.contains("\"bench\": \"BENCH_0009\"") {
        return Err("missing \"bench\": \"BENCH_0009\"".to_string());
    }
    for key in ["ablation", "mode", "workload", "rows"] {
        if !json.contains(&format!("\"{key}\":")) {
            return Err(format!("missing key {key:?}"));
        }
    }
    for succession in ["deterministic", "quorum"] {
        if !json.contains(&format!("\"succession\": \"{succession}\"")) {
            return Err(format!("missing rows for succession {succession:?}"));
        }
    }
    for k in [1, 2, 3] {
        if !json.contains(&format!("\"replication\": {k},")) {
            return Err(format!("missing rows for replication k={k}"));
        }
    }
    let mut max_replicas = 0.0f64;
    for key in [
        "recovery_latency_ms_p50",
        "recovery_latency_ms_p99",
        "mean_seconds",
        "ckpt_replicas",
        "ckpt_replica_bytes",
        "gossip_merges",
    ] {
        let pat = format!("\"{key}\":");
        let mut from = 0usize;
        let mut seen = false;
        while let Some(i) = json[from..].find(&pat) {
            let at = from + i;
            let v = number_after(json, key, at)?;
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("field {key:?} is negative or non-finite: {v}"));
            }
            if key == "ckpt_replicas" {
                max_replicas = max_replicas.max(v);
            }
            seen = true;
            from = at + pat.len();
        }
        if !seen {
            return Err(format!("missing field {key:?}"));
        }
    }
    if max_replicas < 1.0 {
        return Err("no row records a pushed replica — write-ahead replication never ran".into());
    }
    for key in ["latency_ratio_p50_k1", "latency_ratio_p50_k2", "latency_ratio_p50_k3"] {
        let v = number_after(json, key, 0)?;
        if v <= 0.0 {
            return Err(format!("{key} must be positive, got {v}"));
        }
    }
    let k2 = number_after(json, "latency_ratio_p50_k2", 0)?;
    if json.contains("\"mode\": \"full\"") && k2 > 3.0 {
        return Err(format!(
            "full-mode k=2 quorum/deterministic p50 latency ratio {k2:.3} above the 3x bar"
        ));
    }
    Ok(())
}

/// BENCH_0006 — local-move hops.
///
/// Two workloads, one JSON file:
///
/// * **threads / ring**: walkers circulate a ring whose nodes are placed
///   in contiguous per-daemon blocks, each carrying a payload string —
///   so most hops are same-daemon and encode/decode cost is visible.
///   Run once as the `baseline` (default config) and once with
///   `local_move` on; the messengers/sec ratio between the two rows is
///   the headline speedup and must reach ≥1.5× in full mode.
/// * **sim / lossy ring**: the same ring under 5% frame loss with the
///   reliable transport at the default config, recording the xport
///   delivery p50/p99.
///
/// Every data point is verified before its timing is reported (visit
/// counts), mirroring the rest of this harness.
///
/// # Panics
///
/// Panics if any run fails or any verification count is off.
pub fn ablation_move(smoke: bool) -> String {
    use msgr_core::topology::LogicalTopology;
    use msgr_core::{DaemonId, ThreadCluster};
    use msgr_sim::FaultPlan;
    use msgr_vm::{Dir, Value};

    const MOVE_WALK: &str = r#"
    movewalk(passes, payload) {
        int i = 0;
        node int visits;
        visits = visits + 1;
        while (i < passes) {
            hop(ll = "ring"; ldir = +);
            visits = visits + 1;
            i = i + 1;
        }
    }
    "#;

    let daemons = 4usize;
    let (nodes, walkers, passes, payload_len) =
        if smoke { (16usize, 16usize, 12i64, 512usize) } else { (64, 256, 192, 4096) };
    let repeats = if smoke { 1 } else { 3 };

    let ring_topo = |nodes: usize| {
        let block = nodes.div_ceil(daemons);
        let mut topo = LogicalTopology::new();
        for i in 0..nodes {
            topo.node(Value::str(format!("p{i}")), DaemonId((i / block) as u16));
        }
        for i in 0..nodes {
            topo.link(
                Value::str(format!("p{i}")),
                Value::str(format!("p{}", (i + 1) % nodes)),
                Value::str("ring"),
                Dir::Forward,
            );
        }
        topo
    };
    let move_cfg = |local_move: bool| {
        let mut cfg = ClusterConfig::new(daemons);
        cfg.seed = 42;
        cfg.local_move = local_move;
        cfg
    };
    let payload = Value::str("x".repeat(payload_len));

    // One verified threads ring run; returns (wall seconds, merged stats).
    let ring_threads = |local_move: bool| {
        let mut cluster = ThreadCluster::new(move_cfg(local_move)).expect("threads cluster");
        cluster.build(&ring_topo(nodes)).expect("build ring");
        let pid = cluster.register_program(&msgr_lang::compile(MOVE_WALK).expect("compile"));
        for m in 0..walkers {
            cluster
                .inject_at(
                    &Value::str(format!("p{}", m % nodes)),
                    pid,
                    &[Value::Int(passes), payload.clone()],
                )
                .expect("inject");
        }
        let rep = cluster.run().expect("threads run");
        assert!(rep.faults.is_empty(), "ring faults: {:?}", rep.faults);
        let mut visits = 0i64;
        for i in 0..nodes {
            if let Some(Value::Int(v)) =
                cluster.node_var_by_name(&Value::str(format!("p{i}")), "visits")
            {
                visits += v;
            }
        }
        assert_eq!(
            visits,
            walkers as i64 * (passes + 1),
            "ring visits wrong (local_move={local_move})"
        );
        (rep.wall_seconds, rep.stats)
    };
    // Best-of-N to shave scheduler noise off the wall-clock rows.
    let ring_best = |local_move: bool| {
        let mut best: Option<(f64, msgr_sim::Stats)> = None;
        for _ in 0..repeats {
            let (w, s) = ring_threads(local_move);
            if best.as_ref().is_none_or(|(bw, _)| w < *bw) {
                best = Some((w, s));
            }
        }
        best.expect("at least one repeat")
    };

    let ring_row = |config: &str, local_move: bool, wall: f64, stats: &msgr_sim::Stats| {
        let retired = stats.counter("terminated");
        let hops = stats.counter("hops");
        format!(
            concat!(
                "    {{\"platform\": \"threads\", \"workload\": \"ring\", \"config\": \"{}\", ",
                "\"local_move\": {}, \"wall_seconds\": {:.6}, \"messengers_per_sec\": {:.1}, ",
                "\"hops_per_sec\": {:.1}, \"hops\": {}, \"retired\": {}, \"migration_bytes\": {}}}"
            ),
            config,
            local_move,
            wall,
            retired as f64 / wall.max(1e-9),
            hops as f64 / wall.max(1e-9),
            hops,
            retired,
            stats.counter("migration_bytes"),
        )
    };

    let (base_wall, base_stats) = ring_best(false);
    let (move_wall, move_stats) = ring_best(true);
    let base_rate = base_stats.counter("terminated") as f64 / base_wall.max(1e-9);
    let move_rate = move_stats.counter("terminated") as f64 / move_wall.max(1e-9);
    let speedup = move_rate / base_rate.max(1e-9);

    // Sim row: the same ring under 5% loss, reliable transport — the
    // delivery-latency quantiles.
    let sim_row = {
        let (sim_nodes, sim_walkers, sim_passes) =
            if smoke { (8usize, 4usize, 10i64) } else { (16, 8, 30) };
        let mut cfg = move_cfg(false);
        cfg.faults = FaultPlan::lossy(0.05);
        let mut cluster = msgr_core::SimCluster::new(cfg);
        cluster.build(&ring_topo(sim_nodes)).expect("build sim ring");
        let pid = cluster.register_program(&msgr_lang::compile(MOVE_WALK).expect("compile"));
        for m in 0..sim_walkers {
            cluster
                .inject_at(
                    &Value::str(format!("p{}", m % sim_nodes)),
                    pid,
                    &[Value::Int(sim_passes), Value::str("x".repeat(256))],
                )
                .expect("inject");
        }
        let rep = cluster.run().expect("sim run");
        assert!(rep.faults.is_empty(), "sim faults: {:?}", rep.faults);
        assert_eq!(rep.stats.counter("xport_gave_up"), 0);
        format!(
            concat!(
                "    {{\"platform\": \"sim\", \"workload\": \"lossy_ring\", ",
                "\"config\": \"default\", \"local_move\": false, \"loss\": 0.05, ",
                "\"sim_seconds\": {:.6}, \"hops\": {}, \"retired\": {}, ",
                "\"xport_retransmits\": {}, {}}}"
            ),
            rep.sim_seconds,
            rep.stats.counter("hops"),
            rep.stats.counter("terminated"),
            rep.stats.counter("xport_retransmits"),
            quantile_fields(&rep.stats, "xport_delivery_ns"),
        )
    };

    let base_row = ring_row("baseline", false, base_wall, &base_stats);
    let move_row = ring_row("local_move", true, move_wall, &move_stats);
    format!(
        concat!(
            "{{\n  \"bench\": \"BENCH_0006\",\n  \"ablation\": \"move\",\n",
            "  \"mode\": \"{}\",\n",
            "  \"workload\": \"ring {} nodes x {} walkers x {} hops (payload {} B), ",
            "{} daemons\",\n",
            "  \"rows\": [\n{},\n{},\n{}\n  ],\n",
            "  \"speedup_messengers_per_sec\": {:.3}\n}}"
        ),
        if smoke { "smoke" } else { "full" },
        nodes,
        walkers,
        passes,
        payload_len,
        daemons,
        base_row,
        move_row,
        sim_row,
        speedup,
    )
}

/// Schema check for a `BENCH_0006.json` produced by [`ablation_move`]:
/// required top-level and per-row keys present, every counter
/// non-negative and parseable, and — for a `"mode": "full"` file — the
/// recorded threads speedup at least 1.5×.
///
/// # Errors
///
/// A human-readable description of the first violation found.
pub fn validate_bench_0006(json: &str) -> Result<(), String> {
    fn number_after(json: &str, key: &str, from: usize) -> Result<f64, String> {
        let pat = format!("\"{key}\":");
        let at = json[from..]
            .find(&pat)
            .map(|i| from + i + pat.len())
            .ok_or_else(|| format!("missing key {key:?}"))?;
        let rest = json[at..].trim_start();
        let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
        let tok = rest[..end].trim();
        if tok == "null" {
            return Err(format!("key {key:?} is null"));
        }
        tok.parse::<f64>().map_err(|_| format!("key {key:?} holds non-number {tok:?}"))
    }

    if !json.contains("\"bench\": \"BENCH_0006\"") {
        return Err("missing \"bench\": \"BENCH_0006\"".to_string());
    }
    for key in ["ablation", "mode", "workload", "rows"] {
        if !json.contains(&format!("\"{key}\":")) {
            return Err(format!("missing key {key:?}"));
        }
    }
    // Rate metrics must exist somewhere in the rows.
    for key in
        ["messengers_per_sec", "hops_per_sec", "xport_delivery_ns_p50", "xport_delivery_ns_p99"]
    {
        number_after(json, key, 0)?;
    }
    // Counters: every occurrence parses and is non-negative.
    for key in ["hops", "retired", "migration_bytes", "xport_retransmits"] {
        let pat = format!("\"{key}\":");
        let mut from = 0usize;
        let mut seen = false;
        while let Some(i) = json[from..].find(&pat) {
            let at = from + i;
            let v = number_after(json, key, at)?;
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("counter {key:?} is negative or non-finite: {v}"));
            }
            seen = true;
            from = at + pat.len();
        }
        if !seen {
            return Err(format!("missing counter {key:?}"));
        }
    }
    let speedup = number_after(json, "speedup_messengers_per_sec", 0)?;
    if json.contains("\"mode\": \"full\"") && speedup < 1.5 {
        return Err(format!("full-mode speedup {speedup:.3} below the 1.5x acceptance bar"));
    }
    if speedup <= 0.0 {
        return Err(format!("speedup must be positive, got {speedup}"));
    }
    Ok(())
}

// The Douady-rabbit parameter keeps the orbit bounded, so the floats
// stay finite and every iteration does real arithmetic. Shared by
// BENCH_0007 (overlay vs interpreter) and BENCH_0008 (summaries on vs off):
// both inner loops are call-free, counted, and Add/Sub/Mul-only, so the
// interprocedural analysis licenses the typed-loop fusion on them.
const MANDEL_LOOP: &str = r#"
    mloop(passes, iters) {
        int i = 0;
        int k;
        float zr; float zi; float cr; float ci; float t;
        float acc = 0.0;
        node float field;
        node int visits;
        visits = visits + 1;
        while (i < passes) {
            cr = 0.0 - 0.1226;
            ci = 0.7449;
            zr = 0.0;
            zi = 0.0;
            k = 0;
            while (k < iters) {
                t = zr * zr - zi * zi + cr;
                zi = 2.0 * zr * zi + ci;
                zr = t;
                k = k + 1;
            }
            acc = acc + zr + zi;
            hop(ll = "ring"; ldir = +);
            field = field + acc;
            visits = visits + 1;
            i = i + 1;
        }
    }
    "#;
const MATMUL_LOOP: &str = r#"
    dloop(passes, n) {
        int i = 0;
        int k;
        float sum; float aa; float bb;
        node float cell;
        node int visits;
        visits = visits + 1;
        while (i < passes) {
            sum = 0.0;
            aa = 1.25;
            bb = 0.75;
            k = 0;
            while (k < n) {
                sum = sum + aa * bb;
                aa = aa + 0.125;
                bb = bb - 0.0625;
                k = k + 1;
            }
            hop(ll = "ring"; ldir = +);
            cell = cell + sum;
            visits = visits + 1;
            i = i + 1;
        }
    }
    "#;

/// BENCH_0007 — the compiled overlay vs the bare interpreter.
///
/// Two ring-walker workloads whose per-hop segment is a tight arithmetic
/// inner loop written in MSGR-C — the shapes the overlay's
/// superinstructions target:
///
/// * **mandel_loop**: the Mandelbrot escape iteration (`z = z² + c` on
///   a bounded orbit) — float mul/add chains through locals, a
///   compare-and-branch loop head, and a fused `load/hop`.
/// * **matmul_loop**: a dot-product accumulation (`sum += a·b` with
///   strided updates) — the matmul block kernel's inner shape.
///
/// Daemons always run `compile::run`, so the comparison is made in
/// process, on one thread: every walker runs its segments back to back
/// against one [`msgr_vm::MapEnv`] node (each `hop` yield resumes the
/// same state, as an arrival would), once through `interp::run` and
/// once through `compile::run` with the plain overlay (no effect
/// summaries — BENCH_0008 measures those). Before any timing is
/// reported the two engines must agree on every yield, every messenger
/// state after every segment, the ops charge, and the final node
/// variables bit for bit — the bench refuses to time engines that
/// disagree. Timed passes alternate which engine goes first; each row
/// is the engine's best pass.
///
/// The headline `speedup_min_hops_per_sec` is the *worst*
/// compiled/interp hops-per-sec ratio across the workloads and must
/// reach ≥3× in full mode.
///
/// # Panics
///
/// Panics if any run fails, the hop count is off, or the two engines
/// disagree.
pub fn ablation_compile(smoke: bool) -> String {
    use msgr_vm::{compile, interp, MapEnv, MessengerId, MessengerState, Program, Value, Yield};

    let (walkers, passes, iters) = if smoke { (8usize, 6i64, 64i64) } else { (32, 64, 1024) };
    let repeats = if smoke { 1 } else { 3 };

    // Run every walker to termination through `exec`; the messenger
    // state after each segment goes to `seen`. Returns the node.
    type Exec<'a> =
        dyn Fn(&mut MessengerState, &mut MapEnv) -> Result<Yield, msgr_vm::VmError> + 'a;
    let walk =
        |program: &Program, exec: &Exec<'_>, seen: &mut dyn FnMut(&Yield, &MessengerState)| {
            let mut env = MapEnv::new();
            let mut hops = 0u64;
            for w in 0..walkers {
                let mut m = MessengerState::launch(
                    program,
                    MessengerId(w as u64),
                    &[Value::Int(passes), Value::Int(iters)],
                )
                .expect("launch");
                loop {
                    let y = exec(&mut m, &mut env).expect("segment");
                    seen(&y, &m);
                    match y {
                        Yield::Hop(_) => hops += 1,
                        Yield::Terminated(_) => break,
                        other => panic!("unexpected yield {other:?}"),
                    }
                }
            }
            assert_eq!(hops, walkers as u64 * passes as u64, "hop count wrong");
            env
        };
    let hops = walkers as u64 * passes as u64;
    let fuel = interp::DEFAULT_FUEL;

    let row = |workload: &str, engine: &str, wall: f64, ops: u64, cp: &compile::CompiledProgram| {
        format!(
            concat!(
                "    {{\"platform\": \"in-process\", \"workload\": \"{}\", \"engine\": \"{}\", ",
                "\"wall_seconds\": {:.6}, \"hops_per_sec\": {:.1}, \"ops_per_sec\": {:.1}, ",
                "\"hops\": {}, \"ops\": {}, \"compile_superinsts\": {}, \"compile_steps\": {}}}"
            ),
            workload,
            engine,
            wall,
            hops as f64 / wall.max(1e-9),
            ops as f64 / wall.max(1e-9),
            hops,
            ops,
            cp.superinstructions(),
            cp.steps(),
        )
    };

    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    for (name, script) in [("mandel_loop", MANDEL_LOOP), ("matmul_loop", MATMUL_LOOP)] {
        let program = msgr_lang::compile(script).expect("compile");
        let cp = compile::compile(&program).expect("overlay compiles");
        assert!(cp.superinstructions() > 0, "{name}: no superinstructions formed");
        let run_interp =
            |m: &mut MessengerState, env: &mut MapEnv| interp::run(&program, m, env, fuel);
        let run_compiled =
            |m: &mut MessengerState, env: &mut MapEnv| compile::run(&cp, &program, m, env, fuel);

        // Equality gate: the interpreter's trail of (yield, state) pairs
        // must be reproduced exactly by the overlay.
        let mut trail = Vec::new();
        let ei = walk(&program, &run_interp, &mut |y, m| trail.push((y.clone(), m.clone())));
        let mut at = 0usize;
        let ec = walk(&program, &run_compiled, &mut |y, m| {
            assert!(
                trail[at] == (y.clone(), m.clone()),
                "{name}: engines disagree at segment {at}"
            );
            at += 1;
        });
        assert_eq!(at, trail.len(), "{name}: engines ran different segment counts");
        assert_eq!(ei.ops, ec.ops, "{name}: engines disagree on the ops charge");
        let bits = |env: &MapEnv| -> std::collections::BTreeMap<String, u64> {
            let bits = |v: &Value| match v {
                Value::Float(f) => f.to_bits(),
                Value::Int(i) => *i as u64,
                _ => u64::MAX,
            };
            env.vars.iter().map(|(k, v)| (k.clone(), bits(v))).collect()
        };
        assert_eq!(bits(&ei), bits(&ec), "{name}: engines disagree on node variables");

        let time = |exec: &Exec<'_>| {
            let t0 = std::time::Instant::now();
            let env = walk(&program, exec, &mut |_, _| {});
            (t0.elapsed().as_secs_f64(), env.ops)
        };
        let mut best_i = (f64::INFINITY, 0);
        let mut best_c = (f64::INFINITY, 0);
        for r in 0..repeats {
            let (i, c) = if r % 2 == 0 {
                let i = time(&run_interp);
                (i, time(&run_compiled))
            } else {
                let c = time(&run_compiled);
                (time(&run_interp), c)
            };
            if i.0 < best_i.0 {
                best_i = i;
            }
            if c.0 < best_c.0 {
                best_c = c;
            }
        }
        rows.push(row(name, "interp", best_i.0, best_i.1, &cp));
        rows.push(row(name, "compiled", best_c.0, best_c.1, &cp));
        speedups.push((name, best_i.0 / best_c.0.max(1e-9)));
    }
    let min_speedup = speedups.iter().map(|&(_, s)| s).fold(f64::INFINITY, f64::min);

    format!(
        concat!(
            "{{\n  \"bench\": \"BENCH_0007\",\n  \"ablation\": \"compile\",\n",
            "  \"mode\": \"{}\",\n",
            "  \"workload\": \"{} walkers x {} hops, {} inner iters/hop, ",
            "in process on one thread\",\n",
            "  \"rows\": [\n{}\n  ],\n",
            "  \"speedup_mandel_hops_per_sec\": {:.3},\n",
            "  \"speedup_matmul_hops_per_sec\": {:.3},\n",
            "  \"speedup_min_hops_per_sec\": {:.3}\n}}"
        ),
        if smoke { "smoke" } else { "full" },
        walkers,
        passes,
        iters,
        rows.join(",\n"),
        speedups[0].1,
        speedups[1].1,
        min_speedup,
    )
}

/// Schema check for a `BENCH_0007.json` produced by [`ablation_compile`]:
/// required top-level and per-row keys present, both engines recorded for
/// both workloads, every counter non-negative and parseable, and — for a
/// `"mode": "full"` file — the recorded worst-case compiled/interp
/// hops-per-sec speedup at least 3×.
///
/// # Errors
///
/// A human-readable description of the first violation found.
pub fn validate_bench_0007(json: &str) -> Result<(), String> {
    fn number_after(json: &str, key: &str, from: usize) -> Result<f64, String> {
        let pat = format!("\"{key}\":");
        let at = json[from..]
            .find(&pat)
            .map(|i| from + i + pat.len())
            .ok_or_else(|| format!("missing key {key:?}"))?;
        let rest = json[at..].trim_start();
        let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
        let tok = rest[..end].trim();
        if tok == "null" {
            return Err(format!("key {key:?} is null"));
        }
        tok.parse::<f64>().map_err(|_| format!("key {key:?} holds non-number {tok:?}"))
    }

    if !json.contains("\"bench\": \"BENCH_0007\"") {
        return Err("missing \"bench\": \"BENCH_0007\"".to_string());
    }
    for key in ["ablation", "mode", "workload", "rows"] {
        if !json.contains(&format!("\"{key}\":")) {
            return Err(format!("missing key {key:?}"));
        }
    }
    // Both engines must appear for both workloads — the artifact records
    // the interpreter baseline next to the compiled numbers by design.
    for workload in ["mandel_loop", "matmul_loop"] {
        if !json.contains(&format!("\"workload\": \"{workload}\"")) {
            return Err(format!("missing rows for workload {workload:?}"));
        }
    }
    for engine in ["interp", "compiled"] {
        if !json.contains(&format!("\"engine\": \"{engine}\"")) {
            return Err(format!("missing rows for engine {engine:?}"));
        }
    }
    // Rate metrics must exist somewhere in the rows.
    for key in ["hops_per_sec", "ops_per_sec", "wall_seconds"] {
        number_after(json, key, 0)?;
    }
    // Counters: every occurrence parses and is non-negative.
    for key in ["hops", "ops", "compile_superinsts", "compile_steps"] {
        let pat = format!("\"{key}\":");
        let mut from = 0usize;
        let mut seen = false;
        while let Some(i) = json[from..].find(&pat) {
            let at = from + i;
            let v = number_after(json, key, at)?;
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("counter {key:?} is negative or non-finite: {v}"));
            }
            seen = true;
            from = at + pat.len();
        }
        if !seen {
            return Err(format!("missing counter {key:?}"));
        }
    }
    for key in ["speedup_mandel_hops_per_sec", "speedup_matmul_hops_per_sec"] {
        let v = number_after(json, key, 0)?;
        if v <= 0.0 {
            return Err(format!("{key} must be positive, got {v}"));
        }
    }
    let min_speedup = number_after(json, "speedup_min_hops_per_sec", 0)?;
    if json.contains("\"mode\": \"full\"") && min_speedup < 3.0 {
        return Err(format!(
            "full-mode worst-case speedup {min_speedup:.3} below the 3x acceptance bar"
        ));
    }
    if min_speedup <= 0.0 {
        return Err(format!("speedup must be positive, got {min_speedup}"));
    }
    Ok(())
}

/// BENCH_0008 — summary-guided compilation vs plain compilation.
///
/// The interprocedural-analysis ablation: the same two ring-walker
/// workloads as BENCH_0007 on the threads platform, with the
/// whole-program effect analysis toggled per run
/// (`ClusterConfig::analysis`). Summaries license the typed register
/// loop (unboxed `i64`/`f64` execution of the proven-pure counted
/// inner loops), call fusion, and Time-Warp snapshot elision; with
/// analysis off the overlay is compiled without them.
///
/// An equality gate like BENCH_0007's applies before timing: a
/// sim-platform run under each configuration must produce bit-identical
/// node-variable state and simulated clock — analysis is an
/// optimization fact table, never an observable.
///
/// The headline `speedup_min_hops_per_sec` is the worst
/// summaries-on/summaries-off hops-per-sec ratio across the workloads
/// and must reach ≥1.15× in full mode (this PR's acceptance bar).
///
/// # Panics
///
/// Panics if any run fails, verification counts are off, the two
/// configurations disagree on sim-platform state, or the summaries-on
/// runs never exercised the analysis (no summaries, no typed loops).
pub fn ablation_summaries(smoke: bool) -> String {
    use msgr_core::topology::LogicalTopology;
    use msgr_core::{DaemonId, SimCluster, ThreadCluster};
    use msgr_vm::{Dir, Value};

    let daemons = 4usize;
    let (nodes, walkers, passes, iters) =
        if smoke { (8usize, 8usize, 6i64, 64i64) } else { (16, 32, 64, 1024) };
    let repeats = if smoke { 1 } else { 3 };

    let ring_topo = |nodes: usize| {
        let block = nodes.div_ceil(daemons);
        let mut topo = LogicalTopology::new();
        for i in 0..nodes {
            topo.node(Value::str(format!("p{i}")), DaemonId((i / block) as u16));
        }
        for i in 0..nodes {
            topo.link(
                Value::str(format!("p{i}")),
                Value::str(format!("p{}", (i + 1) % nodes)),
                Value::str("ring"),
                Dir::Forward,
            );
        }
        topo
    };
    let cfg_for = |analysis: bool| {
        let mut cfg = ClusterConfig::new(daemons);
        cfg.seed = 42;
        cfg.analysis = analysis;
        cfg
    };
    let fnv = |h: &mut u64, bytes: &[u8]| {
        for &b in bytes {
            *h = (*h ^ b as u64).wrapping_mul(0x100000001b3);
        }
    };

    // Deterministic gate: summaries must not be observable. Run on the
    // sim platform with analysis on/off and digest every node-variable
    // bit plus the simulated clock.
    let sim_digest = |script: &str, analysis: bool| -> u64 {
        let (d_nodes, d_walkers, d_passes, d_iters) = (8usize, 4usize, 4i64, iters.min(128));
        let mut cluster = SimCluster::new(cfg_for(analysis));
        cluster.build(&ring_topo(d_nodes)).expect("build sim ring");
        let pid = cluster.register_program(&msgr_lang::compile(script).expect("compile"));
        for m in 0..d_walkers {
            cluster
                .inject_at(
                    &Value::str(format!("p{}", m % d_nodes)),
                    pid,
                    &[Value::Int(d_passes), Value::Int(d_iters)],
                )
                .expect("inject");
        }
        let rep = cluster.run().expect("sim run");
        assert!(rep.faults.is_empty(), "sim faults: {:?}", rep.faults);
        let mut h: u64 = 0xcbf29ce484222325;
        fnv(&mut h, &rep.sim_seconds.to_bits().to_le_bytes());
        for i in 0..d_nodes {
            for var in ["field", "cell", "visits"] {
                match cluster.node_var_by_name(&Value::str(format!("p{i}")), var) {
                    Some(Value::Float(f)) => fnv(&mut h, &f.to_bits().to_le_bytes()),
                    Some(Value::Int(v)) => fnv(&mut h, &v.to_le_bytes()),
                    _ => fnv(&mut h, &[0xFF]),
                }
            }
        }
        h
    };

    let run_threads = |script: &str, analysis: bool| {
        let mut cluster = ThreadCluster::new(cfg_for(analysis)).expect("threads cluster");
        cluster.build(&ring_topo(nodes)).expect("build ring");
        let pid = cluster.register_program(&msgr_lang::compile(script).expect("compile"));
        for m in 0..walkers {
            cluster
                .inject_at(
                    &Value::str(format!("p{}", m % nodes)),
                    pid,
                    &[Value::Int(passes), Value::Int(iters)],
                )
                .expect("inject");
        }
        let rep = cluster.run().expect("threads run");
        assert!(rep.faults.is_empty(), "ring faults: {:?}", rep.faults);
        let mut visits = 0i64;
        for i in 0..nodes {
            if let Some(Value::Int(v)) =
                cluster.node_var_by_name(&Value::str(format!("p{i}")), "visits")
            {
                visits += v;
            }
        }
        assert_eq!(
            visits,
            walkers as i64 * (passes + 1),
            "visit count wrong (analysis={analysis})"
        );
        (rep.wall_seconds, rep.stats)
    };
    let best_of = |script: &str, analysis: bool| {
        let mut best: Option<(f64, msgr_sim::Stats)> = None;
        for _ in 0..repeats {
            let (w, s) = run_threads(script, analysis);
            if best.as_ref().is_none_or(|(bw, _)| w < *bw) {
                best = Some((w, s));
            }
        }
        best.expect("at least one repeat")
    };

    let row = |workload: &str, engine: &str, wall: f64, stats: &msgr_sim::Stats| {
        let hops = stats.counter("hops");
        let ops = stats.counter("ops");
        format!(
            concat!(
                "    {{\"platform\": \"threads\", \"workload\": \"{}\", \"engine\": \"{}\", ",
                "\"wall_seconds\": {:.6}, \"hops_per_sec\": {:.1}, \"ops_per_sec\": {:.1}, ",
                "\"hops\": {}, \"ops\": {}, \"analysis_summaries\": {}, ",
                "\"analysis_inlined_calls\": {}, \"analysis_typed_loops\": {}, ",
                "\"analysis_snapshots_elided\": {}}}"
            ),
            workload,
            engine,
            wall,
            hops as f64 / wall.max(1e-9),
            ops as f64 / wall.max(1e-9),
            hops,
            ops,
            stats.counter("analysis_summaries"),
            stats.counter("analysis_inlined_calls"),
            stats.counter("analysis_typed_loops"),
            stats.counter("analysis_snapshots_elided"),
        )
    };

    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    for (name, script) in [("mandel_loop", MANDEL_LOOP), ("matmul_loop", MATMUL_LOOP)] {
        let off_digest = sim_digest(script, false);
        let on_digest = sim_digest(script, true);
        assert_eq!(
            off_digest, on_digest,
            "{name}: summaries changed sim-platform state — refusing to time"
        );
        let (ow, os) = best_of(script, false);
        let (sw, ss) = best_of(script, true);
        assert_eq!(os.counter("analysis_summaries"), 0, "{name}: baseline ran the analysis");
        assert!(ss.counter("analysis_summaries") > 0, "{name}: summaries-on run never analyzed");
        assert!(
            ss.counter("analysis_typed_loops") > 0,
            "{name}: the proven-pure inner loop was not typed"
        );
        let off_rate = os.counter("hops") as f64 / ow.max(1e-9);
        let on_rate = ss.counter("hops") as f64 / sw.max(1e-9);
        rows.push(row(name, "compiled", ow, &os));
        rows.push(row(name, "compiled+summaries", sw, &ss));
        speedups.push((name, on_rate / off_rate.max(1e-9)));
    }
    let min_speedup = speedups.iter().map(|&(_, s)| s).fold(f64::INFINITY, f64::min);

    format!(
        concat!(
            "{{\n  \"bench\": \"BENCH_0008\",\n  \"ablation\": \"summaries\",\n",
            "  \"mode\": \"{}\",\n",
            "  \"workload\": \"ring {} nodes x {} walkers x {} hops, {} inner iters/hop, ",
            "{} daemons\",\n",
            "  \"rows\": [\n{}\n  ],\n",
            "  \"speedup_mandel_hops_per_sec\": {:.3},\n",
            "  \"speedup_matmul_hops_per_sec\": {:.3},\n",
            "  \"speedup_min_hops_per_sec\": {:.3}\n}}"
        ),
        if smoke { "smoke" } else { "full" },
        nodes,
        walkers,
        passes,
        iters,
        daemons,
        rows.join(",\n"),
        speedups[0].1,
        speedups[1].1,
        min_speedup,
    )
}

/// Schema check for a `BENCH_0008.json` produced by
/// [`ablation_summaries`]: required keys present, both configurations
/// recorded for both workloads, every counter non-negative and
/// parseable, the summaries-on rows actually exercised the analysis,
/// and — for a `"mode": "full"` file — the worst-case
/// summaries-on/summaries-off hops-per-sec speedup at least 1.15×.
///
/// # Errors
///
/// A human-readable description of the first violation found.
pub fn validate_bench_0008(json: &str) -> Result<(), String> {
    fn number_after(json: &str, key: &str, from: usize) -> Result<f64, String> {
        let pat = format!("\"{key}\":");
        let at = json[from..]
            .find(&pat)
            .map(|i| from + i + pat.len())
            .ok_or_else(|| format!("missing key {key:?}"))?;
        let rest = json[at..].trim_start();
        let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
        let tok = rest[..end].trim();
        if tok == "null" {
            return Err(format!("key {key:?} is null"));
        }
        tok.parse::<f64>().map_err(|_| format!("key {key:?} holds non-number {tok:?}"))
    }

    if !json.contains("\"bench\": \"BENCH_0008\"") {
        return Err("missing \"bench\": \"BENCH_0008\"".to_string());
    }
    for key in ["ablation", "mode", "workload", "rows"] {
        if !json.contains(&format!("\"{key}\":")) {
            return Err(format!("missing key {key:?}"));
        }
    }
    for workload in ["mandel_loop", "matmul_loop"] {
        if !json.contains(&format!("\"workload\": \"{workload}\"")) {
            return Err(format!("missing rows for workload {workload:?}"));
        }
    }
    for engine in ["compiled", "compiled+summaries"] {
        if !json.contains(&format!("\"engine\": \"{engine}\"")) {
            return Err(format!("missing rows for engine {engine:?}"));
        }
    }
    for key in ["hops_per_sec", "ops_per_sec", "wall_seconds"] {
        number_after(json, key, 0)?;
    }
    let mut max_summaries = 0.0f64;
    let mut max_typed = 0.0f64;
    for key in [
        "hops",
        "ops",
        "analysis_summaries",
        "analysis_inlined_calls",
        "analysis_typed_loops",
        "analysis_snapshots_elided",
    ] {
        let pat = format!("\"{key}\":");
        let mut from = 0usize;
        let mut seen = false;
        while let Some(i) = json[from..].find(&pat) {
            let at = from + i;
            let v = number_after(json, key, at)?;
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("counter {key:?} is negative or non-finite: {v}"));
            }
            if key == "analysis_summaries" {
                max_summaries = max_summaries.max(v);
            }
            if key == "analysis_typed_loops" {
                max_typed = max_typed.max(v);
            }
            seen = true;
            from = at + pat.len();
        }
        if !seen {
            return Err(format!("missing counter {key:?}"));
        }
    }
    if max_summaries < 1.0 {
        return Err("no row records a computed summary — the ablation never ran".to_string());
    }
    if max_typed < 1.0 {
        return Err("no row records a typed loop — the analysis licensed nothing".to_string());
    }
    for key in ["speedup_mandel_hops_per_sec", "speedup_matmul_hops_per_sec"] {
        let v = number_after(json, key, 0)?;
        if v <= 0.0 {
            return Err(format!("{key} must be positive, got {v}"));
        }
    }
    let min_speedup = number_after(json, "speedup_min_hops_per_sec", 0)?;
    if json.contains("\"mode\": \"full\"") && min_speedup < 1.15 {
        return Err(format!(
            "full-mode worst-case speedup {min_speedup:.3} below the 1.15x acceptance bar"
        ));
    }
    if min_speedup <= 0.0 {
        return Err(format!("speedup must be positive, got {min_speedup}"));
    }
    Ok(())
}

/// The code-size comparison (§3.1.1 / §3.2.1).
pub fn text_codesize() -> Table {
    let mut table = Table::new(
        "§3.1.1/§3.2.1: program sizes (non-blank, non-comment lines)",
        &[
            "application",
            "MSGR-C (executable)",
            "PVM pseudo-code (paper)",
            "PVM executable (this repo)",
        ],
    );
    for row in msgr_apps::codesize::comparison() {
        table.row(vec![
            row.app.to_string(),
            row.messengers_lines.to_string(),
            row.pvm_lines.to_string(),
            row.pvm_real_lines.to_string(),
        ]);
    }
    table
}

/// BENCH_0010 — the cost-attribution profiler itself.
///
/// The observability ablation: the BENCH_0007 ring-walker workloads
/// (mandel_loop, matmul_loop) on the *sim* platform, with
/// `ClusterConfig::profile` toggled per run. Profiling is pure
/// bookkeeping — it charges nothing to the cost model — so the bench
/// verifies the four properties the PR promises, then records where the
/// messenger-nanoseconds actually went:
///
/// * **Inertness**: simulated clock and every node variable are
///   bit-identical with profiling on and off (`profile_state_identical`).
/// * **Determinism**: two same-seed profiled runs produce byte-identical
///   traces and byte-identical `msgr profile` reports
///   (`profile_report_deterministic`).
/// * **Additivity**: the profiled trace is the unprofiled trace plus
///   only `phase_ledger`/`pc_sample` events (`profile_adds_only`).
/// * **Cheapness**: wall-clock overhead of profiling stays under 5%.
///   Each cell's overhead is the median on/off ratio over nine paired
///   adjacent runs (both halves of a pair share the host's frequency
///   and cache state, so drift cancels; pairs alternate which half runs
///   first, so a first-run bias cancels too). The enforced bound is
///   `overhead_frac_max`, the worst cell.
///
/// Each row then reports the phase decomposition — queue / verify /
/// exec / enc / xport / park / stall as fractions of the attributed
/// total — plus the pc-sample site count and the critical path. The
/// fractions sum to 1 by construction (each ledger's `total` is its
/// phase sum); the bench asserts the printed row stays within 1%.
///
/// # Panics
///
/// Panics if any run fails, any invariant above does not hold, or a
/// profiled run produced no ledgers / no pc samples.
pub fn ablation_profile(smoke: bool) -> String {
    use msgr_core::topology::LogicalTopology;
    use msgr_core::{DaemonId, SimCluster, TraceConfig};
    use msgr_prof::{Profile, PHASES};
    use msgr_vm::{Dir, Value};

    let daemons = 4usize;
    // Single off/on pairs of these runs swing by several percent either
    // way on a shared host, so each cell takes the median of nine pairs.
    let (nodes, walkers, passes, iters) =
        if smoke { (8usize, 8usize, 8i64, 8192i64) } else { (16, 16, 32, 8192) };
    let repeats = 9;

    let ring_topo = |nodes: usize| {
        let block = nodes.div_ceil(daemons);
        let mut topo = LogicalTopology::new();
        for i in 0..nodes {
            topo.node(Value::str(format!("p{i}")), DaemonId((i / block) as u16));
        }
        for i in 0..nodes {
            topo.link(
                Value::str(format!("p{i}")),
                Value::str(format!("p{}", (i + 1) % nodes)),
                Value::str("ring"),
                Dir::Forward,
            );
        }
        topo
    };
    let cfg_for = |profile: bool| {
        let mut cfg = ClusterConfig::new(daemons);
        cfg.seed = 42;
        cfg.trace = TraceConfig::on();
        cfg.profile = profile;
        // Sample densely enough that even the smoke-sized inner loops
        // hit the pc sampler several times per segment.
        cfg.profile_interval = 512;
        cfg
    };
    let fnv = |h: &mut u64, bytes: &[u8]| {
        for &b in bytes {
            *h = (*h ^ b as u64).wrapping_mul(0x100000001b3);
        }
    };

    // One sim run; returns (report, host wall seconds, state digest).
    // The digest covers the simulated clock and every node variable bit
    // — the profiler must not move any of it.
    let run_sim = |script: &str, profile: bool| {
        let mut cluster = SimCluster::new(cfg_for(profile));
        cluster.build(&ring_topo(nodes)).expect("build sim ring");
        let pid = cluster.register_program(&msgr_lang::compile(script).expect("compile"));
        for m in 0..walkers {
            cluster
                .inject_at(
                    &Value::str(format!("p{}", m % nodes)),
                    pid,
                    &[Value::Int(passes), Value::Int(iters)],
                )
                .expect("inject");
        }
        let t0 = std::time::Instant::now();
        let rep = cluster.run().expect("sim run");
        let wall = t0.elapsed().as_secs_f64();
        assert!(rep.faults.is_empty(), "sim faults: {:?}", rep.faults);
        let mut h: u64 = 0xcbf29ce484222325;
        fnv(&mut h, &rep.sim_seconds.to_bits().to_le_bytes());
        for i in 0..nodes {
            for var in ["field", "cell", "visits"] {
                match cluster.node_var_by_name(&Value::str(format!("p{i}")), var) {
                    Some(Value::Float(f)) => fnv(&mut h, &f.to_bits().to_le_bytes()),
                    Some(Value::Int(v)) => fnv(&mut h, &v.to_le_bytes()),
                    _ => fnv(&mut h, &[0xFF]),
                }
            }
        }
        (rep, wall, h)
    };

    let is_prof_event = |line: &str| {
        line.contains("\"ev\":\"phase_ledger\"") || line.contains("\"ev\":\"pc_sample\"")
    };

    let mut rows = Vec::new();
    let mut overhead_max = f64::NEG_INFINITY;
    let mut state_identical = true;
    let mut adds_only = true;
    let mut report_deterministic = true;

    for (name, script) in [("mandel_loop", MANDEL_LOOP), ("matmul_loop", MATMUL_LOOP)] {
        // Overhead is measured on *paired* adjacent off/on runs —
        // both halves of a pair share the host's thermal/frequency
        // state, so drift across the bench cancels out of the ratio.
        // Pairs alternate which half runs first, so a bias toward
        // the first (or second) run of a pair cancels too. The
        // cell's overhead is the median of the per-pair ratios (a
        // lone noisy pair cannot move the median). One untimed
        // warmup run absorbs cold caches and lazy page faults.
        run_sim(script, false);
        let mut ratios = Vec::new();
        let mut off_digest = 0u64;
        let mut off_trace = String::new();
        let mut on_digest = 0u64;
        let mut on_traces: Vec<String> = Vec::new();
        let mut on_reports: Vec<String> = Vec::new();
        let mut profile = Profile::default();
        for r in 0..repeats {
            let off_first = r % 2 == 0;
            let first = run_sim(script, !off_first);
            let second = run_sim(script, off_first);
            let ((off, off_w, off_h), (rep, on_w, on_h)) =
                if off_first { (first, second) } else { (second, first) };
            off_digest = off_h;
            on_digest = on_h;
            if r == 0 {
                off_trace = off.trace.as_ref().expect("trace on").to_jsonl();
            }
            ratios.push(on_w / off_w.max(1e-9));
            if r < 2 {
                let t = rep.trace.as_ref().expect("trace on");
                on_traces.push(t.to_jsonl());
                on_reports.push(Profile::from_trace(t).report());
                if r == 0 {
                    profile = Profile::from_trace(t);
                }
            }
        }
        ratios.sort_by(f64::total_cmp);
        let overhead = ratios[ratios.len() / 2] - 1.0;
        state_identical &= off_digest == on_digest;
        report_deterministic &= on_traces[0] == on_traces[1] && on_reports[0] == on_reports[1];
        // The profiled trace minus the profiler's own events must
        // carry exactly the unprofiled events (seq renumbering
        // aside): same count, same kinds in order.
        let kind_of = |line: &str| {
            line.split("\"ev\":\"")
                .nth(1)
                .and_then(|s| s.split('"').next())
                .unwrap_or("")
                .to_string()
        };
        let off_kinds: Vec<String> =
            off_trace.lines().filter(|l| l.contains("\"ev\"")).map(kind_of).collect();
        let on_kinds: Vec<String> = on_traces[0]
            .lines()
            .filter(|l| l.contains("\"ev\"") && !is_prof_event(l))
            .map(kind_of)
            .collect();
        assert!(!off_kinds.is_empty(), "{name}: adds-only check matched no event lines");
        adds_only &= off_kinds == on_kinds;
        overhead_max = overhead_max.max(overhead);

        assert!(!profile.ledgers.is_empty(), "{name}: no full ledgers");
        assert!(!profile.samples.is_empty(), "{name}: no pc samples");
        let totals = profile.phase_totals();
        let denom = profile.attributed_total().max(1) as f64;
        let fracs: Vec<f64> = totals.iter().map(|&ns| ns as f64 / denom).collect();
        let frac_sum: f64 = fracs.iter().sum();
        assert!(
            (frac_sum - 1.0).abs() <= 0.01,
            "{name}: phase fractions sum to {frac_sum}, off by more than 1%"
        );
        let chain = profile.critical_chain();
        let chain_ns: u64 = chain.iter().map(|(l, e)| l.total + e).sum();
        let frac_fields: Vec<String> =
            PHASES.iter().zip(&fracs).map(|(p, f)| format!("\"frac_{p}\": {f:.4}")).collect();
        rows.push(format!(
            concat!(
                "    {{\"platform\": \"sim\", \"workload\": \"{}\", ",
                "\"ledgers\": {}, \"partial_ledgers\": {}, \"attributed_ns\": {}, ",
                "\"pc_sites\": {}, \"critical_path_hops\": {}, \"critical_path_ns\": {}, ",
                "{}, \"frac_sum\": {:.4}, \"overhead_frac\": {:.4}}}"
            ),
            name,
            profile.ledgers.len(),
            profile.forks.len(),
            profile.attributed_total(),
            profile.samples.len(),
            chain.len(),
            chain_ns,
            frac_fields.join(", "),
            frac_sum,
            overhead,
        ));
    }

    assert!(state_identical, "profiling moved the simulated state");
    assert!(adds_only, "profiling perturbed the non-profiler event stream");
    assert!(report_deterministic, "same-seed profiled runs diverged");

    format!(
        concat!(
            "{{\n  \"bench\": \"BENCH_0010\",\n  \"ablation\": \"profile\",\n",
            "  \"mode\": \"{}\",\n",
            "  \"workload\": \"ring {} nodes x {} walkers x {} hops, {} inner iters/hop, ",
            "{} daemons\",\n",
            "  \"rows\": [\n{}\n  ],\n",
            "  \"profile_state_identical\": {},\n",
            "  \"profile_adds_only\": {},\n",
            "  \"profile_report_deterministic\": {},\n",
            "  \"overhead_frac_max\": {:.4}\n}}"
        ),
        if smoke { "smoke" } else { "full" },
        nodes,
        walkers,
        passes,
        iters,
        daemons,
        rows.join(",\n"),
        state_identical,
        adds_only,
        report_deterministic,
        overhead_max,
    )
}

/// Schema check for a `BENCH_0010.json` produced by [`ablation_profile`]:
/// required keys present, both workload rows recorded, every
/// phase fraction in `[0, 1]` with each row's `frac_sum` within 1% of 1,
/// ledgers and pc-sample sites non-empty everywhere, the three invariant
/// flags `true`, and the worst-case profiling overhead at most 5%.
///
/// # Errors
///
/// A human-readable description of the first violation found.
pub fn validate_bench_0010(json: &str) -> Result<(), String> {
    fn number_after(json: &str, key: &str, from: usize) -> Result<f64, String> {
        let pat = format!("\"{key}\":");
        let at = json[from..]
            .find(&pat)
            .map(|i| from + i + pat.len())
            .ok_or_else(|| format!("missing key {key:?}"))?;
        let rest = json[at..].trim_start();
        let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
        let tok = rest[..end].trim();
        if tok == "null" {
            return Err(format!("key {key:?} is null"));
        }
        tok.parse::<f64>().map_err(|_| format!("key {key:?} holds non-number {tok:?}"))
    }
    fn every_occurrence(
        json: &str,
        key: &str,
        check: impl Fn(f64) -> Result<(), String>,
    ) -> Result<(), String> {
        let pat = format!("\"{key}\":");
        let mut from = 0usize;
        let mut seen = false;
        while let Some(i) = json[from..].find(&pat) {
            let at = from + i;
            check(number_after(json, key, at)?).map_err(|e| format!("key {key:?}: {e}"))?;
            seen = true;
            from = at + pat.len();
        }
        if seen {
            Ok(())
        } else {
            Err(format!("missing key {key:?}"))
        }
    }

    if !json.contains("\"bench\": \"BENCH_0010\"") {
        return Err("missing \"bench\": \"BENCH_0010\"".to_string());
    }
    for key in ["ablation", "mode", "workload", "rows"] {
        if !json.contains(&format!("\"{key}\":")) {
            return Err(format!("missing key {key:?}"));
        }
    }
    for workload in ["mandel_loop", "matmul_loop"] {
        if !json.contains(&format!("\"workload\": \"{workload}\"")) {
            return Err(format!("missing rows for workload {workload:?}"));
        }
    }
    // Every phase fraction is a valid fraction; every row's sum is
    // within 1% of the end-to-end attributed total.
    for phase in ["queue", "verify", "exec", "enc", "xport", "park", "stall"] {
        every_occurrence(json, &format!("frac_{phase}"), |v| {
            if (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(format!("fraction out of [0,1]: {v}"))
            }
        })?;
    }
    every_occurrence(json, "frac_sum", |v| {
        if (v - 1.0).abs() <= 0.01 {
            Ok(())
        } else {
            Err(format!("phase fractions sum to {v}, off by more than 1%"))
        }
    })?;
    every_occurrence(json, "ledgers", |v| {
        if v >= 1.0 {
            Ok(())
        } else {
            Err("profiled run recorded no ledgers".to_string())
        }
    })?;
    every_occurrence(json, "pc_sites", |v| {
        if v >= 1.0 {
            Ok(())
        } else {
            Err("profiled run recorded no pc samples".to_string())
        }
    })?;
    every_occurrence(json, "attributed_ns", |v| {
        if v > 0.0 {
            Ok(())
        } else {
            Err("no attributed time".to_string())
        }
    })?;
    every_occurrence(json, "critical_path_ns", |v| {
        if v > 0.0 {
            Ok(())
        } else {
            Err("empty critical path".to_string())
        }
    })?;
    for flag in ["profile_state_identical", "profile_adds_only", "profile_report_deterministic"] {
        if !json.contains(&format!("\"{flag}\": true")) {
            return Err(format!("invariant {flag:?} is not recorded as true"));
        }
    }
    let overhead = number_after(json, "overhead_frac_max", 0)?;
    if overhead > 0.05 {
        return Err(format!("worst-case profiling overhead {overhead:.4} exceeds the 5% bound"));
    }
    Ok(())
}

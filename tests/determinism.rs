//! Bit-level determinism of the simulated applications: the same
//! `ClusterConfig` (including its `seed`) must produce byte-identical
//! results and identical simulated-time statistics on every run. This is
//! what makes the paper's figures reproducible and the msgr-check seeds
//! meaningful.

use std::sync::Arc;

use messengers::apps::calib::Calib;
use messengers::apps::mandel::{MandelScene, MandelWork};
use messengers::apps::matmul::{test_matrix, MatmulScene};
use messengers::apps::{mandel_msgr, matmul_msgr};
use messengers::core::ClusterConfig;
use msgr_sim::{CrashEvent, FaultPlan, Stats, MILLI};

fn counters(stats: &Stats) -> Vec<(&'static str, u64)> {
    stats.counters().collect()
}

#[test]
fn mandel_runs_are_bit_identical() {
    let calib = Calib::default();
    let work = Arc::new(MandelWork::compute(MandelScene::paper(128, 8)));
    let run = || {
        let mut cfg = ClusterConfig::new(8);
        cfg.seed = 42;
        mandel_msgr::run_sim(&work, 8, &calib, cfg).expect("run")
    };
    let a = run();
    let b = run();
    assert_eq!(a.checksum, b.checksum, "image checksum must be identical");
    assert_eq!(a.seconds.to_bits(), b.seconds.to_bits(), "simulated time must be identical");
    assert_eq!(counters(&a.stats), counters(&b.stats), "all counters must be identical");
}

#[test]
fn mandel_seed_is_part_of_the_configuration() {
    // Different seeds may legally produce identical timings, but the
    // results must still verify: same image either way.
    let calib = Calib::default();
    let work = Arc::new(MandelWork::compute(MandelScene::paper(64, 4)));
    let run = |seed: u64| {
        let mut cfg = ClusterConfig::new(4);
        cfg.seed = seed;
        mandel_msgr::run_sim(&work, 4, &calib, cfg).expect("run")
    };
    assert_eq!(run(1).checksum, run(2).checksum, "checksum is seed-independent");
}

#[test]
fn faulty_mandel_runs_are_bit_identical() {
    // Fault injection must not cost determinism: the same config and
    // fault plan (drops, duplicates, reordering, a crash/restart cycle)
    // reproduce the same checksum, the same counters, and the same
    // simulated time to the last f64 bit. And because delivery is
    // exactly-once, the checksum must equal the fault-free run's.
    let calib = Calib::default();
    let work = Arc::new(MandelWork::compute(MandelScene::paper(128, 8)));
    let run = |faults: FaultPlan| {
        let mut cfg = ClusterConfig::new(8);
        cfg.seed = 42;
        cfg.faults = faults;
        mandel_msgr::run_sim(&work, 8, &calib, cfg).expect("run")
    };
    let plan = FaultPlan {
        drop_p: 0.08,
        dup_p: 0.05,
        reorder_p: 0.05,
        reorder_delay: 2 * MILLI,
        crashes: vec![CrashEvent::transient(3, 20 * MILLI, 25 * MILLI)],
    };
    let a = run(plan.clone());
    let b = run(plan);
    assert_eq!(a.checksum, b.checksum, "faulty runs must agree with each other");
    assert_eq!(a.seconds.to_bits(), b.seconds.to_bits(), "simulated time must be identical");
    assert_eq!(counters(&a.stats), counters(&b.stats), "all counters must be identical");
    assert!(a.stats.counter("net_frames_lost") > 0, "the plan must actually inject faults");
    let clean = run(FaultPlan::none());
    assert_eq!(a.checksum, clean.checksum, "loss must never corrupt the image");
}

fn fnv1a(h: &mut u64, bytes: impl IntoIterator<Item = u8>) {
    for b in bytes {
        *h = (*h ^ b as u64).wrapping_mul(0x100000001b3);
    }
}

/// FNV-1a over every (key, value) counter pair, in `Stats` order.
fn counters_fnv(stats: &Stats) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for (k, v) in stats.counters() {
        fnv1a(&mut h, k.bytes());
        fnv1a(&mut h, v.to_le_bytes());
    }
    h
}

#[test]
fn mandel_matches_pre_lanes_golden() {
    // Pinned before execution lanes and frame batching were added; both
    // are gone again, and with the default config (local moves off) the
    // single FIFO run queue must reproduce that run bit for bit — image
    // checksum, f64 simulated time, and every counter. If a scheduler
    // change legitimately alters these, re-capture the goldens in the
    // same change and say so in its log.
    //
    // Counter-FNV re-captured in the compiled-execution PR: the code
    // registry now reports `compile_*` counters in the merged stats
    // (compilation happens at register time in both exec modes, so the
    // golden is still exec-mode independent). Checksum and simulated
    // seconds are unchanged — compilation charges no simulated time.
    //
    // Counter-FNV re-captured again in the interprocedural-analysis PR
    // for the same reason: the registry now reports `analysis_*`
    // counters (summaries, inlined calls, typed loops, elided
    // snapshots), also charged at register time. Checksum and simulated
    // seconds are unchanged.
    //
    // Daemons now always execute through the compiled overlay; this
    // golden (pinned under the plain interpreter) holding bit for bit
    // is the end-to-end proof that the overlay is not observable.
    let calib = Calib::default();
    let work = Arc::new(MandelWork::compute(MandelScene::paper(64, 4)));
    let mut cfg = ClusterConfig::new(4);
    cfg.seed = 42;
    let run = mandel_msgr::run_sim(&work, 4, &calib, cfg).expect("run");
    assert_eq!(run.checksum, 7379371940502171737, "image checksum drifted from baseline");
    assert_eq!(
        run.seconds.to_bits(),
        0x3fb6a77a57dfe5d9,
        "simulated seconds drifted from baseline"
    );
    assert_eq!(counters_fnv(&run.stats), 0xd7c7ec2c7196d384, "counters drifted from baseline");
}

#[test]
fn matmul_matches_pre_lanes_golden() {
    // Companion golden to `mandel_matches_pre_lanes_golden`, pinning the
    // matmul product bits and simulated time under the default config.
    let calib = Calib::default();
    let scene = MatmulScene::new(2, 16);
    let a = test_matrix(scene.n(), 1);
    let b = test_matrix(scene.n(), 2);
    let mut cfg = ClusterConfig::new(4);
    cfg.seed = 7;
    let r = matmul_msgr::run_sim(scene, &a, &b, &calib, cfg).expect("run");
    let mut ph: u64 = 0xcbf29ce484222325;
    for f in r.product.as_slice() {
        fnv1a(&mut ph, f.to_bits().to_le_bytes());
    }
    assert_eq!(ph, 0xcb4ff733ed730fb1, "product bits drifted from baseline");
    assert_eq!(r.seconds.to_bits(), 0x3faeb851eb851eb8, "simulated seconds drifted from baseline");
}

#[test]
fn matmul_runs_are_bit_identical() {
    let calib = Calib::default();
    let scene = MatmulScene::new(2, 16);
    let a = test_matrix(scene.n(), 1);
    let b = test_matrix(scene.n(), 2);
    let run = || {
        let mut cfg = ClusterConfig::new(4);
        cfg.seed = 7;
        matmul_msgr::run_sim(scene, &a, &b, &calib, cfg).expect("run")
    };
    let r1 = run();
    let r2 = run();
    let bits =
        |m: &messengers::vm::Matrix| m.as_slice().iter().map(|f| f.to_bits()).collect::<Vec<u64>>();
    assert_eq!(bits(&r1.product), bits(&r2.product), "product must be byte-identical");
    assert_eq!(r1.seconds.to_bits(), r2.seconds.to_bits(), "simulated time must be identical");
    assert_eq!(counters(&r1.stats), counters(&r2.stats), "all counters must be identical");
}

//! Matrix multiplication with MESSENGERS — the paper's Fig. 11.
//!
//! Two independent scripts, coordinated purely by global virtual time:
//! `distribute_A` messengers embody the A blocks and wake at integer
//! ticks to replicate along their row; `rotate_B` messengers embody the
//! B blocks, multiply at every half tick, and hop up their column ring.
//! The logical network is the Fig. 10 grid built by the `net_builder`
//! service ([`msgr_core::LogicalTopology::grid`]).
//!
//! Two divergences from the paper's listing (see DESIGN.md §4):
//!
//! 1. Fig. 11 as printed never assigns `curr_A` at the *origin* node of
//!    a distribution (the hop replicates only to the other row members),
//!    yet the algorithm needs the diagonal block at its own node. We set
//!    `curr_A` at the origin before hopping.
//! 2. Fig. 11 line 10 reads `M_sched_time_dlt(.5)`, which would wake
//!    `rotate_B` at 0.5, 1.0, 1.5, … — colliding with `distribute_A`'s
//!    integer-tick writes at every *even* iteration. The paper's prose
//!    says rotate_B wakes "at time 0.5 + k" (§3.2), so we schedule
//!    `M_sched_time_abs(k + 0.5)`.

use msgr_core::topology::LogicalTopology;
use msgr_core::{ClusterConfig, ClusterError, SimCluster, ThreadCluster};
use msgr_sim::Stats;
use msgr_vm::{Matrix, MessengerId, NativeCtx, Program, ProgramId, Value};

use crate::calib::Calib;
use crate::matmul::{BlockedLayout, MatmulScene};

/// The Fig. 11 scripts (both messengers in one compilation unit;
/// injection selects the entry function).
pub const MATMUL_SCRIPTS: &str = r#"
distribute_A(s, m, i, j) {
    block msgr_A;
    node block resid_A, curr_A;
    M_sched_time_abs((j - i + m) % m);
    msgr_A = copy_block(resid_A);
    curr_A = copy_block(msgr_A);   /* the origin needs its own block too */
    hop(ll = "row");
    curr_A = copy_block(msgr_A);
}

rotate_B(s, m, i, j) {
    int k;
    block msgr_B;
    node block resid_B, curr_A, C;
    msgr_B = copy_block(resid_B);
    for (k = 0; k < m; k = k + 1) {
        M_sched_time_abs(k + 0.5); /* synchronization: wake at k + 0.5 */
        C = block_multiply(msgr_B, curr_A, C);
        hop(ll = "column"; ldir = +);   /* rotate B to row i-1 */
    }
}
"#;

/// Outcome of a MESSENGERS matmul run.
#[derive(Debug, Clone)]
pub struct MatmulRun {
    /// Runtime in seconds (simulated for [`run_sim`], wall-clock for
    /// [`run_threads`]).
    pub seconds: f64,
    /// The assembled product matrix.
    pub product: Matrix,
    /// Counters (includes `gvt_rounds`, `rollbacks` in optimistic mode).
    pub stats: Stats,
    /// Merged flight-recorder trace (present iff `cfg.trace.enabled`).
    pub trace: Option<msgr_core::Trace>,
}

/// `copy_block(blk)`: a deep copy, charged as about one memcpy.
fn copy_block(
    calib: Calib,
) -> impl Fn(&mut dyn NativeCtx, &[Value]) -> Result<Value, String> + Send + Sync {
    move |ctx, args| {
        let v = args.first().ok_or("copy_block needs an argument")?;
        let mat = v.as_matrix().map_err(|e| e.to_string())?;
        ctx.charge(mat.wire_bytes() * calib.flop_ns as u64 / 55);
        Ok(Value::Mat(mat.deep_copy()))
    }
}

/// `block_multiply(msgr_B, curr_A, C)` (Fig. 11 argument order):
/// computes `C + curr_A · msgr_B`.
fn block_multiply(
    calib: Calib,
) -> impl Fn(&mut dyn NativeCtx, &[Value]) -> Result<Value, String> + Send + Sync {
    move |ctx, args| {
        let b_blk = args[0].as_matrix().map_err(|e| e.to_string())?;
        // Under optimistic execution a premature multiply may see a
        // not-yet-written curr_A (NULL); compute with zeros — the
        // straggler write will roll this event back and redo it.
        let zero_a;
        let a_blk = match &args[1] {
            Value::Mat(a) => a,
            Value::Null => {
                zero_a = Matrix::zeros(b_blk.rows(), b_blk.rows());
                &zero_a
            }
            other => return Err(format!("A must be a block, got {}", other.type_name())),
        };
        let mut c_blk = match &args[2] {
            Value::Mat(c) => c.clone(),
            Value::Null => Matrix::zeros(a_blk.rows(), b_blk.cols()),
            other => return Err(format!("C must be a block, got {}", other.type_name())),
        };
        ctx.charge(calib.block_multiply_ns(a_blk.rows()));
        crate::matmul::multiply_accumulate(&mut c_blk, a_blk, b_blk);
        Ok(Value::Mat(c_blk))
    }
}

fn grid_node(i: u32, j: u32) -> Value {
    Value::str(format!("{i},{j}"))
}

/// Pre-distribute the resident blocks ("we assume that the matrices are
/// already distributed over the network", §3.2) and zero C.
fn distribute(
    scene: MatmulScene,
    a: &Matrix,
    b: &Matrix,
    mut set: impl FnMut(&Value, &str, Value) -> Result<(), ClusterError>,
) -> Result<(), ClusterError> {
    let layout = BlockedLayout::new(scene);
    for i in 0..scene.m {
        for j in 0..scene.m {
            let node = grid_node(i, j);
            set(&node, "resid_A", Value::Mat(layout.block(a, i, j)))?;
            set(&node, "resid_B", Value::Mat(layout.block(b, i, j)))?;
            set(&node, "C", Value::Mat(Matrix::zeros(scene.s, scene.s)))?;
        }
    }
    Ok(())
}

/// The two Fig. 11 programs: `(distribute_A, rotate_B)`.
fn scripts() -> (Program, Program) {
    let dist = msgr_lang::compile_with_entry(MATMUL_SCRIPTS, "distribute_A")
        .expect("distribute_A compiles");
    let rot = msgr_lang::compile_with_entry(MATMUL_SCRIPTS, "rotate_B").expect("rotate_B compiles");
    (dist, rot)
}

/// Inject one `distribute_A` and one `rotate_B` at every grid node.
fn inject_all(
    scene: MatmulScene,
    (dist, rot): (ProgramId, ProgramId),
    mut inject: impl FnMut(&Value, ProgramId, &[Value]) -> Result<MessengerId, ClusterError>,
) -> Result<(), ClusterError> {
    for i in 0..scene.m {
        for j in 0..scene.m {
            let node = grid_node(i, j);
            let args = [
                Value::Int(scene.s as i64),
                Value::Int(scene.m as i64),
                Value::Int(i as i64),
                Value::Int(j as i64),
            ];
            inject(&node, dist, &args)?;
            inject(&node, rot, &args)?;
        }
    }
    Ok(())
}

/// Fail on the first fault, else assemble the product from every
/// node's `C`.
fn product(
    scene: MatmulScene,
    faults: &[(MessengerId, String)],
    get: impl Fn(&Value) -> Option<Value>,
) -> Result<Matrix, ClusterError> {
    if let Some((mid, err)) = faults.first() {
        return Err(ClusterError::Config(format!("messenger {mid} faulted: {err}")));
    }
    let mut blocks = Vec::with_capacity((scene.m * scene.m) as usize);
    for i in 0..scene.m {
        for j in 0..scene.m {
            let node = grid_node(i, j);
            match get(&node).ok_or_else(|| ClusterError::NotFound(format!("C at {node}")))? {
                Value::Mat(mat) => blocks.push(mat),
                other => {
                    return Err(ClusterError::Config(format!(
                        "C at {node} is {}, expected block",
                        other.type_name()
                    )))
                }
            }
        }
    }
    Ok(BlockedLayout::new(scene).assemble(&blocks))
}

/// Run the Fig. 11 program: `m × m` grid on `cfg.daemons` daemons
/// (the paper uses m² daemons, one block per processor).
///
/// # Errors
///
/// Propagates [`ClusterError`]; faults become `ClusterError::Config`.
pub fn run_sim(
    scene: MatmulScene,
    a: &Matrix,
    b: &Matrix,
    calib: &Calib,
    cfg: ClusterConfig,
) -> Result<MatmulRun, ClusterError> {
    let mut cluster = SimCluster::new(cfg);
    cluster.register_native("copy_block", copy_block(*calib));
    cluster.register_native("block_multiply", block_multiply(*calib));
    cluster.build(&LogicalTopology::grid(scene.m as usize, cluster.daemons()))?;
    distribute(scene, a, b, |node, var, v| cluster.set_node_var(node, var, v))?;
    let (dist, rot) = scripts();
    let ids = (cluster.register_program(&dist), cluster.register_program(&rot));
    cluster.trace_span_begin("matmul.inject");
    inject_all(scene, ids, |node, pid, args| cluster.inject_at(node, pid, args))?;
    cluster.trace_span_end("matmul.inject");

    let report = cluster.run()?;
    Ok(MatmulRun {
        seconds: report.sim_seconds,
        product: product(scene, &report.faults, |node| cluster.node_var_by_name(node, "C"))?,
        stats: report.stats,
        trace: report.trace,
    })
}

/// Run the Fig. 11 program on the threaded platform with `daemons`
/// daemons: the block kernels genuinely execute on daemon threads, and
/// global virtual time alone orders the two scripts.
///
/// # Errors
///
/// Propagates [`ClusterError`]; faults become `ClusterError::Config`.
pub fn run_threads(
    scene: MatmulScene,
    a: &Matrix,
    b: &Matrix,
    daemons: usize,
) -> Result<MatmulRun, ClusterError> {
    let mut cluster = ThreadCluster::new(ClusterConfig::new(daemons))?;
    // Threaded runs keep no simulated clock, so the natives' charges
    // are dropped and the calibration does not matter.
    cluster.register_native("copy_block", copy_block(Calib::default()));
    cluster.register_native("block_multiply", block_multiply(Calib::default()));
    cluster.build(&LogicalTopology::grid(scene.m as usize, daemons))?;
    distribute(scene, a, b, |node, var, v| cluster.set_node_var(node, var, v))?;
    let (dist, rot) = scripts();
    let ids = (cluster.register_program(&dist), cluster.register_program(&rot));
    inject_all(scene, ids, |node, pid, args| cluster.inject_at(node, pid, args))?;

    let report = cluster.run()?;
    Ok(MatmulRun {
        seconds: report.wall_seconds,
        product: product(scene, &report.faults, |node| cluster.node_var_by_name(node, "C"))?,
        stats: report.stats,
        trace: report.trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::{max_abs_diff, multiply_reference, test_matrix};
    use msgr_core::config::{NetKind, VtMode};

    fn run_scene(m: u32, s: u32, mode: VtMode) -> (Matrix, Matrix, Stats) {
        let scene = MatmulScene::new(m, s);
        let a = test_matrix(scene.n(), 1);
        let b = test_matrix(scene.n(), 2);
        let mut cfg = ClusterConfig::new((m * m) as usize);
        cfg.net = NetKind::Ideal;
        cfg.vt_mode = mode;
        let run = run_sim(scene, &a, &b, &Calib::default(), cfg).unwrap();
        let reference = multiply_reference(&a, &b);
        (run.product, reference, run.stats)
    }

    #[test]
    fn conservative_2x2_computes_the_product() {
        let (product, reference, stats) = run_scene(2, 6, VtMode::Conservative);
        assert!(max_abs_diff(&product, &reference) < 1e-9);
        assert!(stats.counter("gvt_rounds") > 0, "GVT must have driven the alternation");
    }

    #[test]
    fn conservative_3x3_computes_the_product() {
        let (product, reference, _) = run_scene(3, 5, VtMode::Conservative);
        assert!(max_abs_diff(&product, &reference) < 1e-9);
    }

    #[test]
    fn optimistic_matches_conservative() {
        let (p_cons, reference, _) = run_scene(2, 4, VtMode::Conservative);
        let (p_opt, _, _) = run_scene(2, 4, VtMode::Optimistic);
        assert!(max_abs_diff(&p_cons, &reference) < 1e-9);
        assert!(max_abs_diff(&p_opt, &reference) < 1e-9);
        assert!(max_abs_diff(&p_opt, &p_cons) < 1e-12);
    }

    #[test]
    fn grid_on_fewer_daemons_still_correct() {
        // 3x3 grid squeezed onto 4 daemons.
        let scene = MatmulScene::new(3, 4);
        let a = test_matrix(scene.n(), 3);
        let b = test_matrix(scene.n(), 4);
        let mut cfg = ClusterConfig::new(4);
        cfg.net = NetKind::Ideal;
        let run = run_sim(scene, &a, &b, &Calib::default(), cfg).unwrap();
        assert!(max_abs_diff(&run.product, &multiply_reference(&a, &b)) < 1e-9);
    }

    #[test]
    fn survives_permanent_worker_kill() {
        use msgr_sim::{CrashEvent, FaultPlan, MILLI};
        let scene = MatmulScene::new(2, 4);
        let a = test_matrix(scene.n(), 1);
        let b = test_matrix(scene.n(), 2);
        let mut cfg = ClusterConfig::new(4);
        cfg.seed = 11;
        cfg.faults =
            FaultPlan { crashes: vec![CrashEvent::kill(3, 2 * MILLI)], ..FaultPlan::none() };
        let run = run_sim(scene, &a, &b, &Calib::default(), cfg.clone()).unwrap();
        // The GVT-synchronized alternation must survive the membership
        // change: the dead daemon's grid nodes fail over, the cut
        // continues with the survivors, and the product stays exact.
        assert!(max_abs_diff(&run.product, &multiply_reference(&a, &b)) < 1e-9);
        assert_eq!(run.stats.counter("kills"), 1);
        assert_eq!(run.stats.counter("restores"), 1);
        // Bit-reproducible: the same seed replays the same recovery.
        let again = run_sim(scene, &a, &b, &Calib::default(), cfg).unwrap();
        assert_eq!(again.seconds.to_bits(), run.seconds.to_bits());
        assert!(max_abs_diff(&again.product, &run.product) == 0.0);
    }

    #[test]
    fn survives_killing_worker_and_its_replica_holder() {
        use msgr_sim::{CrashEvent, FaultPlan, MILLI};
        let scene = MatmulScene::new(2, 4);
        let a = test_matrix(scene.n(), 5);
        let b = test_matrix(scene.n(), 6);
        let mut cfg = ClusterConfig::new(6);
        cfg.seed = 11;
        cfg.replication = 2;
        // Daemon 3 holds daemon 2's checkpoint replicas and is its
        // natural heir; both die before either death is detected, so
        // recovery must come off the second holder's write-ahead copy
        // and the quorum must re-decide around the dead heir.
        cfg.faults = FaultPlan {
            crashes: vec![CrashEvent::kill(2, 2 * MILLI), CrashEvent::kill(3, 4 * MILLI)],
            ..FaultPlan::none()
        };
        let run = run_sim(scene, &a, &b, &Calib::default(), cfg.clone()).unwrap();
        assert!(max_abs_diff(&run.product, &multiply_reference(&a, &b)) < 1e-9);
        assert_eq!(run.stats.counter("kills"), 2);
        assert_eq!(run.stats.counter("restores"), 2);
        assert!(run.stats.counter("ckpt_replicas") > 0, "k = 2 must push replicas");
        // Bit-reproducible: the same seed replays the same double recovery.
        let again = run_sim(scene, &a, &b, &Calib::default(), cfg).unwrap();
        assert_eq!(again.seconds.to_bits(), run.seconds.to_bits());
        assert!(max_abs_diff(&again.product, &run.product) == 0.0);
    }

    #[test]
    fn bigger_blocks_take_longer() {
        let calib = Calib::default();
        let t = |s: u32| {
            let scene = MatmulScene::new(2, s);
            let a = test_matrix(scene.n(), 1);
            let b = test_matrix(scene.n(), 2);
            run_sim(scene, &a, &b, &calib, ClusterConfig::new(4)).unwrap().seconds
        };
        assert!(t(16) < t(48));
    }
}

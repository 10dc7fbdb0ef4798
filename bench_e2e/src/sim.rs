//! The paper-shape cell: one `SimCluster` point per app, MESSENGERS and
//! PVM. These are seconds of the calibrated 1997 cost model, not of this
//! host; `run.py` compares their bits with the pinned values and never
//! reports them as this system's speed.

use std::sync::Arc;

use msgr_apps::mandel::{render_sequential, MandelScene, MandelWork};
use msgr_apps::matmul::{max_abs_diff, multiply_reference, test_matrix, MatmulScene};
use msgr_apps::{mandel_msgr, mandel_pvm, matmul_msgr, matmul_pvm, Calib};
use msgr_core::ClusterConfig;
use msgr_pvm::PvmNet;

/// Fig. 7: 1280×1280, 8×8 grid, 32 processors.
const FIG7_PROCS: usize = 32;
/// Fig. 12(a): 2×2 grid (4 processors at 110 MHz), block side 100.
const FIG12A: (u32, u32) = (2, 100);

/// A failed run reads as 0 s and `ok: false`.
fn cell(name: &str, run: Option<(f64, bool)>) -> String {
    let (seconds, ok) = run.unwrap_or((0.0, false));
    format!(
        "\"{name}\": {{\"s\": {seconds}, \"bits\": \"{:016x}\", \"ok\": {ok}}}",
        seconds.to_bits()
    )
}

pub fn cell_json() -> String {
    let calib = Calib::default();
    let work = Arc::new(MandelWork::compute(MandelScene::paper(1280, 8)));
    let (_, expected) = render_sequential(&work, &calib);
    let m = mandel_msgr::run_sim(&work, FIG7_PROCS, &calib, ClusterConfig::new(FIG7_PROCS));
    let p = mandel_pvm::run_sim(&work, FIG7_PROCS, &calib, PvmNet::Ethernet100);

    let (g, s) = FIG12A;
    let scene = MatmulScene::new(g, s);
    let (a, b) = (test_matrix(scene.n(), 1), test_matrix(scene.n(), 2));
    let reference = multiply_reference(&a, &b);
    let procs = (g * g) as usize;
    let mm = matmul_msgr::run_sim(scene, &a, &b, &calib, ClusterConfig::new(procs));
    let mp = matmul_pvm::run_sim(scene, &a, &b, &calib, procs, PvmNet::Ethernet100, 1.0);

    let close = |p: &msgr_vm::Matrix| max_abs_diff(p, &reference) < 1e-9;
    let cells = [
        cell("fig7_messengers_s", m.ok().map(|r| (r.seconds, r.checksum == expected))),
        cell("fig7_pvm_s", p.ok().map(|r| (r.seconds, r.checksum == expected))),
        cell("fig12a_messengers_s", mm.ok().map(|r| (r.seconds, close(&r.product)))),
        cell("fig12a_pvm_s", mp.ok().map(|r| (r.seconds, close(&r.product)))),
    ];
    format!("{{{}}}", cells.join(", "))
}

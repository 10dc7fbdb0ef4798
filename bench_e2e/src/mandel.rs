//! `mandel`: the Fig. 3 manager/worker script on a 1280×1280 image cut
//! into a 32×32 grid, with the benchmark's own `next_task`, `compute`
//! and `deposit` natives (the effect of `mandel_msgr::run_threads`, plus
//! timestamps). The native kernel dominates and every task funnels
//! through daemon 0's `init` node, the hot spot.
//!
//! The seed shifts the complex-plane window by a fraction of a pixel, so
//! the image, and its checksum, differ per seed at the same cost. Blocks
//! are handed out in row-major order, as `mandel_msgr::run_threads` does:
//! a seeded order changed where the heavy blocks meet the hot spot, and
//! with it the run time by up to 20% from seed to seed.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use msgr_apps::mandel::{mandel_iters, MandelScene, MandelWork, Region};
use msgr_apps::mandel_msgr::MANAGER_WORKER_SCRIPT;
use msgr_core::ThreadCluster;
use msgr_vm::{Bytes, Value};

use crate::{config, ms, natives, process_cpu_seconds, rng, unit, Sample, DAEMONS};

const SIZE: u32 = 1280;
const GRID: u32 = 32;

/// The paper's scene, shifted by a sub-pixel offset drawn from `seed`.
pub fn scene(seed: u64) -> MandelScene {
    let mut r = rng(seed, 1);
    let paper = Region::paper();
    let dx = unit(&mut r) * (paper.x1 - paper.x0) / SIZE as f64;
    let dy = unit(&mut r) * (paper.y1 - paper.y0) / SIZE as f64;
    let region =
        Region { x0: paper.x0 + dx, y0: paper.y0 + dy, x1: paper.x1 + dx, y1: paper.y1 + dy };
    MandelScene { region, ..MandelScene::paper(SIZE, GRID) }
}

/// Checksum of the sequentially rendered image: what both systems must
/// reassemble.
pub fn reference(seed: u64) -> u64 {
    MandelWork::checksum(&MandelWork::compute(scene(seed)).color_image())
}

/// One block's 8-bit colors, as `mandel_msgr::run_threads` computes them.
fn compute_block(scene: &MandelScene, idx: u32) -> Vec<u8> {
    let bs = scene.block_side();
    let (ox, oy) = scene.block_origin(idx);
    let (w, h) = (scene.size as f64, scene.size as f64);
    let r = scene.region;
    let mut out = Vec::with_capacity((bs * bs) as usize);
    for dy in 0..bs {
        for dx in 0..bs {
            let cx = r.x0 + ((ox + dx) as f64 + 0.5) / w * (r.x1 - r.x0);
            let cy = r.y0 + ((oy + dy) as f64 + 0.5) / h * (r.y1 - r.y0);
            out.push(MandelWork::color(mandel_iters(cx, cy, scene.max_iter) as u16));
        }
    }
    out
}

fn block_index(v: &Value) -> Result<u32, String> {
    let i = v.as_int().map_err(|e| e.to_string())?;
    u32::try_from(i).map_err(|_| format!("bad block index {i}"))
}

pub fn sample(s: &mut Sample, seed: u64, trace: bool, expected: u64) -> Result<(), String> {
    let scene = scene(seed);
    let image = Arc::new(Mutex::new(vec![0u8; (scene.size * scene.size) as usize]));

    let mut cluster = s
        .step("core.new", || ThreadCluster::new(config(trace)))
        .map_err(|e| format!("cluster: {e}"))?;
    let rec = s.spans.clone();
    cluster.register_native("next_task", move |ctx, _args| {
        let t0 = rec.now();
        let idx = ctx.node_var("next_block").as_int().unwrap_or(0);
        if idx >= scene.blocks() as i64 {
            rec.native("native.next_task", t0, ctx.daemon(), -1, 0);
            return Ok(Value::Null);
        }
        ctx.set_node_var("next_block", Value::Int(idx + 1));
        rec.native("native.next_task", t0, ctx.daemon(), idx, 0);
        Ok(Value::Int(idx))
    });
    let rec = s.spans.clone();
    cluster.register_native("compute", move |ctx, args| {
        let t0 = rec.now();
        let idx = block_index(args.first().ok_or("compute needs a task")?)?;
        if idx >= scene.blocks() {
            return Err(format!("block {idx} out of range"));
        }
        let mut payload = Vec::with_capacity(4 + scene.block_pixels() as usize);
        payload.extend_from_slice(&idx.to_le_bytes());
        payload.extend_from_slice(&compute_block(&scene, idx));
        rec.native("native.compute", t0, ctx.daemon(), idx as i64, 0);
        Ok(Value::Blob(Bytes::from(payload)))
    });
    let (rec, img) = (s.spans.clone(), image.clone());
    cluster.register_native("deposit", move |ctx, args| {
        let t0 = rec.now();
        let blob =
            args.first().ok_or("deposit needs a result")?.as_blob().map_err(|e| e.to_string())?;
        if blob.len() != 4 + scene.block_pixels() as usize {
            return Err(format!("deposit of {} bytes", blob.len()));
        }
        let idx = u32::from_le_bytes(blob[..4].try_into().expect("length checked above"));
        if idx >= scene.blocks() {
            return Err(format!("block {idx} out of range"));
        }
        MandelWork::deposit_payload(
            &scene,
            &mut img.lock().map_err(|_| "image lock poisoned")?,
            idx,
            &blob[4..],
        );
        rec.native("native.deposit", t0, ctx.daemon(), idx as i64, 0);
        Ok(Value::Null)
    });

    let program = s.step("lang.compile", || msgr_lang::compile(MANAGER_WORKER_SCRIPT));
    let program = program.map_err(|e| format!("compile: {e}"))?;
    let pid = s.step("core.register", || cluster.register_program(&program));
    s.step("core.inject", || cluster.inject(0, pid, &[])).map_err(|e| format!("inject: {e}"))?;
    s.run(&mut cluster)?;

    let got = MandelWork::checksum(&image.lock().map_err(|_| "image lock poisoned")?);
    if got != expected {
        return Err(format!("image checksum {got:#x}, expected {expected:#x}"));
    }
    let spans = s.spans.snapshot();
    // Per block: hand-out (next_task return), compute entry/return,
    // deposit entry/return. Every block must pass each stage once.
    let mut stages: HashMap<i64, [Option<(u64, u64)>; 3]> = HashMap::new();
    for (k, name) in ["native.next_task", "native.compute", "native.deposit"].iter().enumerate() {
        for sp in natives(&spans, name).filter(|sp| sp.key >= 0) {
            let slot = &mut stages.entry(sp.key).or_default()[k];
            if slot.replace((sp.start, sp.end)).is_some() {
                return Err(format!("block {} passed {name} twice", sp.key));
            }
        }
    }
    if stages.len() != scene.blocks() as usize {
        return Err(format!("{} of {} blocks handed out", stages.len(), scene.blocks()));
    }
    let (mut hop_out, mut hop_back) = (Vec::new(), Vec::new());
    for (idx, st) in &stages {
        let [Some(task), Some(comp), Some(dep)] = st else {
            return Err(format!("block {idx} skipped a stage"));
        };
        s.tasks_ms.push(ms(dep.1.saturating_sub(task.1)));
        hop_out.push(ms(comp.0.saturating_sub(task.1)));
        hop_back.push(ms(dep.0.saturating_sub(comp.1)));
    }
    s.series.push(("hop_out_ms", hop_out));
    s.series.push(("hop_back_ms", hop_back));
    Ok(())
}

/// One run of the Fig. 2 PVM program on the same scene with one worker
/// per daemon; prints its wall and CPU seconds.
pub fn pvm(seed: u64, expected: u64) -> Result<String, String> {
    let scene = scene(seed);
    let cpu0 = process_cpu_seconds();
    let run = msgr_apps::mandel_pvm::run_threads(scene, DAEMONS);
    let cpu_s = process_cpu_seconds() - cpu0;
    if run.checksum != expected {
        return Ok(format!(
            "{{\"ok\": false, \"error\": \"pvm checksum {:#x}, expected {expected:#x}\"}}",
            run.checksum
        ));
    }
    let rss = crate::peak_rss_mb()?;
    Ok(format!(
        "{{\"ok\": true, \"run_s\": {}, \"cpu_s\": {cpu_s}, \"peak_rss_mb\": {rss}}}",
        run.seconds
    ))
}

//! `matmul`: the Fig. 11 `distribute_A` / `rotate_B` scripts on a 4×4
//! grid of 96×96 blocks, pre-distributed with `set_node_var`. The
//! alternation is driven by GVT rounds, and whole blocks migrate on
//! every hop (about 8 MB a run), so GVT and migration dominate; the VM
//! does little. With 128×128 blocks the multiplies took half the run;
//! at 96×96 the wait for GVT between steps is most of it. The
//! benchmark registers its own `copy_block` and `block_multiply`.
//!
//! The seed picks the matrix entries.

use std::collections::BTreeMap;

use msgr_apps::matmul::{
    max_abs_diff, multiply_accumulate, multiply_reference, test_matrix, BlockedLayout, MatmulScene,
};
use msgr_apps::matmul_msgr::MATMUL_SCRIPTS;
use msgr_core::topology::LogicalTopology;
use msgr_core::ThreadCluster;
use msgr_vm::{Matrix, Value};

use crate::{config, ms, natives, Sample, DAEMONS};

const M: u32 = 4;
const S: u32 = 96;

fn node(i: u32, j: u32) -> Value {
    Value::str(format!("{i},{j}"))
}

/// `(row, column)` of a grid node name `"i,j"`.
fn grid_pos(name: &Value) -> Option<(u32, u32)> {
    let Value::Str(s) = name else { return None };
    let (i, j) = s.split_once(',')?;
    Some((i.parse().ok()?, j.parse().ok()?))
}

fn block(v: &Value, what: &str) -> Result<Matrix, String> {
    match v {
        Value::Mat(m) => Ok(m.clone()),
        other => Err(format!("{what} must be a block, got {}", other.type_name())),
    }
}

pub fn sample(s: &mut Sample, seed: u64, trace: bool) -> Result<(), String> {
    let scene = MatmulScene::new(M, S);
    let layout = BlockedLayout::new(scene);
    let a = test_matrix(scene.n(), seed.wrapping_mul(2).wrapping_add(1));
    let b = test_matrix(scene.n(), seed.wrapping_mul(2).wrapping_add(2));
    let mut vars = Vec::with_capacity((3 * M * M) as usize);
    for i in 0..M {
        for j in 0..M {
            vars.push((node(i, j), "resid_A", Value::Mat(layout.block(&a, i, j))));
            vars.push((node(i, j), "resid_B", Value::Mat(layout.block(&b, i, j))));
            vars.push((node(i, j), "C", Value::Mat(Matrix::zeros(S, S))));
        }
    }

    let mut cluster = s
        .step("core.new", || ThreadCluster::new(config(trace)))
        .map_err(|e| format!("cluster: {e}"))?;
    let rec = s.spans.clone();
    cluster.register_native("copy_block", move |ctx, args| {
        let t0 = rec.now();
        let copy = block(args.first().ok_or("copy_block needs a block")?, "copy_block's argument")?
            .deep_copy();
        rec.native("native.copy_block", t0, ctx.daemon(), 0, 0);
        Ok(Value::Mat(copy))
    });
    let rec = s.spans.clone();
    cluster.register_native("block_multiply", move |ctx, args| {
        let t0 = rec.now();
        // Fig. 11: block_multiply(msgr_B, curr_A, C) = C + curr_A · msgr_B.
        let [b_blk, a_blk, c_blk] = args else {
            return Err("block_multiply takes (B, A, C)".to_string());
        };
        let (b_blk, a_blk) = (block(b_blk, "B")?, block(a_blk, "A")?);
        let mut c = block(c_blk, "C")?;
        multiply_accumulate(&mut c, &a_blk, &b_blk);
        // rotate_B wakes at k + 0.5 on row r, holding the B block that
        // started on row (r + k) mod M: that pair identifies it.
        let (r, j) = grid_pos(&ctx.node_name()).ok_or("block_multiply off the grid")?;
        let k = ctx.vtime().as_f64().floor() as i64;
        let origin = (r as i64 + k).rem_euclid(M as i64);
        rec.native("native.block_multiply", t0, ctx.daemon(), origin * M as i64 + j as i64, k);
        Ok(Value::Mat(c))
    });

    let (dist, rot) = s.step("lang.compile", || {
        (
            msgr_lang::compile_with_entry(MATMUL_SCRIPTS, "distribute_A"),
            msgr_lang::compile_with_entry(MATMUL_SCRIPTS, "rotate_B"),
        )
    });
    let dist = dist.map_err(|e| format!("compile distribute_A: {e}"))?;
    let rot = rot.map_err(|e| format!("compile rotate_B: {e}"))?;
    let (dist_id, rot_id) = s.step("core.register", || {
        (cluster.register_program(&dist), cluster.register_program(&rot))
    });
    s.step("core.build", || cluster.build(&LogicalTopology::grid(M as usize, DAEMONS)))
        .map_err(|e| format!("build: {e}"))?;
    s.step("core.set_node_var", || {
        vars.into_iter().try_for_each(|(n, var, v)| cluster.set_node_var(&n, var, v))
    })
    .map_err(|e| format!("set_node_var: {e}"))?;
    s.step("core.inject", || {
        (0..M).flat_map(|i| (0..M).map(move |j| (i, j))).try_for_each(|(i, j)| {
            let args = [S, M, i, j].map(|x| Value::Int(x as i64));
            cluster.inject_at(&node(i, j), dist_id, &args)?;
            cluster.inject_at(&node(i, j), rot_id, &args).map(drop)
        })
    })
    .map_err(|e| format!("inject: {e}"))?;
    s.run(&mut cluster)?;

    let mut blocks = Vec::with_capacity((M * M) as usize);
    for i in 0..M {
        for j in 0..M {
            let c = cluster.node_var_by_name(&node(i, j), "C").unwrap_or(Value::Null);
            blocks.push(block(&c, "C")?);
        }
    }
    drop(cluster);
    let diff = max_abs_diff(&layout.assemble(&blocks), &multiply_reference(&a, &b));
    if diff.is_nan() || diff >= 1e-9 {
        return Err(format!("product differs from the reference by {diff}"));
    }

    // Per B block: its M multiplies, one per virtual step. The task is one
    // step of one B block (multiply, hop, wait for GVT, next multiply);
    // the step gap is the wall time between the last multiply of a step
    // and the first of the next.
    let spans = s.spans.snapshot();
    let mut by_block: BTreeMap<i64, Vec<(i64, u64)>> = BTreeMap::new();
    let mut by_step: BTreeMap<i64, (u64, u64)> = BTreeMap::new();
    for sp in natives(&spans, "native.block_multiply") {
        by_block.entry(sp.key).or_default().push((sp.step, sp.start));
        let e = by_step.entry(sp.step).or_insert((u64::MAX, 0));
        e.0 = e.0.min(sp.start);
        e.1 = e.1.max(sp.end);
    }
    for (key, calls) in &mut by_block {
        calls.sort_unstable();
        if calls.iter().map(|c| c.0).ne(0..M as i64) {
            return Err(format!("B block {key} multiplied at steps {calls:?}"));
        }
        s.tasks_ms.extend(calls.windows(2).map(|w| ms(w[1].1.saturating_sub(w[0].1))));
    }
    if by_block.len() != (M * M) as usize {
        return Err(format!("{} of {} B blocks multiplied", by_block.len(), M * M));
    }
    let steps: Vec<(u64, u64)> = by_step.into_values().collect();
    let gaps = steps.windows(2).map(|w| ms(w[1].0.saturating_sub(w[0].1))).collect();
    s.series.push(("step_gap_ms", gaps));
    Ok(())
}

//! `walker`: MSGR-C walkers on a ring split over the daemons. Before
//! every hop each walker iterates a bounded Mandelbrot orbit in bytecode
//! (the BENCH_0007 `mandel_loop` shape), so the default interpreter does
//! almost all the work over many small hops. There is no GVT; the only
//! native, `lap`, timestamps each walker after each hop (about 0.1% of
//! the run) and takes its final accumulator for a bit-exact check. The
//! task is one lap of one walker: orbit loop, hop, and the wait behind
//! the other walkers on the daemon it lands on.
//!
//! The seed rotates the walkers' start nodes and moves the orbit's `c`
//! inside the Douady-rabbit interior, where the orbit stays bounded.

use std::sync::Arc;

use msgr_core::topology::LogicalTopology;
use msgr_core::{DaemonId, ThreadCluster};
use msgr_vm::{Dir, Value};

use crate::{config, ms, natives, rng, unit, Sample, DAEMONS};

const NODES: usize = 16;
const WALKERS: usize = 32;
const PASSES: i64 = 256;
const ITERS: i64 = 128;

const SCRIPT: &str = r#"
walk(id, passes, iters, cr, ci) {
    int i = 0;
    int k;
    float zr; float zi; float t;
    float acc = 0.0;
    node float field;
    node int visits;
    visits = visits + 1;
    while (i < passes) {
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
        lap(id, i, acc);
    }
}
"#;

/// The accumulator every walker must report: the script's float
/// arithmetic, in the same order.
fn expected_acc(cr: f64, ci: f64) -> f64 {
    let mut acc = 0.0f64;
    for _ in 0..PASSES {
        let (mut zr, mut zi) = (0.0f64, 0.0f64);
        for _ in 0..ITERS {
            let t = zr * zr - zi * zi + cr;
            zi = 2.0 * zr * zi + ci;
            zr = t;
        }
        acc = acc + zr + zi;
    }
    acc
}

fn node(i: usize) -> Value {
    Value::str(format!("p{i}"))
}

fn ring() -> LogicalTopology {
    let per_daemon = NODES.div_ceil(DAEMONS);
    let mut topo = LogicalTopology::new();
    for i in 0..NODES {
        topo.node(node(i), DaemonId((i / per_daemon) as u16));
    }
    for i in 0..NODES {
        topo.link(node(i), node((i + 1) % NODES), Value::str("ring"), Dir::Forward);
    }
    topo
}

pub fn sample(s: &mut Sample, seed: u64, trace: bool) -> Result<(), String> {
    let mut r = rng(seed, 3);
    let cr = -0.1226 + (unit(&mut r) - 0.5) * 2e-4;
    let ci = 0.7449 + (unit(&mut r) - 0.5) * 2e-4;
    // Walkers start evenly spread: an uneven start forms convoys that
    // leave one daemon idle, and the run time would depend on the draw.
    let turn = (unit(&mut r) * NODES as f64) as usize;
    let starts: Vec<usize> = (0..WALKERS).map(|w| (w + turn) % NODES).collect();
    let accs = Arc::new(std::sync::Mutex::new(vec![None::<f64>; WALKERS]));

    let mut cluster = s
        .step("core.new", || ThreadCluster::new(config(trace)))
        .map_err(|e| format!("cluster: {e}"))?;
    let (rec, out) = (s.spans.clone(), accs.clone());
    cluster.register_native("lap", move |ctx, args| {
        let t0 = rec.now();
        let [id, lap, acc] = args else { return Err("lap takes (id, lap, acc)".to_string()) };
        let id = id.as_int().map_err(|e| e.to_string())?;
        let lap = lap.as_int().map_err(|e| e.to_string())?;
        let slot = usize::try_from(id).ok().filter(|&i| i < WALKERS).ok_or("bad walker id")?;
        if lap == PASSES {
            let acc = acc.as_float().map_err(|e| e.to_string())?;
            out.lock().map_err(|_| "walker table poisoned")?[slot] = Some(acc);
        }
        rec.native("native.lap", t0, ctx.daemon(), id, lap);
        Ok(Value::Null)
    });

    let program = s.step("lang.compile", || msgr_lang::compile(SCRIPT));
    let program = program.map_err(|e| format!("compile: {e}"))?;
    let pid = s.step("core.register", || cluster.register_program(&program));
    s.step("core.build", || cluster.build(&ring())).map_err(|e| format!("build: {e}"))?;
    s.step("core.inject", || {
        starts.iter().enumerate().try_for_each(|(id, &at)| {
            let args = [
                Value::Int(id as i64),
                Value::Int(PASSES),
                Value::Int(ITERS),
                Value::Float(cr),
                Value::Float(ci),
            ];
            cluster.inject_at(&node(at), pid, &args).map(drop)
        })
    })
    .map_err(|e| format!("inject: {e}"))?;
    s.run(&mut cluster)?;

    let visits: i64 = (0..NODES)
        .map(|i| match cluster.node_var_by_name(&node(i), "visits") {
            Some(Value::Int(v)) => v,
            _ => 0,
        })
        .sum();
    let want = WALKERS as i64 * (PASSES + 1);
    if visits != want {
        return Err(format!("{visits} visits, expected {want}"));
    }
    let want = expected_acc(cr, ci);
    for (id, acc) in accs.lock().map_err(|_| "walker table poisoned")?.iter().enumerate() {
        match acc {
            Some(a) if a.to_bits() == want.to_bits() => {}
            other => return Err(format!("walker {id} reported {other:?}, expected {want}")),
        }
    }
    let spans = s.spans.snapshot();
    let mut laps: Vec<Vec<(i64, u64)>> = vec![Vec::new(); WALKERS];
    for sp in natives(&spans, "native.lap") {
        laps[sp.key as usize].push((sp.step, sp.end));
    }
    for (id, stamps) in laps.iter_mut().enumerate() {
        stamps.sort_unstable();
        if stamps.iter().map(|l| l.0).ne(1..=PASSES) {
            return Err(format!(
                "walker {id} stamped {} laps, expected laps 1..={PASSES}",
                stamps.len()
            ));
        }
        s.tasks_ms.extend(stamps.windows(2).map(|w| ms(w[1].1.saturating_sub(w[0].1))));
    }
    Ok(())
}

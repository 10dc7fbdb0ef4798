//! Nanoseconds per iteration of the `walker` benchmark's orbit loop, run
//! in process through the summary-compiled overlay on one thread.
//!
//! Run with `cargo run --release -p msgr-vm --example orbit_ns`. Each
//! round launches 32 messengers of 256 passes × 128 iterations (the
//! walker's shape, without hops); the best of 15 rounds is reported, and
//! every accumulator is checked bit for bit against the same arithmetic
//! in Rust.

use msgr_vm::{compile, MapEnv, MessengerState, Value, Yield};

const ORBIT: &str = r#"
walk(passes, iters, cr, ci) {
    int i = 0;
    int k;
    float zr; float zi; float t;
    float acc = 0.0;
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
        i = i + 1;
    }
    return acc;
}
"#;

const PASSES: i64 = 256;
const ITERS: i64 = 128;
const WALKERS: u32 = 32;
const CR: f64 = -0.1226;
const CI: f64 = 0.7449;

fn expected() -> f64 {
    let mut acc = 0.0f64;
    for _ in 0..PASSES {
        let (mut zr, mut zi) = (0.0f64, 0.0f64);
        for _ in 0..ITERS {
            let t = zr * zr - zi * zi + CR;
            zi = 2.0 * zr * zi + CI;
            zr = t;
        }
        acc = acc + zr + zi;
    }
    acc
}

fn main() {
    let p = msgr_lang::compile(ORBIT).expect("orbit script compiles");
    let summaries = msgr_analyze::summarize(&p);
    let cp = compile::compile_with_summaries(&p, Some(&summaries)).expect("compiles");
    assert_eq!(cp.typed_loops(), 1, "the orbit loop must be licensed");
    let args = [Value::Int(PASSES), Value::Int(ITERS), Value::Float(CR), Value::Float(CI)];
    let want = expected();
    let mut best = f64::INFINITY;
    for _ in 0..15 {
        let t0 = std::time::Instant::now();
        for _ in 0..WALKERS {
            let mut m = MessengerState::launch(&p, 1.into(), &args).expect("launch");
            let out = compile::run(&cp, &p, &mut m, &mut MapEnv::new(), u64::MAX);
            match out {
                Ok(Yield::Terminated(Value::Float(acc))) if acc.to_bits() == want.to_bits() => {}
                other => panic!("walker reported {other:?}, expected {want}"),
            }
        }
        let iterations = f64::from(WALKERS) * (PASSES * ITERS) as f64;
        best = best.min(t0.elapsed().as_nanos() as f64 / iterations);
    }
    println!("orbit loop: {best:.1} ns per iteration (best of 15 rounds)");
}

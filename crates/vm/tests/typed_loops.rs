//! Typed-loop differential property: a summary-licensed `while` loop
//! runs specialized to the kinds of the values it enters with, and must
//! stay bit-identical to the interpreter.
//!
//! The generator writes counted loops as MSGR-C source over locals of
//! mixed kinds (int counters, float accumulators, bools) and read-only
//! locals holding edge values: NaN, infinity, −0.0, `i64::MAX` and
//! `i64::MIN` (so arithmetic wraps), ints above 2^53 (which compare as
//! rounded floats), and bools against numbers in `==`. Many loops are
//! type-unstable (an int that leaves the body as a float), and an outer
//! loop re-enters the inner one after changing a local's kind, so a
//! cached specialization meets other signatures. At *every* fuel level the interpreter and
//! `compile_with_summaries` must agree on the yield, the messenger's
//! wire bytes (frames, bit for bit) and the `ops` charge, and again
//! after resuming an exhausted segment.
//!
//! A mutant specialization (float `Sub` with swapped operands) must be
//! caught, and the fast path must actually run: the per-thread
//! [`compile::loop_probe`] tally pins specialized and boxed entries.

use msgr_check::{check_with, run_check, Config, Source};
use msgr_vm::compile::{self, CompiledProgram, LoopProbe};
use msgr_vm::{interp, wire, MapEnv, MessengerState, Program, Value, VmError, Yield};

const KINDS: [&str; 3] = ["int", "float", "bool"];

/// Read-only locals holding the edge values, declared in every program:
/// NaN (negative on x86 and positive elsewhere: it orders below or
/// above everything under `total_cmp`), infinity, −0.0, 2^53 as a float,
/// 2^53 + 1 (which widens to 2^53), and the ends of `i64`.
const EDGES: &str = "    float nan = 0.0 / 0.0;
    float inf = 1.0 / 0.0;
    float nz = -0.0;
    float f53 = 9007199254740992.0;
    int big = 9007199254740993;
    int max = 9223372036854775807;
    int min = -9223372036854775807 - 1;
    bool yes = true;
";
const EDGE_VARS: [&str; 8] = ["nan", "inf", "nz", "f53", "big", "max", "min", "yes"];

fn init_value(s: &mut Source, kind: &str) -> String {
    let pool: &[&str] = match kind {
        "int" => &["0", "1", "-3", "7", "3037000500", "9007199254740993", "max", "min"],
        "float" => &["0.5", "-0.0", "0.0", "nan", "inf", "1e300", "-2.5", "f53"],
        _ => &["true", "false"],
    };
    s.pick(pool).to_string()
}

/// An expression over the loop's op set: `+ - *`, comparisons,
/// `== !=`, unary `-` and `!`, and assignment expressions (`Dup`); no
/// `/`, `%`, calls or `&&`/`||`, which would void the license.
fn arb_expr(s: &mut Source, vars: &[String], depth: usize) -> String {
    if depth == 0 || s.bool_with(0.3) {
        return match s.draw(6) {
            0 | 1 => s.pick(vars).clone(),
            2 | 3 => s.pick(&EDGE_VARS).to_string(),
            4 => s.pick(&["1", "2", "0", "3", "0.5", "1.0", "2.0", "0.0", "-0.0"]).to_string(),
            _ => s.pick(&["true", "false", "k", "n"]).to_string(),
        };
    }
    match s.draw(8) {
        0 => format!("{}({})", s.pick(&["-", "!"]), arb_expr(s, vars, depth - 1)),
        1 => format!("({} = {})", s.pick(vars), arb_expr(s, vars, depth - 1)),
        _ => {
            let op = s.pick(&["+", "-", "*", "-", "*", "==", "!=", "==", "<", "<=", ">", ">="]);
            let a = arb_expr(s, vars, depth - 1);
            let b = arb_expr(s, vars, depth - 1);
            format!("({a} {op} {b})")
        }
    }
}

/// A counted inner loop, re-entered by an outer one that may change a
/// local's kind between entries.
fn arb_source(s: &mut Source) -> String {
    let mut src = String::from("main() {\n    int j = 0;\n    int k;\n");
    src += &format!("    int n = {};\n{EDGES}", s.i64_in(0..6));
    let vars: Vec<String> = (0..s.usize_in(1..5)).map(|v| format!("v{v}")).collect();
    for v in &vars {
        let kind = *s.pick(&KINDS);
        src += &format!("    {kind} {v} = {};\n", init_value(s, kind));
    }
    // `(n - k) * nan` never exits: NaN is truthy. Such a run ends on
    // the fuel cap, at the same op under both engines.
    let cond = s.pick(&["k < n", "n > k", "!(k >= n)", "n - k", "(n - k) * 0.5", "(n - k) * nan"]);
    src += &format!("    while (j < {}) {{\n        k = 0;\n", s.i64_in(1..3));
    src += &format!("        while ({cond}) {{\n");
    for _ in 0..s.usize_in(1..5) {
        let dst = s.pick(&vars).clone();
        let depth = if s.bool_with(0.2) { 3 } else { 2 };
        let expr = arb_expr(s, &vars, depth);
        if s.bool_with(0.4) {
            // Accumulate: keeps kinds stable more often, and compounds
            // values until ints wrap and floats overflow.
            let op = s.pick(&["+", "-", "*"]);
            src += &format!("            {dst} = {dst} {op} {expr};\n");
        } else {
            src += &format!("            {dst} = {expr};\n");
        }
    }
    src += "            k = k + 1;\n        }\n";
    if s.bool_with(0.5) {
        let dst = s.pick(&vars).clone();
        let kind = *s.pick(&KINDS);
        src += &format!("        {dst} = {};\n", init_value(s, kind));
    }
    src += "        j = j + 1;\n    }\n    return v0;\n}\n";
    src
}

fn show(r: &Result<Yield, VmError>) -> String {
    match r {
        Ok(Yield::Terminated(Value::Float(x))) => format!("Terminated(Float({:#x}))", x.to_bits()),
        other => format!("{other:?}"),
    }
}

/// One segment on each engine from the same state; every observable
/// must agree bit for bit.
fn segment(
    p: &Program,
    cp: &CompiledProgram,
    mi: &mut MessengerState,
    mc: &mut MessengerState,
    fuel: u64,
) -> Result<Result<Yield, VmError>, String> {
    let (mut ei, mut ec) = (MapEnv::new(), MapEnv::new());
    let ri = interp::run(p, mi, &mut ei, fuel);
    let rc = compile::run(cp, p, mc, &mut ec, fuel);
    if show(&ri) != show(&rc) {
        return Err(format!("fuel {fuel}: yields diverge\n  interp:   {ri:?}\n  compiled: {rc:?}"));
    }
    if wire::encode_messenger(mi)[..] != wire::encode_messenger(mc)[..] {
        return Err(format!(
            "fuel {fuel}: frames diverge\n  interp:   {:?}\n  compiled: {:?}",
            mi.frames, mc.frames
        ));
    }
    if ei.ops != ec.ops {
        return Err(format!("fuel {fuel}: ops charge diverges ({} vs {})", ei.ops, ec.ops));
    }
    Ok(ri)
}

/// Fuel cap of one run: a generated loop may never exit.
const CAP: u64 = 800;

/// Every fuel level from 0 to one past the full run's charge (at most
/// [`CAP`]); an exhausted segment is resumed to the same limit and
/// compared again.
fn every_fuel(p: &Program, cp: &CompiledProgram) -> Result<(), String> {
    let launch = || MessengerState::launch(p, 1.into(), &[]).map_err(|e| e.to_string());
    let mut env = MapEnv::new();
    match interp::run(p, &mut launch()?, &mut env, CAP) {
        Ok(_) | Err(VmError::FuelExhausted) => {}
        Err(e) => return Err(e.to_string()),
    }
    let whole = env.ops + 1;
    for fuel in 0..=whole {
        let (mut mi, mut mc) = (launch()?, launch()?);
        if let Err(VmError::FuelExhausted) = segment(p, cp, &mut mi, &mut mc, fuel)? {
            segment(p, cp, &mut mi, &mut mc, whole)
                .map(drop)
                .map_err(|e| format!("resumed after fuel {fuel}: {e}"))?;
        }
    }
    Ok(())
}

fn case(
    s: &mut Source,
    compile_of: impl Fn(&Program, &msgr_vm::SummaryTable) -> Result<CompiledProgram, String>,
) -> Result<(), String> {
    let src = arb_source(s);
    let p = msgr_lang::compile(&src).map_err(|e| format!("generated source: {e}\n{src}"))?;
    msgr_analyze::verify(&p).map_err(|e| format!("generated source fails to verify: {e:?}"))?;
    let cp = compile_of(&p, &msgr_analyze::summarize(&p))?;
    if cp.typed_loops() != 1 {
        return Err(format!("the inner loop must be licensed\n{src}"));
    }
    every_fuel(&p, &cp).map_err(|e| format!("{e}\n{src}"))
}

fn honest(p: &Program, t: &msgr_vm::SummaryTable) -> Result<CompiledProgram, String> {
    compile::compile_with_summaries(p, Some(t))
}

#[test]
fn typed_loops_match_the_interpreter_at_every_fuel() {
    compile::loop_probe();
    check_with(Config::default(), "typed_loops_match", |s| case(s, honest));
    let seen = compile::loop_probe();
    // Not vacuous: loops ran specialized, and unstable or mismatched
    // signatures ran boxed.
    assert!(seen.specialized > 0 && seen.typed > 0, "no loop ran specialized: {seen:?}");
    assert!(seen.boxed > 0, "no licensed loop fell back to boxed: {seen:?}");
}

#[test]
fn mutation_check_catches_a_miscompiled_specialization() {
    // Float `Sub` lowered with swapped operands, in the specialized path
    // only: the property above must reject it.
    let cfg = Config { cases: 128, max_shrink: 16 };
    let out = run_check(cfg, "typed_loops_mutant", |s| case(s, compile::compile_typed_miscompiled));
    let failure = out.expect_err("the swapped float Sub must be observable");
    let report = failure.report();
    assert!(report.contains("diverge"), "unexpected failure shape: {report}");
}

/// The walker benchmark's orbit loop, entered once per pass.
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

const FUEL: u64 = 10_000_000;

fn run_both(p: &Program, cp: &CompiledProgram, args: &[Value]) -> Value {
    let mut mi = MessengerState::launch(p, 1.into(), args).unwrap();
    let mut mc = MessengerState::launch(p, 1.into(), args).unwrap();
    let r = segment(p, cp, &mut mi, &mut mc, FUEL).unwrap();
    let Ok(Yield::Terminated(v)) = r else { panic!("unexpected outcome {r:?}") };
    v
}

#[test]
fn walker_orbit_loop_is_specialized_once_and_reused() {
    let p = msgr_lang::compile(ORBIT).unwrap();
    let cp = compile::compile_with_summaries(&p, Some(&msgr_analyze::summarize(&p))).unwrap();
    assert_eq!(cp.typed_loops(), 1);
    let args = [Value::Int(5), Value::Int(128), Value::Float(-0.1226), Value::Float(0.7449)];
    compile::loop_probe();
    run_both(&p, &cp, &args);
    let first = compile::loop_probe();
    assert_eq!(first, LoopProbe { specialized: 1, typed: 5, boxed: 0 });
    // A second messenger on the same compiled program: no new lowering.
    run_both(&p, &cp, &args);
    assert_eq!(compile::loop_probe(), LoopProbe { specialized: 0, typed: 5, boxed: 0 });
}

#[test]
fn a_loop_whose_int_leaves_as_a_float_runs_boxed_and_still_matches() {
    let src = "main() { int x = 1; int k = 0; \
               while (k < 4) { x = x + 0.5; k = k + 1; } return x; }";
    let p = msgr_lang::compile(src).unwrap();
    let cp = compile::compile_with_summaries(&p, Some(&msgr_analyze::summarize(&p))).unwrap();
    assert_eq!(cp.typed_loops(), 1, "the loop is licensed");
    // Park the messenger at the loop head (pc 4) after the four setup
    // ops, so the loop is entered with `x` still an Int. (Run straight
    // through, a span would carry the first iteration past the head.)
    let mut mi = MessengerState::launch(&p, 1.into(), &[]).unwrap();
    let mut mc = MessengerState::launch(&p, 1.into(), &[]).unwrap();
    let r = segment(&p, &cp, &mut mi, &mut mc, 4).unwrap();
    assert!(matches!(r, Err(VmError::FuelExhausted)), "{r:?}");
    assert_eq!((mc.frames[0].pc, &mc.frames[0].locals[0]), (4, &Value::Int(1)));
    compile::loop_probe();
    let r = segment(&p, &cp, &mut mi, &mut mc, FUEL).unwrap();
    assert_eq!(r, Ok(Yield::Terminated(Value::Float(3.0))));
    assert_eq!(compile::loop_probe(), LoopProbe { specialized: 0, typed: 0, boxed: 1 });
    every_fuel(&p, &cp).unwrap();
}

//! The compiled overlay: fused code the interpreter's dispatch loop
//! consults at each pc.
//!
//! [`compile`] translates verified [`Program`] bytecode into three kinds
//! of superinstruction, each indexed by the pc it starts at:
//!
//! * **Fused spans** — straight-line runs of pure stack code lowered to
//!   one closure tree that evaluates the run's expression trees directly
//!   out of frame locals, bypassing the operand stack. They subsume the
//!   hot patterns the MSGR-C compiler emits: `const/binop/store`
//!   (`i = i + 1`), `compare-and-branch` (`while (i < passes)` loop
//!   heads) and `load/hop` (`hop(ll = "ring"; ldir = +)`).
//! * **Fused loops** — whole `while` loops run as flat register code
//!   over boxed values (`run_loop`), or, when an effect summary licenses
//!   the loop, specialized to the kinds its values enter with
//!   (`run_loop_typed`; see "Typed loops" below).
//! * **Inlined calls** — a `Call` to a proven straight-line pure leaf
//!   runs without an activation frame.
//!
//! Everything else — and every op after a fault — runs through
//! [`crate::interp`]'s single-op step, the one definition of each
//! opcode's semantics.
//!
//! # Engine contract
//!
//! [`run`] is observationally identical to [`crate::interp::run`]: same
//! yields, same final frames (pc, locals, operand stack), same node-var
//! effects, same `ops` charge, same errors at the same positions — at
//! *any* fuel. `tests/diff_props.rs` checks this differentially on
//! generated programs. Two mechanisms make exactness cheap:
//!
//! * **Resume points**: the overlay is consulted only where a pc has a
//!   fused head, and the interpreter step runs everywhere else, so a
//!   messenger can enter a function at *any* pc — a hop arrival, a
//!   parked messenger resuming after `M_sched_*`, or a restored
//!   checkpoint all resume mid-block without special cases.
//! * **Optimistic spans with deopt**: a fused span buffers its local
//!   stores and touches nothing until every sub-expression has
//!   evaluated. On any error it discards the buffered results and
//!   *deoptimizes*: the dispatcher replays the span through the
//!   interpreter step, which reproduces the interpreter's exact partial
//!   state (pc, half-built stack, ops) at the fault by construction.
//!   Spans run only when the whole span fits in the remaining fuel, so
//!   fuel-exhaustion positions are bit-exact too.
//!
//! # Typed loops
//!
//! A summary-licensed loop uses only ops that are total over `Int`,
//! `Float` and `Bool`. On its first entry the loop reads the kind of
//! each slot it uses and abstract-interprets its condition and body once
//! over those kinds, with `binop`'s rules. The signature is *stable* if
//! every slot leaves the body with the kind it entered with; then the
//! kinds of every register at every op are the same on every iteration,
//! and the loop is lowered to monomorphic ops (`FAdd`, `IAdd`, `FLt`,
//! `ToF`, …) over an unboxed `f64` file and an `i64` file (bools as
//! 0/1). Stores of a temporary fold into the op that made it. The
//! lowering is cached in the loop, keyed by that first stable
//! signature: a later entry compares the kinds of its slots and runs
//! with no allocation. An entry with another signature, an unstable
//! one, or a used slot outside the three kinds runs on the boxed
//! `run_loop`. Both executors charge fuel, write back and exit the same
//! way, and neither changes any float operation or its order.
//!
//! # Precondition: verification
//!
//! The compiler assumes structurally sane code — in-range constant pool
//! and local-slot indices, jump targets inside the function — which is
//! exactly what `msgr-analyze::verify` establishes before a program is
//! admitted to the code registry. Compiling unverified code is safe
//! (ops the compiler cannot prove sane are left to the interpreter step,
//! which fails like the interpreter fails) but pointless; the daemon
//! registry therefore compiles right after verification and quarantines
//! on failure.

use std::sync::{Arc, OnceLock};

use crate::binop;
use crate::bytecode::{Dir, LinkPat, NodePat, Op, Program};
use crate::error::VmError;
use crate::interp::{self, Env, EvalHop, EvalLink, Yield};
use crate::state::{Frame, MessengerState};
use crate::summary::SummaryTable;
use crate::value::Value;

/// What a superinstruction tells the dispatcher to do next.
enum Ctrl {
    /// Continue at `frame.pc` (the superinstruction already set it).
    Next,
    /// Segment over: surface the yield.
    Yield(Yield),
    /// A fault is pending at `frame.pc`, with nothing of the faulting
    /// work committed: re-execute from there through the interpreter
    /// step, which reproduces the exact fault state.
    Deopt,
}

/// A pure sub-expression of a fused span: evaluates against frame locals
/// and the span's already-computed store values. Never touches the
/// operand stack.
type ExprFn = Box<dyn Fn(&Frame, &[Option<Value>]) -> Result<Value, VmError> + Send + Sync>;

/// A fused superinstruction covering `need` consecutive bytecode ops.
struct SpanStep {
    /// Exact ops consumed; the dispatcher runs the span only when all of
    /// them fit in the remaining fuel.
    need: u32,
    run: Box<dyn Fn(&mut Frame) -> Ctrl + Send + Sync>,
}

struct CompiledFunc {
    /// Fused spans, indexed by head pc.
    spans: Vec<Option<SpanStep>>,
    /// Fused counted loops, indexed by loop-head pc (the strongest
    /// superinstruction: whole `while` loops run as flat register code).
    loops: Vec<Option<LoopStep>>,
    /// Fused calls to proven straight-line pure leaf functions, indexed
    /// by the `Call` pc. Only populated when the compiler was handed an
    /// effect-summary table.
    inlines: Vec<Option<InlineStep>>,
}

/// A program's compiled overlay; build with [`compile`], execute with
/// [`run`]. Shareable across daemon threads (`Arc`) — closures hold no
/// mutable state.
pub struct CompiledProgram {
    funcs: Vec<CompiledFunc>,
    n_superinsts: u64,
    n_loops: u64,
    n_steps: u64,
    n_inlines: u64,
    n_typed_loops: u64,
}

impl std::fmt::Debug for CompiledProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledProgram")
            .field("funcs", &self.funcs.len())
            .field("steps", &self.n_steps)
            .field("superinsts", &self.n_superinsts)
            .field("loops", &self.n_loops)
            .finish()
    }
}

impl CompiledProgram {
    /// Number of fused superinstructions across all functions (spans
    /// plus fused loops).
    pub fn superinstructions(&self) -> u64 {
        self.n_superinsts
    }

    /// Number of whole-`while`-loop superinstructions among them.
    pub fn fused_loops(&self) -> u64 {
        self.n_loops
    }

    /// Total bytecode ops compiled (each pc the overlay covers).
    pub fn steps(&self) -> u64 {
        self.n_steps
    }

    /// Number of compiled functions.
    pub fn func_count(&self) -> usize {
        self.funcs.len()
    }

    /// Number of `Call` sites fused through to a proven-pure leaf
    /// callee (0 unless compiled with summaries).
    pub fn inlined_calls(&self) -> u64 {
        self.n_inlines
    }

    /// Number of fused loops licensed for the unboxed typed fast path
    /// (0 unless compiled with summaries).
    pub fn typed_loops(&self) -> u64 {
        self.n_typed_loops
    }
}

/// Compile a (verified) program's overlay.
///
/// # Errors
///
/// Structural limits only (a function body too large to index by `u32`);
/// verified programs always compile.
pub fn compile(p: &Program) -> Result<CompiledProgram, String> {
    compile_full(p, None, Mutant::None)
}

/// Compile with interprocedural effect summaries (from
/// `msgr-analyze::summarize`). The summaries unlock two fusions the
/// summary-blind compiler cannot justify:
///
/// - **Call fusion**: a `Call` to a function with a proven `exact_ops`
///   fact executes in the caller's dispatch loop — no activation frame
///   — bulk-charging `1 + exact_ops` fuel. The charge *trusts* the
///   summary; a wrong `exact_ops` is an observable miscompile (by
///   design — see the corruption check in `tests/diff_props.rs`).
/// - **Typed loops**: a fused `while` loop whose head carries a
///   `pure_loops` license runs specialized to its entry kinds over
///   unboxed `f64`/`i64` registers, with no per-iteration deopt checks.
///
/// `compile_with_summaries(p, None)` is exactly [`compile`].
///
/// # Errors
///
/// As for [`compile`].
pub fn compile_with_summaries(
    p: &Program,
    summaries: Option<&SummaryTable>,
) -> Result<CompiledProgram, String> {
    compile_full(p, summaries, Mutant::None)
}

/// Test hook: compile with a deliberately miscompiled superinstruction
/// (fused arithmetic evaluates its operands swapped). The differential
/// suite uses this to prove it would catch a real miscompile.
///
/// # Errors
///
/// As for [`compile`].
#[doc(hidden)]
pub fn compile_miscompiled(p: &Program) -> Result<CompiledProgram, String> {
    compile_full(p, None, Mutant::SwapFused)
}

/// Test hook: compile with summaries, but lower every typed-loop
/// specialization's float `Sub` with its operands swapped. Only the
/// specialized path is wrong; the typed-loop differential property
/// must catch it.
///
/// # Errors
///
/// As for [`compile`].
#[doc(hidden)]
pub fn compile_typed_miscompiled(
    p: &Program,
    summaries: &SummaryTable,
) -> Result<CompiledProgram, String> {
    compile_full(p, Some(summaries), Mutant::SwapTypedSub)
}

/// A deliberate miscompile, for the mutation checks.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mutant {
    None,
    /// Fused arithmetic in spans and loops evaluates operands swapped.
    SwapFused,
    /// Typed specializations lower float `Sub` with operands swapped.
    SwapTypedSub,
}

fn compile_full(
    p: &Program,
    summaries: Option<&SummaryTable>,
    mutant: Mutant,
) -> Result<CompiledProgram, String> {
    let mutate = mutant == Mutant::SwapFused;
    let consts: Arc<Vec<Value>> = Arc::new(p.consts.clone());
    let mut funcs = Vec::with_capacity(p.funcs.len());
    let mut n_superinsts = 0u64;
    let mut n_loops = 0u64;
    let mut n_steps = 0u64;
    let mut n_inlines = 0u64;
    let mut n_typed_loops = 0u64;
    for (fi, f) in p.funcs.iter().enumerate() {
        if f.code.len() >= u32::MAX as usize {
            return Err(format!("function `{}` too large to compile", f.name));
        }
        let n_slots = f.n_slots as usize;
        let spans: Vec<Option<SpanStep>> = (0..f.code.len())
            .map(|pc| build_span(p, &f.code, n_slots, pc as u32, mutate))
            .collect();
        let mut loops: Vec<Option<LoopStep>> = (0..f.code.len())
            .map(|pc| build_loop(p, &f.code, n_slots, pc as u32, mutate))
            .collect();
        let inlines: Vec<Option<InlineStep>> = (0..f.code.len())
            .map(|pc| {
                summaries.and_then(|t| build_inline(p, t, &consts, &f.code[pc], pc as u32 + 1))
            })
            .collect();
        if let Some(s) = summaries.and_then(|t| t.funcs.get(fi)) {
            for (pc, slot) in loops.iter_mut().enumerate() {
                if let Some(lp) = slot {
                    if s.pure_loops.contains(&(pc as u32)) && loop_regops_typed(lp) {
                        lp.typed = Some(TypedLoop::new(lp, mutant == Mutant::SwapTypedSub));
                        n_typed_loops += 1;
                    }
                }
            }
        }
        n_superinsts += spans.iter().flatten().count() as u64;
        n_loops += loops.iter().flatten().count() as u64;
        n_steps += f.code.len() as u64;
        n_inlines += inlines.iter().flatten().count() as u64;
        funcs.push(CompiledFunc { spans, loops, inlines });
    }
    n_superinsts += n_loops;
    Ok(CompiledProgram { funcs, n_superinsts, n_loops, n_steps, n_inlines, n_typed_loops })
}

/// Execute `m` until it yields, returns, or errors — the interpreter
/// with the compiled overlay consulted at each pc, with behavior
/// identical to [`crate::interp::run`].
///
/// # Errors
///
/// Any [`VmError`], exactly as the interpreter would raise it.
pub fn run(
    cp: &CompiledProgram,
    program: &Program,
    m: &mut MessengerState,
    env: &mut dyn Env,
    fuel: u64,
) -> Result<Yield, VmError> {
    let mut ops: u64 = 0;
    let interval = env.sample_interval();
    let mut next = if interval == 0 { u64::MAX } else { interval };
    let out = run_inner(cp, program, m, env, fuel, &mut ops, &mut next, interval);
    env.charge_ops(ops);
    out
}

#[allow(clippy::too_many_arguments)]
fn run_inner(
    cp: &CompiledProgram,
    program: &Program,
    m: &mut MessengerState,
    env: &mut dyn Env,
    fuel: u64,
    ops: &mut u64,
    next: &mut u64,
    interval: u64,
) -> Result<Yield, VmError> {
    // Once the overlay deopts, finish the segment on the interpreter
    // step: the fault that forced the deopt is about to re-fire with
    // exact interpreter state.
    let mut fast = true;
    loop {
        if *ops >= fuel {
            return Err(VmError::FuelExhausted);
        }
        // Bulk-charged superinstructions (fused loops, inlined calls,
        // spans) attribute all their ops to the head pc of the next
        // dispatch — per-superinstruction attribution, same key space as
        // the interpreter's flat profile.
        interp::sample(m, env, *ops, next, interval);
        if fast {
            match overlay(cp, m, fuel, ops) {
                Some(Ctrl::Next) => continue,
                Some(Ctrl::Yield(y)) => return Ok(y),
                Some(Ctrl::Deopt) => {
                    fast = false;
                    continue;
                }
                None => {}
            }
        }
        if let Some(y) = interp::step(program, m, env, ops)? {
            return Ok(y);
        }
    }
}

/// Run the superinstruction fused at the current pc, if there is one and
/// it fits in the remaining fuel. `None` leaves the state untouched for
/// the interpreter step.
fn overlay(cp: &CompiledProgram, m: &mut MessengerState, fuel: u64, ops: &mut u64) -> Option<Ctrl> {
    let frame = m.frames.last_mut()?;
    let cf = cp.funcs.get(frame.func.0 as usize)?;
    let pc = frame.pc as usize;
    // Fused counted loops run first: whole iterations execute as flat
    // register code, bulk-charged, as long as each full iteration fits
    // in the remaining fuel. The partial last iteration (and any fault)
    // falls back to spans and the interpreter step.
    if let Some(lp) = cf.loops.get(pc)?.as_ref() {
        if *ops + u64::from(lp.per_iter) <= fuel {
            // Summary-licensed loops run specialized when the frame
            // matches the cached signature; anything else runs boxed.
            let typed = lp.typed.as_ref().and_then(|t| run_loop_typed(lp, t, frame, fuel, ops));
            if let Some(ctrl) = typed.or_else(|| run_loop(lp, frame, fuel, ops)) {
                return Some(ctrl);
            }
        }
    }
    // Summary-fused calls: a `Call` whose callee is proven straight-line
    // pure executes inline — no activation frame — and bulk-charges
    // `1 + exact_ops`. The charge trusts the summary (a wrong `exact_ops`
    // diverges the ops count and is caught by the differential suite);
    // eligibility and the result value are recomputed from the real
    // callee bytecode, so a fault or unsupported op bails to the exact
    // interpreter step.
    if let Some(il) = cf.inlines[pc].as_ref() {
        if *ops + 1 + u64::from(il.exact_ops) <= fuel {
            if let Some(ret) = run_inline(il, &frame.stack) {
                let keep = frame.stack.len() - il.arity;
                frame.stack.truncate(keep);
                frame.stack.push(ret);
                *ops += 1 + u64::from(il.exact_ops);
                frame.pc = il.next;
                return Some(Ctrl::Next);
            }
        }
    }
    // A span runs only when it fits in the remaining fuel; near
    // exhaustion the interpreter step hits the fuel wall at the exact op.
    let sp = cf.spans[pc].as_ref().filter(|sp| *ops + u64::from(sp.need) <= fuel)?;
    let ctrl = (sp.run)(frame);
    if !matches!(ctrl, Ctrl::Deopt) {
        *ops += u64::from(sp.need);
    }
    Some(ctrl)
}

// ---------------------------------------------------------------------
// Superinstruction spans: symbolic execution of straight-line pure
// stack code into expression trees, lowered to closure trees.
// ---------------------------------------------------------------------

/// A pure sub-expression discovered by symbolic execution.
enum VNode {
    Const(Value),
    Local(usize),
    /// Forwarded value of an earlier in-span store (index into the
    /// span's store-value array) — keeps `x = ...; y = x + 1` fused
    /// without re-evaluating `x`'s tree.
    Stored(usize),
    Bin(Op, Box<VNode>, Box<VNode>),
    Cmp(Op, Box<VNode>, Box<VNode>),
    Eq {
        ne: bool,
        a: Box<VNode>,
        b: Box<VNode>,
    },
    Neg(Box<VNode>),
    Not(Box<VNode>),
    MakeArr {
        n: Box<VNode>,
        default: Box<VNode>,
    },
    IndexGet {
        arr: Box<VNode>,
        idx: Box<VNode>,
    },
    IndexSet {
        arr: Box<VNode>,
        idx: Box<VNode>,
        val: Box<VNode>,
    },
}

/// How a span hands control back.
enum EndPlan {
    /// Next op is not fusable; fall through to it.
    Fall { next: u32 },
    /// Trailing unconditional `Jump`.
    Jump { target: u32 },
    /// Trailing conditional jump (compare-and-branch).
    Branch { cond: ExprFn, jump_if_true: bool, keep: bool, target: u32, next: u32 },
    /// Trailing `hop`/`delete` (load/hop).
    Hop { delete: bool, ldir: Dir, ln: Option<ExprFn>, ll: LinkPlan, next: u32 },
}

enum LinkPlan {
    Wild,
    Unnamed,
    Virtual,
    Expr(ExprFn),
}

const MAX_STORES: usize = 8;
const MAX_LEFTOVER: usize = 16;
const MAX_DISCARDS: usize = 8;
const MAX_SPAN_OPS: u32 = 96;
const MAX_NODES: usize = 192;

struct SpanBuilder {
    vstack: Vec<VNode>,
    stores: Vec<(usize, VNode)>,
    discards: Vec<VNode>,
    nodes: usize,
    len: u32,
}

impl SpanBuilder {
    fn full(&self) -> bool {
        self.len >= MAX_SPAN_OPS || self.nodes >= MAX_NODES
    }
}

/// Symbolically execute a straight-line run starting at `head`,
/// producing a fused span if it covers at least two ops.
#[allow(clippy::too_many_lines)]
fn build_span(
    p: &Program,
    code: &[Op],
    n_slots: usize,
    head: u32,
    mutate: bool,
) -> Option<SpanStep> {
    let mut b = SpanBuilder {
        vstack: Vec::new(),
        stores: Vec::new(),
        discards: Vec::new(),
        nodes: 0,
        len: 0,
    };
    // Last store index per slot, for store-to-load forwarding.
    let mut binding: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    let mut j = head as usize;
    let end: EndPlan = loop {
        if j >= code.len() || b.full() {
            break EndPlan::Fall { next: j as u32 };
        }
        let next = j as u32 + 1;
        match code[j] {
            Op::Const(i) if b.vstack.len() < MAX_LEFTOVER => match p.consts.get(i as usize) {
                Some(v) => b.vstack.push(VNode::Const(v.clone())),
                None => break EndPlan::Fall { next: j as u32 },
            },
            Op::LoadLocal(i) if (i as usize) < n_slots && b.vstack.len() < MAX_LEFTOVER => {
                let slot = i as usize;
                b.vstack.push(match binding.get(&slot) {
                    Some(&k) => VNode::Stored(k),
                    None => VNode::Local(slot),
                });
            }
            Op::StoreLocal(i)
                if (i as usize) < n_slots
                    && !b.vstack.is_empty()
                    && b.stores.len() < MAX_STORES =>
            {
                let n = b.vstack.pop().expect("non-empty");
                binding.insert(i as usize, b.stores.len());
                b.stores.push((i as usize, n));
            }
            Op::Add | Op::Sub | Op::Mul | Op::Div | Op::Mod if b.vstack.len() >= 2 => {
                let rhs = Box::new(b.vstack.pop().expect("len>=2"));
                let lhs = Box::new(b.vstack.pop().expect("len>=2"));
                b.vstack.push(VNode::Bin(code[j], lhs, rhs));
                b.nodes += 1;
            }
            Op::Lt | Op::Le | Op::Gt | Op::Ge if b.vstack.len() >= 2 => {
                let rhs = Box::new(b.vstack.pop().expect("len>=2"));
                let lhs = Box::new(b.vstack.pop().expect("len>=2"));
                b.vstack.push(VNode::Cmp(code[j], lhs, rhs));
                b.nodes += 1;
            }
            Op::Eq | Op::Ne if b.vstack.len() >= 2 => {
                let rhs = Box::new(b.vstack.pop().expect("len>=2"));
                let lhs = Box::new(b.vstack.pop().expect("len>=2"));
                b.vstack.push(VNode::Eq { ne: matches!(code[j], Op::Ne), a: lhs, b: rhs });
                b.nodes += 1;
            }
            Op::Neg if !b.vstack.is_empty() => {
                let a = Box::new(b.vstack.pop().expect("non-empty"));
                b.vstack.push(VNode::Neg(a));
                b.nodes += 1;
            }
            Op::Not if !b.vstack.is_empty() => {
                let a = Box::new(b.vstack.pop().expect("non-empty"));
                b.vstack.push(VNode::Not(a));
                b.nodes += 1;
            }
            Op::MakeArr if b.vstack.len() >= 2 => {
                let default = Box::new(b.vstack.pop().expect("len>=2"));
                let n = Box::new(b.vstack.pop().expect("len>=2"));
                b.vstack.push(VNode::MakeArr { n, default });
                b.nodes += 1;
            }
            Op::IndexGet if b.vstack.len() >= 2 => {
                let idx = Box::new(b.vstack.pop().expect("len>=2"));
                let arr = Box::new(b.vstack.pop().expect("len>=2"));
                b.vstack.push(VNode::IndexGet { arr, idx });
                b.nodes += 1;
            }
            Op::IndexSet if b.vstack.len() >= 3 => {
                let val = Box::new(b.vstack.pop().expect("len>=3"));
                let idx = Box::new(b.vstack.pop().expect("len>=3"));
                let arr = Box::new(b.vstack.pop().expect("len>=3"));
                b.vstack.push(VNode::IndexSet { arr, idx, val });
                b.nodes += 1;
            }
            Op::Pop if !b.vstack.is_empty() && b.discards.len() < MAX_DISCARDS => {
                // The popped expression still has to evaluate: the
                // interpreter would have run (and possibly faulted on)
                // the ops that built it.
                let n = b.vstack.pop().expect("non-empty");
                b.discards.push(n);
            }
            Op::Jump(off) => {
                b.len += 1;
                break EndPlan::Jump { target: binop::jump(next, off) };
            }
            Op::JumpIfFalse(off) if !b.vstack.is_empty() => {
                let cond = lower(b.vstack.pop().expect("non-empty"), mutate);
                b.len += 1;
                break EndPlan::Branch {
                    cond,
                    jump_if_true: false,
                    keep: false,
                    target: binop::jump(next, off),
                    next,
                };
            }
            Op::JumpIfTruePeek(off) if !b.vstack.is_empty() => {
                let cond = lower(b.vstack.pop().expect("non-empty"), mutate);
                b.len += 1;
                break EndPlan::Branch {
                    cond,
                    jump_if_true: true,
                    keep: true,
                    target: binop::jump(next, off),
                    next,
                };
            }
            Op::JumpIfFalsePeek(off) if !b.vstack.is_empty() => {
                let cond = lower(b.vstack.pop().expect("non-empty"), mutate);
                b.len += 1;
                break EndPlan::Branch {
                    cond,
                    jump_if_true: false,
                    keep: true,
                    target: binop::jump(next, off),
                    next,
                };
            }
            Op::Hop(i) | Op::Delete(i) => {
                let Some(spec) = p.hop_specs.get(i as usize).copied() else {
                    break EndPlan::Fall { next: j as u32 };
                };
                if spec.operand_count() > b.vstack.len() {
                    break EndPlan::Fall { next: j as u32 };
                }
                // Operands were pushed ln-then-ll: ll is on top.
                let ll = match spec.ll {
                    LinkPat::Wild => LinkPlan::Wild,
                    LinkPat::Unnamed => LinkPlan::Unnamed,
                    LinkPat::Virtual => LinkPlan::Virtual,
                    LinkPat::Expr => {
                        LinkPlan::Expr(lower(b.vstack.pop().expect("checked above"), mutate))
                    }
                };
                let ln = match spec.ln {
                    NodePat::Wild => None,
                    NodePat::Expr => Some(lower(b.vstack.pop().expect("checked above"), mutate)),
                };
                b.len += 1;
                break EndPlan::Hop {
                    delete: matches!(code[j], Op::Delete(_)),
                    ldir: spec.ldir,
                    ln,
                    ll,
                    next,
                };
            }
            _ => break EndPlan::Fall { next: j as u32 },
        }
        b.len += 1;
        j += 1;
    };
    if b.len < 2 {
        return None;
    }
    // Only the final store to a slot is published; earlier ones still
    // evaluate (for fault equivalence) but their values are dropped.
    let mut last_for_slot: std::collections::HashMap<usize, usize> =
        std::collections::HashMap::new();
    for (k, (slot, _)) in b.stores.iter().enumerate() {
        last_for_slot.insert(*slot, k);
    }
    let stores: Vec<(usize, bool, ExprFn)> = b
        .stores
        .into_iter()
        .enumerate()
        .map(|(k, (slot, n))| (slot, last_for_slot[&slot] == k, lower(n, mutate)))
        .collect();
    let discards: Vec<ExprFn> = b.discards.into_iter().map(|n| lower(n, mutate)).collect();
    let leftovers: Vec<ExprFn> = b.vstack.into_iter().map(|n| lower(n, mutate)).collect();
    let need = b.len;
    let run = Box::new(move |fr: &mut Frame| {
        // Evaluate everything before touching any observable state; on
        // any fault, deopt and let the interpreter step replay from
        // `head` with its exact semantics.
        let mut sv: [Option<Value>; MAX_STORES] = Default::default();
        for (k, (_, _, e)) in stores.iter().enumerate() {
            match e(fr, &sv) {
                Ok(v) => sv[k] = Some(v),
                Err(_) => return Ctrl::Deopt,
            }
        }
        for e in &discards {
            if e(fr, &sv).is_err() {
                return Ctrl::Deopt;
            }
        }
        let mut lv: [Option<Value>; MAX_LEFTOVER] = Default::default();
        for (k, e) in leftovers.iter().enumerate() {
            match e(fr, &sv) {
                Ok(v) => lv[k] = Some(v),
                Err(_) => return Ctrl::Deopt,
            }
        }
        let ctrl = match &end {
            EndPlan::Fall { next } => {
                fr.pc = *next;
                Ctrl::Next
            }
            EndPlan::Jump { target } => {
                fr.pc = *target;
                Ctrl::Next
            }
            EndPlan::Branch { cond, jump_if_true, keep, target, next } => {
                let Ok(v) = cond(fr, &sv) else { return Ctrl::Deopt };
                fr.pc = if v.is_truthy() == *jump_if_true { *target } else { *next };
                if *keep {
                    // Peek branches leave the condition on the stack.
                    commit(fr, &stores, &mut sv, &mut lv, leftovers.len());
                    fr.stack.push(v);
                    return Ctrl::Next;
                }
                Ctrl::Next
            }
            EndPlan::Hop { delete, ldir, ln, ll, next } => {
                let ll = match ll {
                    LinkPlan::Wild => EvalLink::Wild,
                    LinkPlan::Unnamed => EvalLink::Unnamed,
                    LinkPlan::Virtual => EvalLink::Virtual,
                    LinkPlan::Expr(e) => match e(fr, &sv) {
                        Ok(v) => EvalLink::of(v),
                        Err(_) => return Ctrl::Deopt,
                    },
                };
                let ln = match ln {
                    None => None,
                    Some(e) => match e(fr, &sv) {
                        Ok(v) => Some(v),
                        Err(_) => return Ctrl::Deopt,
                    },
                };
                fr.pc = *next;
                let eh = EvalHop { ln, ll, ldir: *ldir };
                Ctrl::Yield(if *delete { Yield::Delete(eh) } else { Yield::Hop(eh) })
            }
        };
        commit(fr, &stores, &mut sv, &mut lv, leftovers.len());
        ctrl
    });
    Some(SpanStep { need, run })
}

/// Publish a successful span: final store per slot, then leftovers in
/// stack order. Only runs after every sub-expression evaluated cleanly.
fn commit(
    fr: &mut Frame,
    stores: &[(usize, bool, ExprFn)],
    sv: &mut [Option<Value>; MAX_STORES],
    lv: &mut [Option<Value>; MAX_LEFTOVER],
    n_left: usize,
) {
    for (k, (slot, publish, _)) in stores.iter().enumerate() {
        if *publish {
            fr.locals[*slot] = sv[k].take().expect("span store evaluated");
        }
    }
    for v in lv.iter_mut().take(n_left) {
        fr.stack.push(v.take().expect("span leftover evaluated"));
    }
}

// ---------------------------------------------------------------------
// Fused counted loops: whole `while` loops lowered to flat register
// code. The strongest superinstruction — the mandel/matmul inner loops
// run here, with locals promoted to a register file for the loop's
// entire residence and fuel charged per completed iteration.
// ---------------------------------------------------------------------

/// Flat three-address code over the loop's register file.
enum RegOp {
    Bin { op: Op, dst: usize, a: usize, b: usize },
    Cmp { op: Op, dst: usize, a: usize, b: usize },
    Eq { ne: bool, dst: usize, a: usize, b: usize },
    Neg { dst: usize, a: usize },
    Not { dst: usize, a: usize },
    Mov { dst: usize, src: usize },
}

/// A fused `while` loop:
///
/// ```text
/// head: <pure cond ops> JumpIfFalse(exit)
///       <pure local body ops> Jump(head)
/// exit:
/// ```
///
/// Registers `0..n_slots` mirror the frame's locals (loaded once at
/// entry, written back once at exit/fault), then come preloaded
/// constants, then SSA temporaries. Each completed iteration charges
/// `per_iter` ops; the final false condition charges `cond_need`.
/// Faults restore the current iteration's stores from a snapshot and
/// deopt with the state exactly at the loop head, so the interpreter
/// step's replay reproduces the fault position bit for bit.
struct LoopStep {
    /// Ops for one full iteration (cond + branch + body + backedge).
    per_iter: u32,
    /// Ops for the exiting (false) condition evaluation.
    cond_need: u32,
    /// pc after the loop (`JumpIfFalse` target).
    exit: u32,
    n_slots: usize,
    n_regs: usize,
    /// Constant registers, materialized once at loop entry.
    consts: Vec<(usize, Value)>,
    cond_ops: Vec<RegOp>,
    /// Register holding the condition after `cond_ops`.
    cond_reg: usize,
    body_ops: Vec<RegOp>,
    /// Local slots the body stores to (write-back + fault snapshot set).
    writeback: Vec<usize>,
    /// Summary license: the analyzer proved this loop head is a counted
    /// call-free `while` whose ops are total over `{int, float, bool}`,
    /// so entries may run specialized to their kinds ([`TypedLoop`])
    /// with no per-iteration deopt checks. Set only by
    /// `compile_with_summaries`.
    typed: Option<TypedLoop>,
}

const MAX_LOOP_SLOTS: usize = 32;
const MAX_LOOP_REGS: usize = 160;
const MAX_LOOP_STORES: usize = 16;

/// Symbolic executor lowering a straight-line section to [`RegOp`]s.
struct RegBuilder {
    n_slots: usize,
    next_reg: usize,
    consts: Vec<(usize, Value)>,
    vstack: Vec<usize>,
    len: u32,
}

impl RegBuilder {
    fn alloc(&mut self) -> Option<usize> {
        if self.next_reg >= MAX_LOOP_REGS {
            return None;
        }
        self.next_reg += 1;
        Some(self.next_reg - 1)
    }

    /// Lower ops from `at` until a non-fusable op; returns the pc of
    /// that op. `stores` is `None` for the condition section (where
    /// stores end the section) and collects stored slots for the body.
    fn section(
        &mut self,
        p: &Program,
        code: &[Op],
        at: usize,
        mutate: bool,
        out: &mut Vec<RegOp>,
        mut stores: Option<&mut Vec<usize>>,
    ) -> Option<usize> {
        let mut j = at;
        while j < code.len() {
            match code[j] {
                Op::Const(i) => {
                    let v = p.consts.get(i as usize)?.clone();
                    let r = self.alloc()?;
                    self.consts.push((r, v));
                    self.vstack.push(r);
                }
                Op::LoadLocal(i) if (i as usize) < self.n_slots => {
                    self.vstack.push(i as usize);
                }
                Op::Dup => {
                    let &top = self.vstack.last()?;
                    self.vstack.push(top);
                }
                Op::StoreLocal(i) if (i as usize) < self.n_slots => {
                    let slots = stores.as_deref_mut()?;
                    if slots.len() >= MAX_LOOP_STORES {
                        return Some(j);
                    }
                    let src = self.vstack.pop()?;
                    let slot = i as usize;
                    // Pending stack values that alias this slot's
                    // register still mean the *old* value; preserve it
                    // in a temp before overwriting.
                    if self.vstack.contains(&slot) {
                        let save = self.alloc()?;
                        out.push(RegOp::Mov { dst: save, src: slot });
                        for v in &mut self.vstack {
                            if *v == slot {
                                *v = save;
                            }
                        }
                    }
                    out.push(RegOp::Mov { dst: slot, src });
                    slots.push(slot);
                }
                Op::Add | Op::Sub | Op::Mul | Op::Div | Op::Mod => {
                    let b = self.vstack.pop()?;
                    let a = self.vstack.pop()?;
                    let dst = self.alloc()?;
                    let (a, b) = if mutate { (b, a) } else { (a, b) };
                    out.push(RegOp::Bin { op: code[j], dst, a, b });
                    self.vstack.push(dst);
                }
                Op::Lt | Op::Le | Op::Gt | Op::Ge => {
                    let b = self.vstack.pop()?;
                    let a = self.vstack.pop()?;
                    let dst = self.alloc()?;
                    out.push(RegOp::Cmp { op: code[j], dst, a, b });
                    self.vstack.push(dst);
                }
                Op::Eq | Op::Ne => {
                    let b = self.vstack.pop()?;
                    let a = self.vstack.pop()?;
                    let dst = self.alloc()?;
                    out.push(RegOp::Eq { ne: matches!(code[j], Op::Ne), dst, a, b });
                    self.vstack.push(dst);
                }
                Op::Neg => {
                    let a = self.vstack.pop()?;
                    let dst = self.alloc()?;
                    out.push(RegOp::Neg { dst, a });
                    self.vstack.push(dst);
                }
                Op::Not => {
                    let a = self.vstack.pop()?;
                    let dst = self.alloc()?;
                    out.push(RegOp::Not { dst, a });
                    self.vstack.push(dst);
                }
                Op::Pop => {
                    // The value was already computed eagerly by earlier
                    // RegOps (and any fault already surfaced), so the
                    // discard itself is free.
                    self.vstack.pop()?;
                }
                _ => return Some(j),
            }
            self.len += 1;
            j += 1;
        }
        Some(j)
    }
}

/// Recognize and lower a fused `while` loop headed at `head`.
fn build_loop(
    p: &Program,
    code: &[Op],
    n_slots: usize,
    head: u32,
    mutate: bool,
) -> Option<LoopStep> {
    if n_slots > MAX_LOOP_SLOTS {
        return None;
    }
    let mut b =
        RegBuilder { n_slots, next_reg: n_slots, consts: Vec::new(), vstack: Vec::new(), len: 0 };
    // Condition: pure, store-free, ending at JumpIfFalse with exactly
    // the condition value produced.
    let mut cond_ops = Vec::new();
    let stop = b.section(p, code, head as usize, mutate, &mut cond_ops, None)?;
    let Some(Op::JumpIfFalse(off)) = code.get(stop) else {
        return None;
    };
    let cond_reg = b.vstack.pop()?;
    if !b.vstack.is_empty() || b.len == 0 {
        return None;
    }
    b.len += 1;
    let cond_need = b.len;
    let exit = binop::jump(stop as u32 + 1, *off);
    // Body: pure local code ending with the backedge to `head`, with
    // nothing left on the (virtual) operand stack.
    let mut body_ops = Vec::new();
    let mut stored = Vec::new();
    let stop2 = b.section(p, code, stop + 1, mutate, &mut body_ops, Some(&mut stored))?;
    let Some(Op::Jump(back)) = code.get(stop2) else {
        return None;
    };
    if binop::jump(stop2 as u32 + 1, *back) != head || !b.vstack.is_empty() {
        return None;
    }
    b.len += 1;
    let mut writeback = stored;
    writeback.sort_unstable();
    writeback.dedup();
    Some(LoopStep {
        per_iter: b.len,
        cond_need,
        exit,
        n_slots,
        n_regs: b.next_reg,
        consts: b.consts,
        cond_ops,
        cond_reg,
        body_ops,
        writeback,
        typed: None,
    })
}

/// Execute one flat-code section over the register file. Arithmetic and
/// comparison inline the hot `Int`/`Float` cases with semantics
/// identical to [`binop::arith`] / [`binop::compare`] (ints wrap,
/// comparison widens ints to `f64` and uses `total_cmp`), falling back
/// to the shared helpers everywhere else.
fn exec_regops(ops: &[RegOp], regs: &mut [Value]) -> Result<(), VmError> {
    use std::cmp::Ordering;
    let cmp_ord = |op: &Op, ord: Ordering| {
        Value::Bool(match op {
            Op::Lt => ord == Ordering::Less,
            Op::Le => ord != Ordering::Greater,
            Op::Gt => ord == Ordering::Greater,
            _ => ord != Ordering::Less,
        })
    };
    for r in ops {
        match *r {
            RegOp::Mov { dst, src } => regs[dst] = regs[src].clone(),
            RegOp::Bin { ref op, dst, a, b } => {
                let v = match (&regs[a], &regs[b]) {
                    (Value::Int(x), Value::Int(y)) => match op {
                        Op::Add => Value::Int(x.wrapping_add(*y)),
                        Op::Sub => Value::Int(x.wrapping_sub(*y)),
                        Op::Mul => Value::Int(x.wrapping_mul(*y)),
                        _ => binop::arith(op, regs[a].clone(), regs[b].clone())?,
                    },
                    (Value::Float(x), Value::Float(y)) => match op {
                        Op::Add => Value::Float(x + y),
                        Op::Sub => Value::Float(x - y),
                        Op::Mul => Value::Float(x * y),
                        Op::Div => Value::Float(x / y),
                        Op::Mod => Value::Float(x % y),
                        _ => binop::arith(op, regs[a].clone(), regs[b].clone())?,
                    },
                    _ => binop::arith(op, regs[a].clone(), regs[b].clone())?,
                };
                regs[dst] = v;
            }
            RegOp::Cmp { ref op, dst, a, b } => {
                let v = match (&regs[a], &regs[b]) {
                    (Value::Float(x), Value::Float(y)) => cmp_ord(op, x.total_cmp(y)),
                    (Value::Int(x), Value::Int(y)) => {
                        cmp_ord(op, (*x as f64).total_cmp(&(*y as f64)))
                    }
                    _ => binop::compare(op, &regs[a], &regs[b])?,
                };
                regs[dst] = v;
            }
            RegOp::Eq { ne, dst, a, b } => {
                let eq = regs[a].loose_eq(&regs[b]);
                regs[dst] = Value::Bool(if ne { !eq } else { eq });
            }
            RegOp::Neg { dst, a } => regs[dst] = binop::neg(regs[a].clone())?,
            RegOp::Not { dst, a } => regs[dst] = Value::Bool(!regs[a].is_truthy()),
        }
    }
    Ok(())
}

/// Run fused iterations until the condition goes false, the fuel budget
/// allows no further full iteration, or a fault deopts. The caller
/// guarantees at least one full iteration fits in the remaining fuel.
fn run_loop(lp: &LoopStep, fr: &mut Frame, fuel: u64, ops: &mut u64) -> Option<Ctrl> {
    if fr.locals.len() != lp.n_slots {
        return None; // corrupt frame: let the interpreter step raise the error
    }
    let per = u64::from(lp.per_iter);
    let budget = (fuel - *ops) / per;
    let mut regs: Vec<Value> = Vec::with_capacity(lp.n_regs);
    regs.extend(fr.locals.iter().cloned());
    regs.resize(lp.n_regs, Value::Null);
    for (r, v) in &lp.consts {
        regs[*r] = v.clone();
    }
    // Fault recovery is replay-based: faults are rare (they deopt
    // permanently), so instead of snapshotting stores every iteration
    // we keep the entry registers and, on a fault at iteration `done`,
    // deterministically re-execute the `done` completed iterations —
    // they are pure register code and already succeeded once.
    let entry = regs.clone();
    let mut done: u64 = 0;
    let write_back = |fr: &mut Frame, regs: &mut [Value]| {
        for &s in &lp.writeback {
            fr.locals[s] = std::mem::replace(&mut regs[s], Value::Null);
        }
    };
    let deopt = |fr: &mut Frame, ops: &mut u64, done: u64| {
        let mut regs = entry.clone();
        for _ in 0..done {
            let _ = exec_regops(&lp.cond_ops, &mut regs);
            let _ = exec_regops(&lp.body_ops, &mut regs);
        }
        write_back(fr, &mut regs);
        *ops += done * per;
        Some(Ctrl::Deopt)
    };
    while done < budget {
        if exec_regops(&lp.cond_ops, &mut regs).is_err() {
            return deopt(fr, ops, done);
        }
        if !regs[lp.cond_reg].is_truthy() {
            write_back(fr, &mut regs);
            *ops += done * per + u64::from(lp.cond_need);
            fr.pc = lp.exit;
            return Some(Ctrl::Next);
        }
        if exec_regops(&lp.body_ops, &mut regs).is_err() {
            return deopt(fr, ops, done);
        }
        done += 1;
    }
    // Fuel bound: the next full iteration no longer fits. Publish and
    // let spans and the interpreter step walk into the fuel wall at the
    // exact op.
    write_back(fr, &mut regs);
    *ops += done * per;
    Some(Ctrl::Next)
}

// ---------------------------------------------------------------------
// Summary-guided fusions: what an interprocedural effect summary
// licenses beyond what local compilation can prove.
//
// Trust discipline: *eligibility* facts are always re-derived from the
// real bytecode (a corrupt license at worst bails to the exact generic
// path), while the one *quantitative* fact — `exact_ops` — is charged
// as a trusted constant, so corrupting it is an observable miscompile
// the differential suite catches.
// ---------------------------------------------------------------------

/// Whether a fused loop's register code stays inside the op set the
/// typed executor implements totally: Div/Mod can fault (and produce
/// `Float` from `Int/Int` only sometimes), so they stay generic.
fn loop_regops_typed(lp: &LoopStep) -> bool {
    let ok = |ops: &[RegOp]| {
        ops.iter().all(|r| match r {
            RegOp::Bin { op, .. } => matches!(op, Op::Add | Op::Sub | Op::Mul),
            _ => true,
        })
    };
    ok(&lp.cond_ops) && ok(&lp.body_ops) && lp.consts.iter().all(|(_, v)| kind_of(v).is_some())
}

// ---------------------------------------------------------------------
// Monomorphic typed loops: a summary-licensed loop specialized once to
// the kinds of the values it enters with, then run over unboxed
// registers with every type decision already taken.
// ---------------------------------------------------------------------

/// The value kinds a typed loop specializes on.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Kind {
    Int,
    Float,
    Bool,
}

fn kind_of(v: &Value) -> Option<Kind> {
    match v {
        Value::Int(_) => Some(Kind::Int),
        Value::Float(_) => Some(Kind::Float),
        Value::Bool(_) => Some(Kind::Bool),
        _ => None,
    }
}

/// The kind `r` leaves in its destination, given its operands' kinds:
/// [`binop`]'s rules restricted to `{Int, Float, Bool}`. Add/Sub/Mul
/// stay `Int` only for two `Int`s and otherwise widen to `Float` (a
/// `Bool` widens to 0/1); Neg keeps `Int` and widens the rest;
/// comparisons, equality and Not give `Bool`; Mov copies. `None` if an
/// operand has no kind.
fn kind_after(r: &RegOp, k: &[Option<Kind>]) -> Option<Kind> {
    Some(match *r {
        RegOp::Bin { a, b, .. } => match (k[a]?, k[b]?) {
            (Kind::Int, Kind::Int) => Kind::Int,
            _ => Kind::Float,
        },
        RegOp::Cmp { a, b, .. } | RegOp::Eq { a, b, .. } => {
            k[a]?;
            k[b]?;
            Kind::Bool
        }
        RegOp::Neg { a, .. } => match k[a]? {
            Kind::Int => Kind::Int,
            _ => Kind::Float,
        },
        RegOp::Not { a, .. } => {
            k[a]?;
            Kind::Bool
        }
        RegOp::Mov { src, .. } => k[src]?,
    })
}

fn regop_dst(r: &RegOp) -> usize {
    match *r {
        RegOp::Bin { dst, .. }
        | RegOp::Cmp { dst, .. }
        | RegOp::Eq { dst, .. }
        | RegOp::Neg { dst, .. }
        | RegOp::Not { dst, .. }
        | RegOp::Mov { dst, .. } => dst,
    }
}

fn regop_reads(r: &RegOp) -> [Option<usize>; 2] {
    match *r {
        RegOp::Bin { a, b, .. } | RegOp::Cmp { a, b, .. } | RegOp::Eq { a, b, .. } => {
            [Some(a), Some(b)]
        }
        RegOp::Neg { a, .. } | RegOp::Not { a, .. } => [Some(a), None],
        RegOp::Mov { src, .. } => [Some(src), None],
    }
}

/// A register op with every type decision taken. Operands index the
/// `f64` file (`F*`, `ToF`'s destination) or the `i64` file (`I*`,
/// bools as 0/1, comparison results); `u8` indices into 256-entry
/// files need no bounds checks.
#[derive(Copy, Clone, Debug)]
enum MOp {
    FAdd(u8, u8, u8),
    FSub(u8, u8, u8),
    FMul(u8, u8, u8),
    IAdd(u8, u8, u8),
    ISub(u8, u8, u8),
    IMul(u8, u8, u8),
    /// `total_cmp` orderings of two floats, into the `i64` file.
    FLt(u8, u8, u8),
    FLe(u8, u8, u8),
    FGt(u8, u8, u8),
    FGe(u8, u8, u8),
    /// `==` (or, with the flag, `!=`) of two floats / two ints or bools.
    FEq(u8, u8, u8, bool),
    IEq(u8, u8, u8, bool),
    /// Widen an `Int`/`Bool` register in place: its `f64` image goes to
    /// the same index of the float file, which holds nothing live while
    /// the register's kind is not `Float`.
    ToF(u8),
    FNeg(u8, u8),
    INeg(u8, u8),
    FNot(u8, u8),
    INot(u8, u8),
    FMov(u8, u8),
    IMov(u8, u8),
    /// A constant bool: `Bool == number` is always false.
    ISet(u8, bool),
    /// The loop's exit test on an `f64` / `i64` register: stop the
    /// iteration when it is falsy.
    FTest(u8),
    ITest(u8),
}

const FILE_LEN: usize = 256;
const _: () = assert!(MAX_LOOP_REGS <= FILE_LEN);

/// A typed loop's two unboxed register files, indexed by the loop's
/// register numbers. Fixed arrays: entry and exit touch no heap.
struct Files {
    f: [f64; FILE_LEN],
    i: [i64; FILE_LEN],
}

/// Run one iteration's ops; `false` when the exit test failed.
fn exec_typed(ops: &[MOp], x: &mut Files) -> bool {
    let Files { f, i } = x;
    let ord = |f: &[f64; FILE_LEN], a: u8, b: u8| f[a as usize].total_cmp(&f[b as usize]);
    for op in ops {
        match *op {
            MOp::FAdd(d, a, b) => f[d as usize] = f[a as usize] + f[b as usize],
            MOp::FSub(d, a, b) => f[d as usize] = f[a as usize] - f[b as usize],
            MOp::FMul(d, a, b) => f[d as usize] = f[a as usize] * f[b as usize],
            MOp::IAdd(d, a, b) => i[d as usize] = i[a as usize].wrapping_add(i[b as usize]),
            MOp::ISub(d, a, b) => i[d as usize] = i[a as usize].wrapping_sub(i[b as usize]),
            MOp::IMul(d, a, b) => i[d as usize] = i[a as usize].wrapping_mul(i[b as usize]),
            MOp::FLt(d, a, b) => i[d as usize] = i64::from(ord(f, a, b).is_lt()),
            MOp::FLe(d, a, b) => i[d as usize] = i64::from(ord(f, a, b).is_le()),
            MOp::FGt(d, a, b) => i[d as usize] = i64::from(ord(f, a, b).is_gt()),
            MOp::FGe(d, a, b) => i[d as usize] = i64::from(ord(f, a, b).is_ge()),
            MOp::FEq(d, a, b, ne) => {
                i[d as usize] = i64::from((f[a as usize] == f[b as usize]) != ne)
            }
            MOp::IEq(d, a, b, ne) => {
                i[d as usize] = i64::from((i[a as usize] == i[b as usize]) != ne)
            }
            MOp::ToF(r) => f[r as usize] = i[r as usize] as f64,
            MOp::FNeg(d, a) => f[d as usize] = -f[a as usize],
            MOp::INeg(d, a) => i[d as usize] = i[a as usize].wrapping_neg(),
            MOp::FNot(d, a) => i[d as usize] = i64::from(f[a as usize] == 0.0),
            MOp::INot(d, a) => i[d as usize] = i64::from(i[a as usize] == 0),
            MOp::FMov(d, a) => f[d as usize] = f[a as usize],
            MOp::IMov(d, a) => i[d as usize] = i[a as usize],
            MOp::ISet(d, v) => i[d as usize] = i64::from(v),
            MOp::FTest(c) if f[c as usize] == 0.0 => return false,
            MOp::ITest(c) if i[c as usize] == 0 => return false,
            MOp::FTest(_) | MOp::ITest(_) => {}
        }
    }
    true
}

/// A loop lowered for one entry signature.
struct Spec {
    /// `(slot, kind)` for every slot the loop uses: the cache key, and
    /// the load list at entry.
    sig: Vec<(usize, Kind)>,
    /// Each constant's `i64` and `f64` image, written once per entry.
    consts: Vec<(u8, i64, f64)>,
    /// Condition, exit test, body: one iteration.
    code: Vec<MOp>,
    /// `(slot, kind)` for every slot the body stores to.
    writeback: Vec<(usize, Kind)>,
}

/// The typed half of a licensed [`LoopStep`].
struct TypedLoop {
    /// Slots the loop reads or writes, ascending. Only these need a
    /// kind; a dead slot may hold anything.
    used: Vec<usize>,
    /// The specialization for the first stable signature the loop
    /// entered with. Entries with another signature run boxed.
    spec: OnceLock<Spec>,
    /// Test hook: lower float `Sub` with swapped operands.
    mutant: bool,
}

impl TypedLoop {
    fn new(lp: &LoopStep, mutant: bool) -> TypedLoop {
        let mut used = vec![false; lp.n_slots];
        let mut mark = |r: usize| {
            if let Some(u) = used.get_mut(r) {
                *u = true;
            }
        };
        for r in lp.cond_ops.iter().chain(&lp.body_ops) {
            mark(regop_dst(r));
            regop_reads(r).into_iter().flatten().for_each(&mut mark);
        }
        mark(lp.cond_reg);
        let used = used.iter().enumerate().filter(|(_, &u)| u).map(|(s, _)| s).collect();
        TypedLoop { used, spec: OnceLock::new(), mutant }
    }
}

/// Lowers a loop's register code for one entry signature, tracking
/// each register's kind at the current op.
struct Lowering {
    kinds: [Option<Kind>; MAX_LOOP_REGS],
    /// Whether an `Int`/`Bool` register's `f64` image is current. Entry
    /// writes both images of every slot and constant, so registers the
    /// loop never writes start (and stay) widened.
    widened: [bool; MAX_LOOP_REGS],
    /// How many ops read each register (the exit test counts as one).
    reads: [u16; MAX_LOOP_REGS],
    n_slots: usize,
    mutant: bool,
}

impl Lowering {
    /// The register as a float operand, widening it if needed.
    fn float(&mut self, r: usize, out: &mut Vec<MOp>) -> u8 {
        if self.kinds[r] != Some(Kind::Float) && !self.widened[r] {
            self.widened[r] = true;
            out.push(MOp::ToF(r as u8));
        }
        r as u8
    }

    fn section(&mut self, ops: &[RegOp], out: &mut Vec<MOp>) {
        let mut ops = ops.iter().peekable();
        while let Some(r) = ops.next() {
            let kind = kind_after(r, &self.kinds).expect("signature checked stable");
            let [ka, kb] = regop_reads(r).map(|x| x.and_then(|x| self.kinds[x]));
            let mut dst = regop_dst(r);
            // A temporary read only by the store right after it: the op
            // writes the slot itself.
            if let Some(&&RegOp::Mov { dst: slot, src }) = ops.peek() {
                if src == dst && dst >= self.n_slots && slot < self.n_slots && self.reads[dst] == 1
                {
                    dst = slot;
                    ops.next();
                }
            }
            let d = dst as u8;
            let m = match *r {
                RegOp::Bin { op, a, b, .. } if kind == Kind::Int => {
                    let (a, b) = (a as u8, b as u8);
                    match op {
                        Op::Add => MOp::IAdd(d, a, b),
                        Op::Sub => MOp::ISub(d, a, b),
                        _ => MOp::IMul(d, a, b),
                    }
                }
                RegOp::Bin { op, a, b, .. } => {
                    let (a, b) = (self.float(a, out), self.float(b, out));
                    match op {
                        Op::Add => MOp::FAdd(d, a, b),
                        Op::Sub if self.mutant => MOp::FSub(d, b, a),
                        Op::Sub => MOp::FSub(d, a, b),
                        _ => MOp::FMul(d, a, b),
                    }
                }
                RegOp::Cmp { op, a, b, .. } => {
                    let (a, b) = (self.float(a, out), self.float(b, out));
                    match op {
                        Op::Lt => MOp::FLt(d, a, b),
                        Op::Le => MOp::FLe(d, a, b),
                        Op::Gt => MOp::FGt(d, a, b),
                        _ => MOp::FGe(d, a, b),
                    }
                }
                // `Value::loose_eq`: Int/Float widen, other equal kinds
                // compare directly (NaN unequal), Bool/number never equal.
                RegOp::Eq { ne, a, b, .. } => match (ka, kb) {
                    (Some(Kind::Int), Some(Kind::Int)) | (Some(Kind::Bool), Some(Kind::Bool)) => {
                        MOp::IEq(d, a as u8, b as u8, ne)
                    }
                    (Some(Kind::Bool), _) | (_, Some(Kind::Bool)) => MOp::ISet(d, ne),
                    _ => MOp::FEq(d, self.float(a, out), self.float(b, out), ne),
                },
                RegOp::Neg { a, .. } if ka == Some(Kind::Int) => MOp::INeg(d, a as u8),
                RegOp::Neg { a, .. } => MOp::FNeg(d, self.float(a, out)),
                RegOp::Not { a, .. } if ka == Some(Kind::Float) => MOp::FNot(d, a as u8),
                RegOp::Not { a, .. } => MOp::INot(d, a as u8),
                RegOp::Mov { src, .. } if kind == Kind::Float => MOp::FMov(d, src as u8),
                RegOp::Mov { src, .. } => MOp::IMov(d, src as u8),
            };
            out.push(m);
            self.kinds[dst] = Some(kind);
            self.widened[dst] = false;
        }
    }
}

/// Specialize `lp` to the kinds `locals` enters with. `None` if a used
/// slot holds a value outside `{Int, Float, Bool}` or the signature is
/// unstable (some slot leaves the body with another kind than it
/// entered with); nothing is allocated before both checks pass.
fn specialize(lp: &LoopStep, t: &TypedLoop, locals: &[Value]) -> Option<Spec> {
    let mut entry = [None; MAX_LOOP_REGS];
    for &s in &t.used {
        entry[s] = Some(kind_of(&locals[s])?);
    }
    for (r, v) in &lp.consts {
        entry[*r] = kind_of(v);
    }
    let mut kinds = entry;
    for r in lp.cond_ops.iter().chain(&lp.body_ops) {
        kinds[regop_dst(r)] = Some(kind_after(r, &kinds)?);
    }
    if lp.writeback.iter().any(|&s| kinds[s] != entry[s]) {
        return None;
    }

    let mut lw = Lowering {
        kinds: entry,
        widened: [true; MAX_LOOP_REGS],
        reads: [0; MAX_LOOP_REGS],
        n_slots: lp.n_slots,
        mutant: t.mutant,
    };
    for r in lp.cond_ops.iter().chain(&lp.body_ops) {
        lw.widened[regop_dst(r)] = false;
        for a in regop_reads(r).into_iter().flatten() {
            lw.reads[a] += 1;
        }
    }
    lw.reads[lp.cond_reg] += 1;
    let mut code = Vec::new();
    lw.section(&lp.cond_ops, &mut code);
    let c = lp.cond_reg as u8;
    code.push(if lw.kinds[lp.cond_reg] == Some(Kind::Float) {
        MOp::FTest(c)
    } else {
        MOp::ITest(c)
    });
    lw.section(&lp.body_ops, &mut code);

    let image = |v: &Value| match *v {
        Value::Int(x) => (x, x as f64),
        Value::Float(x) => (0, x),
        Value::Bool(b) => (i64::from(b), f64::from(u8::from(b))),
        _ => unreachable!("typed constants are numeric"),
    };
    let kind = |s: usize| entry[s].expect("used slots have kinds");
    Some(Spec {
        sig: t.used.iter().map(|&s| (s, kind(s))).collect(),
        consts: lp.consts.iter().map(|(r, v)| (*r as u8, image(v).0, image(v).1)).collect(),
        code,
        writeback: lp.writeback.iter().map(|&s| (s, kind(s))).collect(),
    })
}

/// Tally of typed-loop entries on the calling thread; see [`loop_probe`].
#[doc(hidden)]
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LoopProbe {
    /// Specializations built (at most one per loop, barring a race).
    pub specialized: u64,
    /// Entries of licensed loops that ran specialized.
    pub typed: u64,
    /// Entries of licensed loops that ran boxed: an unrepresentable or
    /// unstable signature, or not the cached one.
    pub boxed: u64,
}

thread_local! {
    static PROBE: std::cell::Cell<LoopProbe> = const {
        std::cell::Cell::new(LoopProbe { specialized: 0, typed: 0, boxed: 0 })
    };
}

fn probe(f: impl FnOnce(&mut LoopProbe)) {
    PROBE.with(|p| {
        let mut v = p.get();
        f(&mut v);
        p.set(v);
    });
}

/// Test hook: the typed-loop tally of this thread since the last call,
/// which resets it. Tests use it to pin when the specialized path runs.
#[doc(hidden)]
pub fn loop_probe() -> LoopProbe {
    PROBE.with(|p| p.replace(LoopProbe::default()))
}

/// Run a summary-licensed loop specialized to its entry signature.
/// Returns `None`, having touched nothing, when the frame's signature
/// is not the cached one (or, with none cached yet, cannot be
/// specialized): the boxed [`run_loop`] runs it instead. Fuel
/// accounting, write-back and the exit pc are [`run_loop`]'s; there is
/// no deopt path because every typed op is total.
fn run_loop_typed(
    lp: &LoopStep,
    t: &TypedLoop,
    fr: &mut Frame,
    fuel: u64,
    ops: &mut u64,
) -> Option<Ctrl> {
    if fr.locals.len() != lp.n_slots {
        return None;
    }
    let spec = match t.spec.get() {
        Some(s) => s,
        None => match specialize(lp, t, &fr.locals) {
            Some(s) => {
                probe(|p| p.specialized += 1);
                t.spec.get_or_init(|| s)
            }
            None => {
                probe(|p| p.boxed += 1);
                return None;
            }
        },
    };
    // Load both images of every used slot and constant, checking each
    // slot's kind against the cached signature.
    let mut x = Files { f: [0.0; FILE_LEN], i: [0; FILE_LEN] };
    for &(s, k) in &spec.sig {
        (x.i[s], x.f[s]) = match (k, &fr.locals[s]) {
            (Kind::Int, Value::Int(v)) => (*v, *v as f64),
            (Kind::Float, Value::Float(v)) => (0, *v),
            (Kind::Bool, Value::Bool(v)) => (i64::from(*v), f64::from(u8::from(*v))),
            _ => {
                probe(|p| p.boxed += 1);
                return None;
            }
        };
    }
    probe(|p| p.typed += 1);
    for &(r, i, f) in &spec.consts {
        (x.i[r as usize], x.f[r as usize]) = (i, f);
    }
    let per = u64::from(lp.per_iter);
    let budget = (fuel - *ops) / per;
    let write_back = |fr: &mut Frame, x: &Files| {
        for &(s, k) in &spec.writeback {
            fr.locals[s] = match k {
                Kind::Int => Value::Int(x.i[s]),
                Kind::Float => Value::Float(x.f[s]),
                Kind::Bool => Value::Bool(x.i[s] != 0),
            };
        }
    };
    let mut done: u64 = 0;
    while done < budget {
        if !exec_typed(&spec.code, &mut x) {
            write_back(fr, &x);
            *ops += done * per + u64::from(lp.cond_need);
            fr.pc = lp.exit;
            return Some(Ctrl::Next);
        }
        done += 1;
    }
    write_back(fr, &x);
    *ops += done * per;
    Some(Ctrl::Next)
}

/// A `Call` site fused through to a proven straight-line pure leaf
/// callee: the callee body runs as a mini-interpretation inside the
/// caller's dispatch step, with no activation frame.
struct InlineStep {
    arity: usize,
    n_slots: usize,
    /// The callee's executed prefix (through its first `Ret`, or the
    /// whole body for an implicit `return NULL`), re-validated at
    /// compile time against the op set `run_inline` implements.
    code: Vec<Op>,
    consts: Arc<Vec<Value>>,
    /// The summary's proven op count for the callee body. The dispatcher
    /// charges `1 + exact_ops` as a trusted constant — never recounted —
    /// which is what makes a corrupted summary observable.
    exact_ops: u32,
    next: u32,
}

/// Validate and extract an inline plan for the `Call` at a pc. Only the
/// presence of an `exact_ops` fact comes from the summary; everything
/// structural is re-derived from the callee's real bytecode, so a bogus
/// license degrades to "no fusion" rather than to wrong behavior.
fn build_inline(
    p: &Program,
    t: &SummaryTable,
    consts: &Arc<Vec<Value>>,
    op: &Op,
    next: u32,
) -> Option<InlineStep> {
    let &Op::Call { f: callee, argc } = op else { return None };
    let exact_ops = t.funcs.get(callee as usize)?.exact_ops?;
    let g = p.funcs.get(callee as usize)?;
    if g.arity != argc || (g.arity as u16) > g.n_slots {
        return None;
    }
    let mut code = Vec::new();
    for op in &g.code {
        match op {
            Op::Const(_)
            | Op::LoadLocal(_)
            | Op::StoreLocal(_)
            | Op::Dup
            | Op::Pop
            | Op::Add
            | Op::Sub
            | Op::Mul
            | Op::Div
            | Op::Mod
            | Op::Neg
            | Op::Not
            | Op::Eq
            | Op::Ne
            | Op::Lt
            | Op::Le
            | Op::Gt
            | Op::Ge => code.push(*op),
            Op::Ret => {
                code.push(*op);
                break;
            }
            _ => return None,
        }
    }
    Some(InlineStep {
        arity: argc as usize,
        n_slots: g.n_slots as usize,
        code,
        consts: consts.clone(),
        exact_ops,
        next,
    })
}

/// Execute a fused callee against the caller's operand stack without
/// consuming it. Any fault, underflow, or out-of-range index returns
/// `None` with the stack untouched; the dispatcher then runs the real
/// `Call` through the interpreter step, whose activation-frame replay
/// reproduces the exact error state.
fn run_inline(il: &InlineStep, stack: &[Value]) -> Option<Value> {
    let at = stack.len().checked_sub(il.arity)?;
    let mut locals: Vec<Value> = stack[at..].to_vec();
    locals.resize(il.n_slots.max(il.arity), Value::Null);
    let mut vs: Vec<Value> = Vec::new();
    for op in &il.code {
        match op {
            Op::Const(i) => vs.push(il.consts.get(*i as usize)?.clone()),
            Op::LoadLocal(i) => vs.push(locals.get(*i as usize)?.clone()),
            Op::StoreLocal(i) => {
                let v = vs.pop()?;
                *locals.get_mut(*i as usize)? = v;
            }
            Op::Dup => vs.push(vs.last()?.clone()),
            Op::Pop => {
                vs.pop()?;
            }
            Op::Add | Op::Sub | Op::Mul | Op::Div | Op::Mod => {
                let b = vs.pop()?;
                let a = vs.pop()?;
                vs.push(binop::arith(op, a, b).ok()?);
            }
            Op::Neg => {
                let a = vs.pop()?;
                vs.push(binop::neg(a).ok()?);
            }
            Op::Not => {
                let a = vs.pop()?;
                vs.push(Value::Bool(!a.is_truthy()));
            }
            Op::Eq | Op::Ne => {
                let b = vs.pop()?;
                let a = vs.pop()?;
                let eq = a.loose_eq(&b);
                vs.push(Value::Bool(if matches!(op, Op::Eq) { eq } else { !eq }));
            }
            Op::Lt | Op::Le | Op::Gt | Op::Ge => {
                let b = vs.pop()?;
                let a = vs.pop()?;
                vs.push(binop::compare(op, &a, &b).ok()?);
            }
            Op::Ret => return vs.pop(),
            _ => return None,
        }
    }
    // Fell off the end: the implicit `return NULL`.
    Some(Value::Null)
}

/// Lower an expression tree to a closure tree. `mutate` swaps the
/// operands of fused arithmetic — the deliberate miscompile the
/// differential suite must catch.
fn lower(n: VNode, mutate: bool) -> ExprFn {
    match n {
        VNode::Const(v) => Box::new(move |_, _| Ok(v.clone())),
        VNode::Local(i) => Box::new(move |f, _| Ok(f.locals[i].clone())),
        VNode::Stored(k) => {
            Box::new(move |_, sv| Ok(sv[k].as_ref().expect("stored before use").clone()))
        }
        VNode::Bin(op, a, b) => {
            let a = lower(*a, mutate);
            let b = lower(*b, mutate);
            if mutate {
                Box::new(move |f, sv| binop::arith(&op, b(f, sv)?, a(f, sv)?))
            } else {
                Box::new(move |f, sv| binop::arith(&op, a(f, sv)?, b(f, sv)?))
            }
        }
        VNode::Cmp(op, a, b) => {
            let a = lower(*a, mutate);
            let b = lower(*b, mutate);
            Box::new(move |f, sv| binop::compare(&op, &a(f, sv)?, &b(f, sv)?))
        }
        VNode::Eq { ne, a, b } => {
            let a = lower(*a, mutate);
            let b = lower(*b, mutate);
            Box::new(move |f, sv| {
                let eq = a(f, sv)?.loose_eq(&b(f, sv)?);
                Ok(Value::Bool(if ne { !eq } else { eq }))
            })
        }
        VNode::Neg(a) => {
            let a = lower(*a, mutate);
            Box::new(move |f, sv| binop::neg(a(f, sv)?))
        }
        VNode::Not(a) => {
            let a = lower(*a, mutate);
            Box::new(move |f, sv| Ok(Value::Bool(!a(f, sv)?.is_truthy())))
        }
        VNode::MakeArr { n, default } => {
            let n = lower(*n, mutate);
            let default = lower(*default, mutate);
            Box::new(move |f, sv| binop::make_arr(n(f, sv)?.as_int()?, default(f, sv)?))
        }
        VNode::IndexGet { arr, idx } => {
            let arr = lower(*arr, mutate);
            let idx = lower(*idx, mutate);
            Box::new(move |f, sv| {
                let i = idx(f, sv)?.as_int()?;
                binop::index_get(&arr(f, sv)?, i)
            })
        }
        VNode::IndexSet { arr, idx, val } => {
            let arr = lower(*arr, mutate);
            let idx = lower(*idx, mutate);
            let val = lower(*val, mutate);
            Box::new(move |f, sv| {
                let a = arr(f, sv)?;
                let i = idx(f, sv)?.as_int()?;
                let v = val(f, sv)?;
                binop::index_set(a, i, v)
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{Builder, HopSpec, Op};
    use crate::interp::{self, MapEnv, NullEnv};
    use crate::state::MessengerId;

    fn launch(p: &Program) -> MessengerState {
        MessengerState::launch(p, MessengerId(1), &[]).unwrap()
    }

    /// Run the same program under both engines at the same fuel and
    /// require identical outcomes and identical messenger states.
    fn both(p: &Program, fuel: u64) -> Result<Yield, VmError> {
        let cp = compile(p).expect("compiles");
        let mut mi = launch(p);
        let mut mc = launch(p);
        let ri = interp::run(p, &mut mi, &mut NullEnv, fuel);
        let rc = run(&cp, p, &mut mc, &mut NullEnv, fuel);
        assert_eq!(ri, rc, "yields/errors diverge");
        assert_eq!(mi.frames, mc.frames, "frames diverge");
        rc
    }

    #[test]
    fn arithmetic_loop_matches_interpreter() {
        // while (i < 10) { acc = acc + i * 2; i = i + 1; } return acc
        let mut b = Builder::new();
        let c0 = b.constant(Value::Int(0));
        let c1 = b.constant(Value::Int(1));
        let c2 = b.constant(Value::Int(2));
        let c10 = b.constant(Value::Int(10));
        let code = vec![
            Op::Const(c0),
            Op::StoreLocal(0), // i
            Op::Const(c0),
            Op::StoreLocal(1), // acc
            // loop head (pc 4)
            Op::LoadLocal(0),
            Op::Const(c10),
            Op::Lt,
            Op::JumpIfFalse(11),
            Op::LoadLocal(1),
            Op::LoadLocal(0),
            Op::Const(c2),
            Op::Mul,
            Op::Add,
            Op::StoreLocal(1),
            Op::LoadLocal(0),
            Op::Const(c1),
            Op::Add,
            Op::StoreLocal(0),
            Op::Jump(-15),
            // exit (pc 19)
            Op::LoadLocal(1),
            Op::Ret,
        ];
        let f = b.function("main", 0, 2, code);
        let p = b.finish(f);
        assert_eq!(both(&p, 10_000).unwrap(), Yield::Terminated(Value::Int(90)));
        let cp = compile(&p).unwrap();
        assert!(cp.superinstructions() > 0, "the loop must fuse spans");
        assert!(cp.fused_loops() > 0, "the whole while loop must fuse");
    }

    #[test]
    fn fault_inside_fused_loop_deopts_to_exact_interpreter_state() {
        // while (i < 8) { acc = acc + 6 / (3 - i); i = i + 1 }
        // The divisor hits zero on the fourth iteration: the fused loop
        // must roll back that iteration and replay the fault with the
        // interpreter's exact frame and ops charge.
        let mut b = Builder::new();
        let c0 = b.constant(Value::Int(0));
        let c1 = b.constant(Value::Int(1));
        let c3 = b.constant(Value::Int(3));
        let c6 = b.constant(Value::Int(6));
        let c8 = b.constant(Value::Int(8));
        let code = vec![
            Op::Const(c0),
            Op::StoreLocal(0), // i
            Op::Const(c0),
            Op::StoreLocal(1), // acc
            // loop head (pc 4)
            Op::LoadLocal(0),
            Op::Const(c8),
            Op::Lt,
            Op::JumpIfFalse(13),
            Op::LoadLocal(1),
            Op::Const(c6),
            Op::Const(c3),
            Op::LoadLocal(0),
            Op::Sub,
            Op::Div,
            Op::Add,
            Op::StoreLocal(1),
            Op::LoadLocal(0),
            Op::Const(c1),
            Op::Add,
            Op::StoreLocal(0),
            Op::Jump(-17),
            // exit (pc 21)
            Op::LoadLocal(1),
            Op::Ret,
        ];
        let f = b.function("main", 0, 2, code);
        let p = b.finish(f);
        let cp = compile(&p).unwrap();
        assert!(cp.fused_loops() > 0, "the faulting loop must still fuse");
        let err = both(&p, 10_000).unwrap_err();
        assert!(matches!(err, VmError::DivisionByZero));
        // And with the fault patched out of range, both agree on the sum.
        for fuel in 0..80 {
            let mut mi = launch(&p);
            let mut mc = launch(&p);
            let mut ei = MapEnv::new();
            let mut ec = MapEnv::new();
            let ri = interp::run(&p, &mut mi, &mut ei, fuel);
            let rc = run(&cp, &p, &mut mc, &mut ec, fuel);
            assert_eq!(ri, rc, "fuel={fuel}");
            assert_eq!(mi.frames, mc.frames, "fuel={fuel}");
            assert_eq!(ei.ops, ec.ops, "fuel={fuel}: ops charge diverges");
        }
    }

    #[test]
    fn every_fuel_level_is_bit_exact() {
        // The same loop, cut off at every possible fuel: state after
        // FuelExhausted must match the interpreter op for op.
        let mut b = Builder::new();
        let c1 = b.constant(Value::Int(1));
        let c5 = b.constant(Value::Int(5));
        let code = vec![
            Op::Const(c1),
            Op::StoreLocal(0),
            Op::LoadLocal(0),
            Op::Const(c5),
            Op::Lt,
            Op::JumpIfFalse(5),
            Op::LoadLocal(0),
            Op::Const(c1),
            Op::Add,
            Op::StoreLocal(0),
            Op::Jump(-9),
            Op::LoadLocal(0),
            Op::Ret,
        ];
        let f = b.function("main", 0, 1, code);
        let p = b.finish(f);
        let cp = compile(&p).unwrap();
        for fuel in 0..40 {
            let mut mi = launch(&p);
            let mut mc = launch(&p);
            let mut ei = MapEnv::new();
            let mut ec = MapEnv::new();
            let ri = interp::run(&p, &mut mi, &mut ei, fuel);
            let rc = run(&cp, &p, &mut mc, &mut ec, fuel);
            assert_eq!(ri, rc, "fuel={fuel}");
            assert_eq!(mi.frames, mc.frames, "fuel={fuel}");
            assert_eq!(ei.ops, ec.ops, "fuel={fuel}: ops charge diverges");
        }
    }

    #[test]
    fn hop_fuses_and_resumes_at_the_next_pc() {
        let mut b = Builder::new();
        let ring = b.constant(Value::str("ring"));
        let hop = b.hop_spec(HopSpec { ln: NodePat::Wild, ll: LinkPat::Expr, ldir: Dir::Forward });
        let code = vec![Op::Const(ring), Op::Hop(hop), Op::Halt];
        let f = b.function("main", 0, 1, code);
        let p = b.finish(f);
        let cp = compile(&p).unwrap();
        assert!(cp.superinstructions() > 0, "const/hop must fuse");
        let mut m = launch(&p);
        let y = run(&cp, &p, &mut m, &mut NullEnv, 100).unwrap();
        assert_eq!(
            y,
            Yield::Hop(EvalHop {
                ln: None,
                ll: EvalLink::Named(Value::str("ring")),
                ldir: Dir::Forward
            })
        );
        assert_eq!(m.frames.last().unwrap().pc, 2, "resume pc is past the hop");
        // Resuming the parked/migrated state runs the tail.
        let y = run(&cp, &p, &mut m, &mut NullEnv, 100).unwrap();
        assert_eq!(y, Yield::Terminated(Value::Null));
    }

    #[test]
    fn division_by_zero_deopts_to_exact_interpreter_state() {
        let mut b = Builder::new();
        let c1 = b.constant(Value::Int(1));
        let c0 = b.constant(Value::Int(0));
        let code = vec![
            Op::Const(c1),
            Op::Const(c0),
            Op::Div,
            Op::StoreLocal(0),
            Op::LoadLocal(0),
            Op::Ret,
        ];
        let f = b.function("main", 0, 1, code);
        let p = b.finish(f);
        let err = both(&p, 1_000).unwrap_err();
        assert!(matches!(err, VmError::DivisionByZero));
    }

    #[test]
    fn miscompiled_superinstruction_is_observable() {
        // 10 - 3 fused with swapped operands must NOT equal the
        // interpreter's 7 — this is what diff_props' mutation check
        // relies on.
        let mut b = Builder::new();
        let c10 = b.constant(Value::Int(10));
        let c3 = b.constant(Value::Int(3));
        let code = vec![
            Op::Const(c10),
            Op::Const(c3),
            Op::Sub,
            Op::StoreLocal(0),
            Op::LoadLocal(0),
            Op::Ret,
        ];
        let f = b.function("main", 0, 1, code);
        let p = b.finish(f);
        let bad = compile_miscompiled(&p).unwrap();
        let mut m = launch(&p);
        let y = run(&bad, &p, &mut m, &mut NullEnv, 100).unwrap();
        assert_eq!(y, Yield::Terminated(Value::Int(-7)), "mutation must flip the result");
    }

    #[test]
    fn summary_fused_call_is_bit_exact_and_trusts_exact_ops() {
        // main: return add3(4, 5) + 1; add3: return a + b + 3;
        use crate::summary::{FnSummary, SummaryTable};
        let mut b = Builder::new();
        let c1 = b.constant(Value::Int(1));
        let c3 = b.constant(Value::Int(3));
        let c4 = b.constant(Value::Int(4));
        let c5 = b.constant(Value::Int(5));
        let leaf =
            vec![Op::LoadLocal(0), Op::LoadLocal(1), Op::Add, Op::Const(c3), Op::Add, Op::Ret];
        let lf = b.function("add3", 2, 0, leaf);
        let main = vec![
            Op::Const(c4),
            Op::Const(c5),
            Op::Call { f: lf.0, argc: 2 },
            Op::Const(c1),
            Op::Add,
            Op::Ret,
        ];
        let mf = b.function("main", 0, 0, main);
        let p = b.finish(mf);
        let mut table = SummaryTable {
            funcs: vec![
                FnSummary { exact_ops: Some(6), ..FnSummary::default() },
                FnSummary::default(),
            ],
        };
        let cp = compile_with_summaries(&p, Some(&table)).unwrap();
        assert_eq!(cp.inlined_calls(), 1, "the Call must fuse");
        // Bit-exact against the interpreter at every fuel level,
        // including the ops charge the trusted constant produces.
        for fuel in 0..20 {
            let mut mi = launch(&p);
            let mut mc = launch(&p);
            let mut ei = MapEnv::new();
            let mut ec = MapEnv::new();
            let ri = interp::run(&p, &mut mi, &mut ei, fuel);
            let rc = run(&cp, &p, &mut mc, &mut ec, fuel);
            assert_eq!(ri, rc, "fuel={fuel}");
            assert_eq!(mi.frames, mc.frames, "fuel={fuel}");
            assert_eq!(ei.ops, ec.ops, "fuel={fuel}: ops charge diverges");
        }
        // A corrupted exact_ops is an *observable* miscompile: the bulk
        // charge no longer matches the interpreter's per-op count.
        table.funcs[0].exact_ops = Some(7);
        let bad = compile_with_summaries(&p, Some(&table)).unwrap();
        let mut mi = launch(&p);
        let mut mb = launch(&p);
        let mut ei = MapEnv::new();
        let mut eb = MapEnv::new();
        let ri = interp::run(&p, &mut mi, &mut ei, 1_000);
        let rb = run(&bad, &p, &mut mb, &mut eb, 1_000);
        assert_eq!(ri, rb, "the result itself still agrees");
        assert_ne!(ei.ops, eb.ops, "the corrupted charge must diverge");
    }

    #[test]
    fn summary_licensed_typed_loop_is_bit_exact() {
        use crate::summary::{FnSummary, SummaryTable};
        // while (i < 10) { acc = acc + i * 2; i = i + 1; } return acc —
        // same loop as arithmetic_loop_matches_interpreter, now licensed
        // for the specialized typed path.
        let mut b = Builder::new();
        let c0 = b.constant(Value::Int(0));
        let c1 = b.constant(Value::Int(1));
        let c2 = b.constant(Value::Int(2));
        let c10 = b.constant(Value::Int(10));
        let code = vec![
            Op::Const(c0),
            Op::StoreLocal(0),
            Op::Const(c0),
            Op::StoreLocal(1),
            // loop head (pc 4)
            Op::LoadLocal(0),
            Op::Const(c10),
            Op::Lt,
            Op::JumpIfFalse(11),
            Op::LoadLocal(1),
            Op::LoadLocal(0),
            Op::Const(c2),
            Op::Mul,
            Op::Add,
            Op::StoreLocal(1),
            Op::LoadLocal(0),
            Op::Const(c1),
            Op::Add,
            Op::StoreLocal(0),
            Op::Jump(-15),
            // exit (pc 19)
            Op::LoadLocal(1),
            Op::Ret,
        ];
        let f = b.function("main", 0, 2, code);
        let p = b.finish(f);
        let mut table = SummaryTable::default();
        let mut s = FnSummary::default();
        s.pure_loops.insert(4);
        table.funcs = vec![s];
        let cp = compile_with_summaries(&p, Some(&table)).unwrap();
        assert_eq!(cp.typed_loops(), 1, "the loop must take the license");
        let plain = compile(&p).unwrap();
        assert_eq!(plain.typed_loops(), 0, "no license without summaries");
        for fuel in 0..80 {
            let mut mi = launch(&p);
            let mut mc = launch(&p);
            let mut ei = MapEnv::new();
            let mut ec = MapEnv::new();
            let ri = interp::run(&p, &mut mi, &mut ei, fuel);
            let rc = run(&cp, &p, &mut mc, &mut ec, fuel);
            assert_eq!(ri, rc, "fuel={fuel}");
            assert_eq!(mi.frames, mc.frames, "fuel={fuel}");
            assert_eq!(ei.ops, ec.ops, "fuel={fuel}: ops charge diverges");
        }
    }

    #[test]
    fn inline_bails_safely_on_a_faulting_or_impure_callee() {
        use crate::summary::{FnSummary, SummaryTable};
        // div(a, b) = a / b — pure, but faults when b == 0. A (bogus)
        // exact_ops license must not change the error or its position.
        let mut b = Builder::new();
        let c0 = b.constant(Value::Int(0));
        let c9 = b.constant(Value::Int(9));
        let leaf = vec![Op::LoadLocal(0), Op::LoadLocal(1), Op::Div, Op::Ret];
        let lf = b.function("div", 2, 0, leaf);
        let main = vec![Op::Const(c9), Op::Const(c0), Op::Call { f: lf.0, argc: 2 }, Op::Ret];
        let mf = b.function("main", 0, 0, main);
        let p = b.finish(mf);
        let table = SummaryTable {
            funcs: vec![
                FnSummary { exact_ops: Some(4), ..FnSummary::default() },
                FnSummary::default(),
            ],
        };
        let cp = compile_with_summaries(&p, Some(&table)).unwrap();
        assert_eq!(cp.inlined_calls(), 1);
        let mut mi = launch(&p);
        let mut mc = launch(&p);
        let mut ei = MapEnv::new();
        let mut ec = MapEnv::new();
        let ri = interp::run(&p, &mut mi, &mut ei, 1_000);
        let rc = run(&cp, &p, &mut mc, &mut ec, 1_000);
        assert_eq!(ri, rc);
        assert!(matches!(rc, Err(VmError::DivisionByZero)));
        assert_eq!(mi.frames, mc.frames, "fault frames diverge");
        assert_eq!(ei.ops, ec.ops, "fault ops charge diverges");
    }

    #[test]
    fn node_vars_and_natives_match_interpreter() {
        let mut b = Builder::new();
        let visits = b.constant(Value::str("visits"));
        let one = b.constant(Value::Int(1));
        let code = vec![
            Op::LoadNode(visits),
            Op::Const(one),
            Op::Add,
            Op::StoreNode(visits),
            Op::LoadNode(visits),
            Op::Ret,
        ];
        let f = b.function("main", 0, 0, code);
        let p = b.finish(f);
        let cp = compile(&p).unwrap();
        let mut ei = MapEnv::new();
        let mut ec = MapEnv::new();
        let mut mi = launch(&p);
        let mut mc = launch(&p);
        let ri = interp::run(&p, &mut mi, &mut ei, 100).unwrap();
        let rc = run(&cp, &p, &mut mc, &mut ec, 100).unwrap();
        assert_eq!(ri, rc);
        assert_eq!(ri, Yield::Terminated(Value::Int(1)));
        assert_eq!(ei.vars, ec.vars, "node-variable effects diverge");
        assert_eq!(ei.ops, ec.ops);
    }
}

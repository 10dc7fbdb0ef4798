//! Daemon-level unit tests: the wire-protocol handlers exercised
//! directly, without a platform.

use std::collections::HashMap;
use std::sync::Arc;

use msgr_vm::bytes::Bytes;
use std::sync::RwLock;

use msgr_core::config::{ClusterConfig, VtMode};
use msgr_core::daemon::{CodeCache, Daemon, Effect};
use msgr_core::ids::{DaemonId, NodeRef};
use msgr_core::logical::{LinkRec, Orient};
use msgr_core::topology::DaemonTopology;
use msgr_core::wire::{Migration, Wire};
use msgr_gvt::CtrlMsg;
use msgr_vm::{wire as vmwire, MessengerId, MessengerState, NativeRegistry, Value, Vt};

fn mk_daemon(id: u16, cfg: ClusterConfig) -> (Daemon, CodeCache) {
    let codes = CodeCache::new();
    let d = Daemon::new(
        DaemonId(id),
        Arc::new(cfg.clone()),
        Arc::new(DaemonTopology::clique(cfg.daemons)),
        codes.clone(),
        Arc::new(RwLock::new(NativeRegistry::new())),
    );
    (d, codes)
}

fn trivial_program() -> msgr_vm::Program {
    msgr_lang::compile("main() { node int ran; ran = ran + 1; }").unwrap()
}

fn migration_for(d: &Daemon, state: &MessengerState, epoch: u64) -> Wire {
    Wire::Migrate(Migration {
        id: state.id,
        vtime: state.vtime,
        epoch,
        anti: false,
        to: (d.id(), d.init_node()),
        via: None,
        bytes: vmwire::encode_messenger(state),
        code_bytes: 0,
    })
}

#[test]
fn migrate_wire_enqueues_and_runs() {
    let (mut d, codes) = mk_daemon(0, ClusterConfig::new(2));
    let prog = trivial_program();
    codes.register(&prog);
    let state = MessengerState::launch(&prog, MessengerId::compose(1, 1), &[]).unwrap();

    let mut fx = Vec::new();
    let cost = d.on_wire(migration_for(&d, &state, 0), &mut fx);
    assert!(cost > 0, "receiving charges CPU");
    assert!(d.has_work());

    let dir: HashMap<Value, (DaemonId, NodeRef)> = HashMap::new();
    let cost = d.run_segment(&dir, &mut fx).expect("one segment");
    assert!(cost > 0);
    assert!(!d.has_work());
    assert!(fx.contains(&Effect::LiveDelta(-1)), "termination decrements live count");
    assert_eq!(d.node_var(d.init_node(), "ran"), Some(Value::Int(1)));
}

#[test]
fn migration_to_missing_node_is_a_dead_letter() {
    let (mut d, codes) = mk_daemon(0, ClusterConfig::new(2));
    let prog = trivial_program();
    codes.register(&prog);
    let state = MessengerState::launch(&prog, MessengerId::compose(1, 1), &[]).unwrap();
    let mut fx = Vec::new();
    d.on_wire(
        Wire::Migrate(Migration {
            id: state.id,
            vtime: Vt::ZERO,
            epoch: 0,
            anti: false,
            to: (DaemonId(0), NodeRef::new(9, 999)), // never existed
            via: None,
            bytes: vmwire::encode_messenger(&state),
            code_bytes: 0,
        }),
        &mut fx,
    );
    assert!(!d.has_work());
    assert!(fx.contains(&Effect::LiveDelta(-1)));
    assert_eq!(d.stats().counter("dead_letters"), 1);
}

#[test]
fn corrupt_migration_faults_without_crashing() {
    let (mut d, _codes) = mk_daemon(0, ClusterConfig::new(1));
    let mut fx = Vec::new();
    d.on_wire(
        Wire::Migrate(Migration {
            id: MessengerId(7),
            vtime: Vt::ZERO,
            epoch: 0,
            anti: false,
            to: (DaemonId(0), d.init_node()),
            via: None,
            bytes: Bytes::from_static(&[0xFF, 0x00, 0x13]),
            code_bytes: 0,
        }),
        &mut fx,
    );
    assert!(fx.iter().any(|e| matches!(e, Effect::Fault { .. })));
    assert!(!d.has_work());
}

#[test]
fn missing_program_faults_at_execution() {
    let (mut d, _codes) = mk_daemon(0, ClusterConfig::new(1));
    // Encode a messenger whose program was never registered here.
    let foreign = msgr_lang::compile("main() { return 1; }").unwrap();
    let state = MessengerState::launch(&foreign, MessengerId::compose(0, 5), &[]).unwrap();
    let mut fx = Vec::new();
    d.on_wire(migration_for(&d, &state, 0), &mut fx);
    let dir: HashMap<Value, (DaemonId, NodeRef)> = HashMap::new();
    d.run_segment(&dir, &mut fx);
    assert!(
        fx.iter().any(|e| matches!(e, Effect::Fault { error, .. } if error.contains("registry"))),
        "{fx:?}"
    );
}

#[test]
fn unlink_wire_collects_singletons() {
    let (mut d, _codes) = mk_daemon(0, ClusterConfig::new(1));
    let leaf = d.build_node(Value::str("leaf"));
    let inst = d.alloc_link();
    d.install_link(
        leaf,
        LinkRec {
            inst,
            name: Value::str("tether"),
            orient: Orient::Undirected,
            peer: (DaemonId(0), d.init_node()),
            peer_name: Value::str("init"),
        },
    );
    let mut fx = Vec::new();
    d.on_wire(Wire::Unlink { node: leaf, inst }, &mut fx);
    assert!(d.node(leaf).is_none(), "singleton must be deleted");
    assert!(fx.contains(&Effect::DirectoryRemove { name: Value::str("leaf") }));
    // init is exempt even when linkless.
    assert!(d.node(d.init_node()).is_some());
}

#[test]
fn anti_messenger_annihilates_pending_or_stashes() {
    let mut cfg = ClusterConfig::new(2);
    cfg.vt_mode = VtMode::Optimistic;
    let (mut d, codes) = mk_daemon(0, cfg);
    let prog = trivial_program();
    codes.register(&prog);
    let mut state = MessengerState::launch(&prog, MessengerId::compose(1, 9), &[]).unwrap();
    state.vtime = Vt::new(3.0);

    let anti = |id: MessengerId| {
        Wire::Migrate(Migration {
            id,
            vtime: Vt::new(3.0),
            epoch: 0,
            anti: true,
            to: (DaemonId(0), NodeRef::new(0, 0)),
            via: None,
            bytes: Bytes::new(),
            code_bytes: 0,
        })
    };

    // Case 1: positive first, then anti → annihilated from the queue.
    let mut fx = Vec::new();
    d.on_wire(migration_for(&d, &state, 0), &mut fx);
    assert!(d.has_work());
    d.on_wire(anti(state.id), &mut fx);
    assert!(!d.has_work(), "positive must be annihilated");
    assert_eq!(d.stats().counter("annihilations"), 1);

    // Case 2: anti overtakes the positive → stashed, positive dies on
    // arrival.
    let id2 = MessengerId::compose(1, 10);
    let mut state2 = state.clone();
    state2.id = id2;
    d.on_wire(anti(id2), &mut fx);
    assert!(!d.has_work());
    d.on_wire(migration_for(&d, &state2, 0), &mut fx);
    assert!(!d.has_work(), "late positive must be swallowed by the stashed anti");
    assert_eq!(d.stats().counter("annihilations"), 2);
}

#[test]
fn gvt_kick_starts_round_only_on_coordinator() {
    let (mut d0, _) = mk_daemon(0, ClusterConfig::new(3));
    let (mut d1, _) = mk_daemon(1, ClusterConfig::new(3));
    let mut fx = Vec::new();
    d0.on_wire(Wire::GvtKick, &mut fx);
    let cuts = fx
        .iter()
        .filter(|e| matches!(e, Effect::Send { wire: Wire::Gvt(CtrlMsg::Cut { .. }), .. }))
        .count();
    assert_eq!(cuts, 3, "coordinator broadcasts a cut to all daemons");
    fx.clear();
    d1.on_wire(Wire::GvtKick, &mut fx);
    assert!(fx.is_empty(), "non-coordinators ignore kicks");
}

/// The `Gvt` frames in `fx`, as `(destination, message)`.
fn gvt_sends(fx: &[Effect]) -> Vec<(u16, CtrlMsg)> {
    fx.iter()
        .filter_map(|e| match e {
            Effect::Send { dst, wire: Wire::Gvt(m) } => Some((dst.0, m.clone())),
            _ => None,
        })
        .collect()
}

fn kicks(fx: &[Effect]) -> usize {
    fx.iter()
        .filter(|e| matches!(e, Effect::Send { dst: DaemonId(0), wire: Wire::GvtKick }))
        .count()
}

#[test]
fn gvt_kick_during_a_round_is_latched_until_advance() {
    let (mut d0, _) = mk_daemon(0, ClusterConfig::new(2));
    let (mut d1, _) = mk_daemon(1, ClusterConfig::new(2));
    let mut fx = Vec::new();
    d0.on_wire(Wire::GvtKick, &mut fx);
    assert_eq!(gvt_sends(&fx).len(), 2, "the first kick broadcasts round 1's cut");
    fx.clear();
    d0.on_wire(Wire::GvtKick, &mut fx);
    assert!(fx.is_empty(), "a kick mid-round sends nothing: {fx:?}");

    // Both participants ack the cut; the acks close round 1.
    let cut = Wire::Gvt(CtrlMsg::Cut { round: 1 });
    let mut acks = Vec::new();
    d0.on_wire(cut.clone(), &mut acks);
    d1.on_wire(cut, &mut acks);
    for (_, ack) in gvt_sends(&acks) {
        d0.on_wire(Wire::Gvt(ack), &mut fx);
    }
    // The latched kick begins round 2 in the same batch, each cut behind
    // its daemon's advance.
    for d in 0..2 {
        let to_d: Vec<CtrlMsg> =
            gvt_sends(&fx).into_iter().filter(|(dst, _)| *dst == d).map(|(_, m)| m).collect();
        assert!(
            matches!(to_d[..], [CtrlMsg::Advance { .. }, CtrlMsg::Cut { round: 2 }]),
            "d{d}: {to_d:?}"
        );
    }
}

#[test]
fn only_work_earns_an_idle_kick() {
    let (mut d, codes) = mk_daemon(1, ClusterConfig::new(2));
    let prog = msgr_lang::compile("main() { M_sched_time_abs(7.5); }").unwrap();
    codes.register(&prog);
    d.launch(&prog, &[], d.init_node()).unwrap();
    let dir: HashMap<Value, (DaemonId, NodeRef)> = HashMap::new();
    let mut fx = Vec::new();
    d.run_segment(&dir, &mut fx); // parks at vt 7.5
    fx.clear();
    d.idle_kick(&mut fx);
    assert_eq!(kicks(&fx), 1, "a segment earns one kick");
    fx.clear();
    d.idle_kick(&mut fx);
    assert!(fx.is_empty(), "one kick per stretch of work");

    // A whole round, closed by an advance that releases nothing, is no work.
    d.on_wire(Wire::Gvt(CtrlMsg::Cut { round: 1 }), &mut fx);
    d.on_wire(Wire::Gvt(CtrlMsg::Poll { round: 1 }), &mut fx);
    d.on_wire(Wire::Gvt(CtrlMsg::Advance { gvt: Vt::new(5.0) }), &mut fx);
    assert!(!d.has_work());
    fx.clear();
    d.idle_kick(&mut fx);
    assert!(fx.is_empty(), "GVT frames must not earn a kick: {fx:?}");

    // An advance that releases the messenger leads to work, and so a kick.
    d.on_wire(Wire::Gvt(CtrlMsg::Advance { gvt: Vt::new(7.5) }), &mut fx);
    d.run_segment(&dir, &mut fx);
    fx.clear();
    d.idle_kick(&mut fx);
    assert_eq!(kicks(&fx), 1);
}

#[test]
fn cut_wire_produces_ack_with_local_min() {
    let (mut d, codes) = mk_daemon(1, ClusterConfig::new(2));
    let prog = msgr_lang::compile("main() { M_sched_time_abs(7.5); }").unwrap();
    codes.register(&prog);
    d.launch(&prog, &[], d.init_node()).unwrap();
    let dir: HashMap<Value, (DaemonId, NodeRef)> = HashMap::new();
    let mut fx = Vec::new();
    d.run_segment(&dir, &mut fx); // suspends at vt 7.5
    assert_eq!(d.local_min(), Vt::new(7.5));

    fx.clear();
    d.on_wire(Wire::Gvt(CtrlMsg::Cut { round: 1 }), &mut fx);
    match &fx[..] {
        [Effect::Send { dst, wire: Wire::Gvt(CtrlMsg::CutAck { lmin, daemon, .. }) }] => {
            assert_eq!(*dst, DaemonId(0));
            assert_eq!(*daemon, 1);
            assert_eq!(*lmin, Vt::new(7.5));
        }
        other => panic!("expected one CutAck, got {other:?}"),
    }

    // Advance past the wake time releases the messenger.
    fx.clear();
    d.on_wire(Wire::Gvt(CtrlMsg::Advance { gvt: Vt::new(7.5) }), &mut fx);
    assert!(d.has_work());
}

#[test]
fn carry_code_inflates_wire_size_only() {
    let mut cfg = ClusterConfig::new(2);
    cfg.carry_code = true;
    let (mut d, codes) = mk_daemon(0, cfg);
    let prog = msgr_lang::compile(r#"main() { hop(ll = "out"); }"#).unwrap();
    codes.register(&prog);
    // Give init an outgoing link so the hop matches.
    let inst = d.alloc_link();
    let init = d.init_node();
    d.install_link(
        init,
        LinkRec {
            inst,
            name: Value::str("out"),
            orient: Orient::Undirected,
            peer: (DaemonId(1), NodeRef::new(1, 0)),
            peer_name: Value::str("init"),
        },
    );
    d.launch(&prog, &[], init).unwrap();
    let dir: HashMap<Value, (DaemonId, NodeRef)> = HashMap::new();
    let mut fx = Vec::new();
    d.run_segment(&dir, &mut fx);
    let sent = fx
        .iter()
        .find_map(|e| match e {
            Effect::Send { wire: Wire::Migrate(m), .. } => Some(m.clone()),
            _ => None,
        })
        .expect("hop sent a migration");
    assert!(sent.code_bytes > 0, "carry-code mode ships the program");
    assert_eq!(sent.code_bytes, prog.wire_bytes());
    // The decoded state itself is unchanged.
    let back = vmwire::decode_messenger(sent.bytes).unwrap();
    assert_eq!(back.program, prog.id());
}

#[test]
fn local_min_spans_ready_and_pending() {
    let (mut d, codes) = mk_daemon(1, ClusterConfig::new(2));
    assert_eq!(d.local_min(), Vt::INFINITY);
    let prog = trivial_program();
    codes.register(&prog);
    d.launch(&prog, &[], d.init_node()).unwrap();
    assert_eq!(d.local_min(), Vt::ZERO, "ready messengers count");
}

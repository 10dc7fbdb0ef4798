//! Property tests for the inter-daemon frame codec.

use msgr_check::{check, check_with, prop_assert, prop_assert_eq, Config, Source};
use msgr_core::wire::{decode_frame, encode_frame, CreateNode, Migration, Wire};
use msgr_core::{DaemonId, NodeRef};
use msgr_gvt::CtrlMsg;
use msgr_vm::{Bytes, LinkInstance, MessengerId, Value, Vt};

fn arb_vt(s: &mut Source) -> Vt {
    if s.bool_with(0.1) {
        Vt::new(f64::INFINITY)
    } else {
        Vt::new(s.f64_in(0.0, 1e9))
    }
}

fn arb_node_ref(s: &mut Source) -> NodeRef {
    NodeRef::new(s.any_u16(), s.any_u64())
}

fn arb_endpoint(s: &mut Source) -> (DaemonId, NodeRef) {
    (DaemonId(s.any_u16()), arb_node_ref(s))
}

fn arb_name(s: &mut Source) -> Value {
    if s.any_bool() {
        Value::Null
    } else {
        Value::str(s.string(0..12, "abcdefghij"))
    }
}

fn arb_migration(s: &mut Source) -> Migration {
    Migration {
        id: MessengerId(s.any_u64()),
        vtime: arb_vt(s),
        epoch: s.any_u64(),
        anti: s.any_bool(),
        to: arb_endpoint(s),
        via: if s.any_bool() { Some(LinkInstance(s.any_u64())) } else { None },
        bytes: Bytes::from(s.vec_with(0..64, |s| s.any_u8())),
        code_bytes: s.any_u64(),
    }
}

fn arb_ctrl(s: &mut Source) -> CtrlMsg {
    match s.draw(5) {
        0 => CtrlMsg::Cut { round: s.any_u64() },
        1 => CtrlMsg::CutAck {
            round: s.any_u64(),
            daemon: s.any_u16(),
            lmin: arb_vt(s),
            prev_sent: s.any_u64(),
            prev_recv: s.any_u64(),
            late_min: arb_vt(s),
            cur_sent_min: arb_vt(s),
        },
        2 => CtrlMsg::Poll { round: s.any_u64() },
        3 => CtrlMsg::PollAck {
            round: s.any_u64(),
            daemon: s.any_u16(),
            lmin: arb_vt(s),
            prev_recv: s.any_u64(),
            late_min: arb_vt(s),
            cur_sent_min: arb_vt(s),
        },
        _ => CtrlMsg::Advance { gvt: arb_vt(s) },
    }
}

/// Frames that can ride inside a transport envelope (everything except
/// `Data`/`Ack` themselves — the codec rejects nesting).
fn arb_payload_frame(s: &mut Source) -> Wire {
    match s.draw(5) {
        0 => Wire::Migrate(arb_migration(s)),
        1 => Wire::Create(Box::new(CreateNode {
            gid: arb_node_ref(s),
            name: arb_name(s),
            origin: arb_endpoint(s),
            origin_name: arb_name(s),
            inst: LinkInstance(s.any_u64()),
            link_name: arb_name(s),
            orient_at_new: *s.pick(&[
                msgr_core::logical::Orient::Out,
                msgr_core::logical::Orient::In,
                msgr_core::logical::Orient::Undirected,
            ]),
            messenger: arb_migration(s),
        })),
        2 => Wire::Unlink { node: arb_node_ref(s), inst: LinkInstance(s.any_u64()) },
        3 => Wire::Gvt(arb_ctrl(s)),
        _ => Wire::GvtKick,
    }
}

fn arb_frame(s: &mut Source) -> Wire {
    match s.draw(9) {
        5 => Wire::Data {
            src: DaemonId(s.any_u16()),
            chan: DaemonId(s.any_u16()),
            seq: s.any_u64(),
            frame: Box::new(arb_payload_frame(s)),
        },
        6 => Wire::Ack {
            src: DaemonId(s.any_u16()),
            chan: DaemonId(s.any_u16()),
            cum: s.any_u64(),
            seq: s.any_u64(),
        },
        7 => Wire::Beat { from: DaemonId(s.any_u16()), epoch: s.any_u64() },
        8 => Wire::Evict { victim: DaemonId(s.any_u16()), epoch: s.any_u64(), floor: arb_vt(s) },
        _ => arb_payload_frame(s),
    }
}

#[test]
fn frame_codec_round_trips() {
    check("frame_codec_round_trips", |s| {
        let w = arb_frame(s);
        let bytes = encode_frame(&w);
        let back = decode_frame(bytes).unwrap();
        prop_assert_eq!(back, w);
        Ok(())
    });
}

#[test]
fn frame_decoder_never_panics_on_garbage() {
    check("frame_decoder_never_panics_on_garbage", |s| {
        let raw = s.vec_with(0..128, |s| s.any_u8());
        // Must return Ok or Err, never panic.
        let _ = decode_frame(Bytes::from(raw));
        Ok(())
    });
}

#[test]
fn frame_decoder_rejects_truncations() {
    check("frame_decoder_rejects_truncations", |s| {
        let w = arb_frame(s);
        let full = encode_frame(&w);
        let cut = s.usize_in(0..full.len().max(1));
        if cut < full.len() {
            prop_assert!(
                decode_frame(full.slice(..cut)).is_err(),
                "truncation at {cut} of {w:?} decoded"
            );
        }
        Ok(())
    });
}

#[test]
fn frame_corruption_never_silently_round_trips() {
    // Flip one byte of an encoded payload frame, bare or inside
    // a `Data` envelope: the decoder must either reject the buffer or
    // produce a visibly different frame, never report the original frame
    // from corrupted bytes. This pins the strict parts of the codec: the
    // varint overflow checks and the 0/1-only flag bytes.
    let cases = Config { cases: 256, ..Config::default() };
    check_with(cases, "frame_corruption_never_silently_round_trips", |s| {
        let payload = arb_payload_frame(s);
        let w = if s.any_bool() {
            Wire::Data {
                src: DaemonId(s.any_u16()),
                chan: DaemonId(s.any_u16()),
                seq: s.any_u64(),
                frame: Box::new(payload),
            }
        } else {
            payload
        };
        let full: Vec<u8> = encode_frame(&w).as_ref().to_vec();
        // A non-zero XOR at every position, so the one-byte flags are
        // hit in every case.
        let flip = (s.draw(255) + 1) as u8;
        for at in 0..full.len() {
            let mut raw = full.clone();
            raw[at] ^= flip;
            if let Ok(back) = decode_frame(Bytes::from(raw)) {
                prop_assert!(
                    back != w,
                    "corrupt byte {at} (xor {flip:#x}) silently round-tripped {w:?}"
                );
            }
        }
        Ok(())
    });
}

/// The retired batch layout: tag 9, a frame count, then the frames
/// back to back.
fn old_batch(frames: &[Wire]) -> Vec<u8> {
    let mut raw = vec![9u8, frames.len() as u8];
    for f in frames {
        raw.extend_from_slice(encode_frame(f).as_ref());
    }
    raw
}

#[test]
fn retired_batch_tag_is_refused() {
    // Tag 9 is retired: no encoder emits it, so a buffer that starts
    // with it is malformed whatever follows, a well-formed old batch
    // included.
    check("retired_batch_tag_is_refused", |s| {
        let frames = [Wire::Migrate(arb_migration(s)), Wire::Migrate(arb_migration(s))];
        prop_assert!(decode_frame(Bytes::from(old_batch(&frames))).is_err(), "old batch decoded");
        let mut raw = vec![9u8];
        raw.extend(s.vec_with(0..64, |s| s.any_u8()));
        prop_assert!(decode_frame(Bytes::from(raw)).is_err(), "tag 9 decoded");
        Ok(())
    });
}

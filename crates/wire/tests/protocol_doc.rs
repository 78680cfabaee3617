//! The wire contract cannot drift from its golden document: the error
//! codes and frame tags of the compiled protocol are checked against
//! `docs/PROTOCOL.md` in both directions. A code or tag can therefore
//! only change together with a reviewed edit to that file.

use std::collections::BTreeSet;

use softermax_wire::{
    ErrorCode, Frame, Hello, HelloAck, SubmitReply, SubmitRequest, WireError, MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
};

const PROTOCOL_MD: &str = include_str!("../../../docs/PROTOCOL.md");

/// Every `ErrorCode` variant. The `match` has no wildcard arm, so a new
/// variant stops this test compiling until it is listed here too.
fn all_error_codes() -> Vec<ErrorCode> {
    use ErrorCode::*;
    let codes = vec![
        EmptyInput,
        InvalidConfig,
        DivisionByZero,
        QueueFull,
        DeadlineExceeded,
        EngineShutdown,
        UnknownKernel,
        Protocol,
        Internal,
    ];
    for code in &codes {
        match code {
            EmptyInput | InvalidConfig | DivisionByZero | QueueFull | DeadlineExceeded
            | EngineShutdown | UnknownKernel | Protocol | Internal => {}
        }
    }
    codes
}

/// One sample of every `Frame` variant, listed through a `match` with no
/// wildcard arm for the same reason.
fn sample_frames() -> Vec<Frame> {
    let frames = vec![
        Frame::Hello(Hello {
            max_version: PROTOCOL_VERSION,
            client: "doc".into(),
        }),
        Frame::HelloAck(HelloAck {
            version: PROTOCOL_VERSION,
            server: "doc".into(),
            max_frame_bytes: MAX_FRAME_BYTES,
        }),
        Frame::Submit(SubmitRequest::build(7, "softermax", &[0.5, 1.0], 2).expect("valid shape")),
        Frame::SubmitReply(SubmitReply {
            id: 7,
            result: Err(WireError::new(ErrorCode::DeadlineExceeded, "late")),
        }),
        Frame::Health,
        Frame::HealthReply(serde::Value::Object(Vec::new())),
        Frame::Stats,
        Frame::StatsReply(serde::Value::Object(Vec::new())),
        Frame::ListKernels,
        Frame::KernelsReply(vec!["softermax".into()]),
        Frame::Shutdown,
        Frame::ShutdownAck,
        Frame::Error(WireError::new(ErrorCode::Protocol, "bad")),
    ];
    for frame in &frames {
        match frame {
            Frame::Hello(_)
            | Frame::HelloAck(_)
            | Frame::Submit(_)
            | Frame::SubmitReply(_)
            | Frame::Health
            | Frame::HealthReply(_)
            | Frame::Stats
            | Frame::StatsReply(_)
            | Frame::ListKernels
            | Frame::KernelsReply(_)
            | Frame::Shutdown
            | Frame::ShutdownAck
            | Frame::Error(_) => {}
        }
    }
    frames
}

/// The code column of the document's error table: rows `| N | … |`.
fn documented_codes() -> BTreeSet<u16> {
    PROTOCOL_MD
        .lines()
        .filter_map(|line| line.trim().strip_prefix('|')?.split('|').next())
        .filter_map(|cell| cell.trim().parse().ok())
        .collect()
}

#[test]
fn error_codes_match_the_protocol_table() {
    let compiled: BTreeSet<u16> = all_error_codes()
        .into_iter()
        .map(ErrorCode::as_u16)
        .collect();
    let documented = documented_codes();
    assert_eq!(
        compiled.difference(&documented).collect::<Vec<_>>(),
        Vec::<&u16>::new(),
        "ErrorCode values missing from the docs/PROTOCOL.md error table"
    );
    assert_eq!(
        documented.difference(&compiled).collect::<Vec<_>>(),
        Vec::<&u16>::new(),
        "docs/PROTOCOL.md documents codes ErrorCode does not define; codes are \
         append-only, never removed"
    );
}

#[test]
fn every_code_decodes_to_itself_and_unknown_codes_to_internal() {
    for code in all_error_codes() {
        let n = code.as_u16();
        assert_eq!(ErrorCode::from_u16(n).as_u16(), n, "code {n}");
    }
    let documented = documented_codes();
    for n in 0..=u16::MAX {
        if !documented.contains(&n) {
            assert_eq!(ErrorCode::from_u16(n), ErrorCode::Internal, "code {n}");
        }
    }
}

#[test]
fn every_frame_tag_has_a_protocol_example() {
    let frames = sample_frames();
    let tags: BTreeSet<&str> = frames.iter().map(Frame::tag).collect();
    assert_eq!(tags.len(), frames.len(), "frame tags must be distinct");
    for tag in tags {
        let needle = format!("\"type\":\"{tag}\"");
        assert!(
            PROTOCOL_MD.contains(&needle),
            "frame tag \"{tag}\" has no `{needle}` example in docs/PROTOCOL.md"
        );
    }
}

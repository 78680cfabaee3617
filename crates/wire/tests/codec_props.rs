//! Property tests for the wire codec: every frame type round-trips
//! bit-exactly, and truncated / oversized / garbage / version-mismatched
//! input always comes back as a typed [`FrameError`] — never a panic,
//! never a partial read surfaced as success.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::strategy::boxed;

use softermax_wire::{
    encode_frame, read_frame, ErrorCode, Frame, FrameError, Hello, HelloAck, SubmitReply,
    SubmitRequest, WireError, WirePriority, HEADER_BYTES, MAGIC, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};

/// A strategy over every frame variant the protocol defines, with
/// randomized payloads (shapes, scores, optional fields, error codes).
fn any_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        boxed(
            (1u16..4, 0u64..u64::MAX).prop_map(|(v, salt)| Frame::Hello(Hello {
                max_version: v,
                client: format!("client-{salt}"),
            }))
        ),
        boxed((0u64..1 << 40).prop_map(|salt| Frame::HelloAck(HelloAck {
            version: PROTOCOL_VERSION,
            server: format!("server-{salt}"),
            max_frame_bytes: MAX_FRAME_BYTES,
        }))),
        boxed(any_submit().prop_map(Frame::Submit)),
        boxed(any_reply().prop_map(Frame::SubmitReply)),
        boxed(Just(Frame::Health)),
        boxed(Just(Frame::Stats)),
        boxed(Just(Frame::ListKernels)),
        boxed(Just(Frame::Shutdown)),
        boxed(Just(Frame::ShutdownAck)),
        boxed((0u64..256).prop_map(|n| Frame::KernelsReply(
            (0..n % 9).map(|i| format!("kernel-{i}")).collect()
        ))),
        boxed((1u64..10, -32.0f64..32.0).prop_map(|(code, x)| {
            let body = serde::Value::Object(vec![
                ("healthy".into(), serde::Value::Bool(code % 2 == 0)),
                ("load".into(), serde::Value::Float(x)),
            ]);
            if code % 2 == 0 {
                Frame::HealthReply(body)
            } else {
                Frame::StatsReply(body)
            }
        })),
        boxed(
            (1u64..12, 0u64..u64::MAX).prop_map(|(code, salt)| Frame::Error(WireError::new(
                #[allow(clippy::cast_possible_truncation)]
                ErrorCode::from_u16(code as u16),
                format!("detail-{salt}"),
            )))
        ),
    ]
}

fn any_submit() -> impl Strategy<Value = SubmitRequest> {
    (
        (0usize..6, 1usize..17, 0u64..u64::MAX),
        vec(-32.0f64..32.0, 0..128),
        (0u64..4, 1u64..1000, 0u64..3),
    )
        .prop_map(|((n_rows, row_len, id), pool, (chunked, budget, prio))| {
            let scores: Vec<f64> = (0..n_rows * row_len)
                .map(|i| pool.get(i % pool.len().max(1)).copied().unwrap_or(0.5))
                .collect();
            let mut req = SubmitRequest::build(id, "softermax", &scores, row_len)
                .expect("generated shape is valid");
            if chunked == 1 {
                req = req.streamed(1 + row_len / 2).expect("valid chunk");
            }
            if prio == 1 {
                req = req.with_priority(WirePriority::Batch);
            }
            if budget % 3 == 0 {
                req = req.with_deadline_ms(budget).expect("valid budget");
            }
            req
        })
}

/// A reader that hands out one byte per `read` and answers every other
/// call with `ErrorKind::Interrupted`: the short reads and retries a
/// socket may produce, which a slice reader never does.
struct Trickle<'a> {
    bytes: &'a [u8],
    interrupt: bool,
}

impl std::io::Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.interrupt = !self.interrupt;
        if self.interrupt {
            return Err(std::io::ErrorKind::Interrupted.into());
        }
        let (Some(first), Some(slot)) = (self.bytes.first(), buf.first_mut()) else {
            return Ok(0);
        };
        *slot = *first;
        self.bytes = &self.bytes[1..];
        Ok(1)
    }
}

fn any_reply() -> impl Strategy<Value = SubmitReply> {
    (0u64..u64::MAX, vec(-32.0f64..32.0, 0..64), 1u64..10).prop_map(|(id, scores, code)| {
        let result = if code % 2 == 0 {
            Ok(softermax_wire::types::scores_from_f64(&scores).expect("finite"))
        } else {
            #[allow(clippy::cast_possible_truncation)]
            Err(WireError::new(ErrorCode::from_u16(code as u16), "err"))
        };
        SubmitReply { id, result }
    })
}

proptest! {
    /// Encode → decode is the identity for every frame type, and score
    /// payloads survive bit-exactly.
    #[test]
    fn every_frame_round_trips(frame in any_frame()) {
        let bytes = encode_frame(&frame).expect("encodable");
        let back = read_frame(&mut &bytes[..]).expect("decodable");
        prop_assert_eq!(&back, &frame);
        if let (Frame::Submit(a), Frame::Submit(b)) = (&frame, &back) {
            for (x, y) in a.scores.iter().zip(&b.scores) {
                prop_assert_eq!(x.get().to_bits(), y.get().to_bits());
            }
        }
        // And the stream is left exactly at the frame boundary: a
        // second read sees a clean close, not leftover bytes.
        let mut cursor = &bytes[..];
        let _ = read_frame(&mut cursor).expect("decodable");
        prop_assert!(matches!(read_frame(&mut cursor), Err(FrameError::Closed)));

        // Short reads and `Interrupted` retries decode the same frame,
        // and a body cut short is still `Truncated`.
        let trickled = read_frame(&mut Trickle { bytes: &bytes, interrupt: false });
        prop_assert_eq!(&trickled.expect("decodable one byte at a time"), &frame);
        let cut = &bytes[..bytes.len() - 1];
        prop_assert!(matches!(
            read_frame(&mut Trickle { bytes: cut, interrupt: false }),
            Err(FrameError::Truncated)
        ));
    }

    /// Any truncation of a valid frame is a typed error, never a panic
    /// and never a shorter-but-valid decode.
    #[test]
    fn truncations_are_typed_errors(frame in any_frame(), frac in 0.0f64..1.0) {
        let bytes = encode_frame(&frame).expect("encodable");
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let cut = ((bytes.len() as f64) * frac) as usize;
        if cut >= bytes.len() {
            return;
        }
        match read_frame(&mut &bytes[..cut]) {
            Err(FrameError::Closed) => prop_assert_eq!(cut, 0),
            Err(FrameError::Truncated) => prop_assert!(cut > 0),
            other => panic!("cut {cut}/{}: expected Closed/Truncated, got {other:?}", bytes.len()),
        }
    }

    /// Arbitrary garbage bytes never panic the decoder; when they do
    /// decode (the generator dodges the magic, so they should not),
    /// re-encoding must reproduce a valid frame.
    #[test]
    fn garbage_never_panics(bytes in vec(0u64..256, 0..256)) {
        #[allow(clippy::cast_possible_truncation)]
        let mut bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        // Half the cases get a valid magic prefix so the deeper
        // header/body paths are fuzzed too, not just the magic check.
        if bytes.first().copied().unwrap_or(0) % 2 == 0 && bytes.len() >= 4 {
            bytes[..4].copy_from_slice(&MAGIC);
        }
        match read_frame(&mut &bytes[..]) {
            Ok(frame) => {
                // Vanishingly unlikely, but must still be coherent.
                prop_assert!(encode_frame(&frame).is_ok());
            }
            Err(_typed) => {}
        }
    }

    /// A header carrying any version other than v1 is rejected before
    /// the body is touched.
    #[test]
    fn version_mismatch_is_typed(frame in any_frame(), version in 0u64..u64::from(u16::MAX)) {
        #[allow(clippy::cast_possible_truncation)]
        let version = version as u16;
        if version == PROTOCOL_VERSION {
            return;
        }
        let mut bytes = encode_frame(&frame).expect("encodable");
        bytes[4..6].copy_from_slice(&version.to_be_bytes());
        match read_frame(&mut &bytes[..]) {
            Err(FrameError::VersionMismatch { got, want }) => {
                prop_assert_eq!(got, version);
                prop_assert_eq!(want, PROTOCOL_VERSION);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
    }

    /// Any declared body length past the cap is rejected from the
    /// header alone.
    #[test]
    fn oversized_declarations_are_rejected(extra in 1u64..u64::from(u32::MAX - MAX_FRAME_BYTES)) {
        #[allow(clippy::cast_possible_truncation)]
        let declared = MAX_FRAME_BYTES + extra as u32;
        let mut bytes = Vec::with_capacity(HEADER_BYTES);
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&PROTOCOL_VERSION.to_be_bytes());
        bytes.extend_from_slice(&declared.to_be_bytes());
        match read_frame(&mut &bytes[..]) {
            Err(FrameError::Oversized { declared: d, cap }) => {
                prop_assert_eq!(d, declared);
                prop_assert_eq!(cap, MAX_FRAME_BYTES);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }
}

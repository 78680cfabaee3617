//! Length-prefixed framing over any `Read`/`Write` stream.
//!
//! One frame on the wire is a fixed 10-byte header followed by a JSON
//! body (rendered through the serde shim):
//!
//! ```text
//! offset  size  field
//! 0       4     magic "SMAX" (0x53 0x4D 0x41 0x58)
//! 4       2     protocol version, big-endian u16 (currently 1)
//! 6       4     body length in bytes, big-endian u32
//! 10      len   body: one JSON object, UTF-8
//! ```
//!
//! Decoding is total and order-hardened: the magic is checked before
//! the version, the version before the length, and the length against
//! the cap **before a single body byte is read** — a malicious header
//! declaring a multi-gigabyte body costs the server 10 bytes of reads,
//! not an allocation. Every failure is a typed [`FrameError`]; no input
//! can panic the decoder, and a short read is never surfaced as a
//! successfully decoded frame.

use std::fmt;
use std::io::{self, Read, Write};

use serde::{Deserialize, Serialize};

use crate::frame::Frame;

/// The 4-byte frame magic, `"SMAX"`.
pub const MAGIC: [u8; 4] = *b"SMAX";

/// The protocol version this build speaks (and the only one it
/// accepts; negotiation happens in `Hello`/`HelloAck` bodies, the
/// header version is the framing layer's own).
pub const PROTOCOL_VERSION: u16 = 1;

/// Hard cap on a frame body: 32 MiB. Large enough for a
/// `MAX_DIM`-score request row with headroom, small enough that a
/// hostile header cannot make a peer allocate unboundedly.
pub const MAX_FRAME_BYTES: u32 = 32 * 1024 * 1024;

/// Bytes in the fixed frame header.
pub const HEADER_BYTES: usize = 10;

/// Everything that can go wrong encoding or decoding one frame.
#[derive(Debug)]
pub enum FrameError {
    /// The stream closed cleanly on a frame boundary (0 bytes of the
    /// next header were readable). The orderly end of a connection.
    Closed,
    /// The stream ended mid-frame: a partial header or a body shorter
    /// than its declared length.
    Truncated,
    /// A transport-level I/O failure.
    Io(io::Error),
    /// The first four bytes were not [`MAGIC`] — the peer is not
    /// speaking this protocol (or the stream lost sync).
    BadMagic([u8; 4]),
    /// The header carried a protocol version this build does not speak.
    VersionMismatch {
        /// The version the peer sent.
        got: u16,
        /// The version this build speaks.
        want: u16,
    },
    /// The header declared a body larger than the cap; the body was
    /// not read.
    Oversized {
        /// The declared body length.
        declared: u32,
        /// The cap it exceeded.
        cap: u32,
    },
    /// The body was not valid UTF-8.
    BadUtf8,
    /// The body was not valid JSON.
    BadJson(String),
    /// The body was valid JSON but not a known frame shape.
    BadShape(String),
    /// Encode-side: the frame's body would exceed the cap.
    TooLarge {
        /// The encoded body length.
        body: usize,
        /// The cap it exceeded.
        cap: u32,
    },
}

impl FrameError {
    /// Whether this error means the stream can no longer be framed
    /// (desync or transport loss) as opposed to one bad body.
    #[must_use]
    pub fn is_fatal(&self) -> bool {
        // After a bad magic, truncation, or I/O error the byte stream
        // position is unknowable; bad bodies arrive length-prefixed, so
        // the next frame boundary is still trustworthy.
        !matches!(self, FrameError::BadJson(_) | FrameError::BadShape(_))
    }
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Closed => write!(f, "stream closed on a frame boundary"),
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::VersionMismatch { got, want } => {
                write!(
                    f,
                    "protocol version {got} unsupported (this build speaks {want})"
                )
            }
            FrameError::Oversized { declared, cap } => {
                write!(f, "declared frame body {declared} B exceeds cap {cap} B")
            }
            FrameError::BadUtf8 => write!(f, "frame body is not UTF-8"),
            FrameError::BadJson(msg) => write!(f, "frame body is not JSON: {msg}"),
            FrameError::BadShape(msg) => write!(f, "frame body is not a known frame: {msg}"),
            FrameError::TooLarge { body, cap } => {
                write!(f, "encoded frame body {body} B exceeds cap {cap} B")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Encodes a frame (header + body) against [`MAX_FRAME_BYTES`].
///
/// # Errors
///
/// Returns [`FrameError::TooLarge`] when the body exceeds the cap.
pub fn encode_frame(frame: &Frame) -> Result<Vec<u8>, FrameError> {
    encode_frame_capped(frame, MAX_FRAME_BYTES)
}

/// Encodes a frame against an explicit body cap.
///
/// # Errors
///
/// Returns [`FrameError::TooLarge`] when the body exceeds `cap`.
pub fn encode_frame_capped(frame: &Frame, cap: u32) -> Result<Vec<u8>, FrameError> {
    let body = frame.to_value().to_json();
    if body.len() > cap as usize {
        return Err(FrameError::TooLarge {
            body: body.len(),
            cap,
        });
    }
    let mut out = Vec::with_capacity(HEADER_BYTES + body.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&PROTOCOL_VERSION.to_be_bytes());
    #[allow(clippy::cast_possible_truncation)] // body.len() <= cap: u32
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    out.extend_from_slice(body.as_bytes());
    Ok(out)
}

/// Encodes and writes one frame, returning the bytes put on the wire
/// (header included) for overhead accounting.
///
/// # Errors
///
/// Returns [`FrameError::TooLarge`] when the body exceeds the cap, or
/// [`FrameError::Io`] on a write failure.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<usize, FrameError> {
    let bytes = encode_frame(frame)?;
    w.write_all(&bytes)?;
    Ok(bytes.len())
}

/// Reads one frame against [`MAX_FRAME_BYTES`].
///
/// # Errors
///
/// See [`read_frame_capped`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, FrameError> {
    read_frame_capped(r, MAX_FRAME_BYTES)
}

/// Reads one frame against an explicit body cap.
///
/// # Errors
///
/// [`FrameError::Closed`] on a clean EOF at a frame boundary;
/// [`FrameError::Truncated`] on EOF mid-frame; [`FrameError::BadMagic`],
/// [`FrameError::VersionMismatch`], or [`FrameError::Oversized`] on a
/// hostile or desynced header (the body is not read);
/// [`FrameError::BadUtf8`] / [`FrameError::BadJson`] /
/// [`FrameError::BadShape`] on an undecodable body; [`FrameError::Io`]
/// on transport failure.
pub fn read_frame_capped<R: Read>(r: &mut R, cap: u32) -> Result<Frame, FrameError> {
    let mut header = [0u8; HEADER_BYTES];
    match fill(r, &mut header)? {
        0 => return Err(FrameError::Closed),
        n if n < HEADER_BYTES => return Err(FrameError::Truncated),
        _ => {}
    }
    // Destructuring the fixed-size header is panic-free by
    // construction — no offset arithmetic to get wrong.
    let [m0, m1, m2, m3, v0, v1, l0, l1, l2, l3] = header;
    if [m0, m1, m2, m3] != MAGIC {
        return Err(FrameError::BadMagic([m0, m1, m2, m3]));
    }
    let version = u16::from_be_bytes([v0, v1]);
    if version != PROTOCOL_VERSION {
        return Err(FrameError::VersionMismatch {
            got: version,
            want: PROTOCOL_VERSION,
        });
    }
    let len = u32::from_be_bytes([l0, l1, l2, l3]);
    if len > cap {
        // Reject on the declared length alone: not one body byte is
        // read, so a hostile 4 GiB declaration costs nothing.
        return Err(FrameError::Oversized { declared: len, cap });
    }
    let mut body = vec![0u8; len as usize];
    if fill(r, &mut body)? < body.len() {
        return Err(FrameError::Truncated);
    }
    let text = String::from_utf8(body).map_err(|_| FrameError::BadUtf8)?;
    let value =
        serde_json::from_str_value(&text).map_err(|e| FrameError::BadJson(e.to_string()))?;
    Frame::from_value(&value).map_err(|e| FrameError::BadShape(e.to_string()))
}

/// Reads until `buf` is full or EOF; returns the bytes read. Unlike
/// `read_exact`, a caller can tell "EOF before anything" (clean close)
/// from "EOF mid-buffer" (truncation).
fn fill<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    let mut read = 0;
    while let Some(rest) = buf.get_mut(read..).filter(|rest| !rest.is_empty()) {
        match r.read(rest) {
            Ok(0) => break,
            Ok(n) => read += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(read)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{SubmitReply, SubmitRequest, WireError};

    fn round_trip(frame: &Frame) -> Frame {
        let bytes = encode_frame(frame).expect("encodes");
        read_frame(&mut &bytes[..]).expect("decodes")
    }

    #[test]
    fn golden_header_bytes_pin_the_v1_layout() {
        // This is the byte-for-byte layout documented in
        // docs/PROTOCOL.md; if this test changes, that file must too.
        let bytes = encode_frame(&Frame::Health).unwrap();
        let body = br#"{"type":"health"}"#;
        let mut want = Vec::new();
        want.extend_from_slice(b"SMAX");
        want.extend_from_slice(&[0x00, 0x01]); // version 1, big-endian
        want.extend_from_slice(&[0x00, 0x00, 0x00, 0x11]); // 17-byte body
        want.extend_from_slice(body);
        assert_eq!(bytes, want);
    }

    #[test]
    fn submit_frames_round_trip_bit_exactly() {
        let req = SubmitRequest::build(42, "softermax", &[1.5, -2.25, 0.0, -0.0], 2)
            .unwrap()
            .streamed(3)
            .unwrap()
            .with_deadline_ms(250)
            .unwrap();
        let sent = Frame::Submit(req);
        let got = round_trip(&sent);
        assert_eq!(got, sent);
        if let (Frame::Submit(a), Frame::Submit(b)) = (&sent, &got) {
            for (x, y) in a.scores.iter().zip(&b.scores) {
                assert_eq!(x.get().to_bits(), y.get().to_bits());
            }
        }
    }

    #[test]
    fn reply_frames_round_trip_both_arms() {
        let ok = Frame::SubmitReply(SubmitReply {
            id: 7,
            result: Ok(crate::types::scores_from_f64(&[0.25, 0.75]).unwrap()),
        });
        assert_eq!(round_trip(&ok), ok);
        let err = Frame::SubmitReply(SubmitReply {
            id: 8,
            result: Err(WireError::new(crate::ErrorCode::QueueFull, "full")),
        });
        assert_eq!(round_trip(&err), err);
    }

    #[test]
    fn eof_at_boundary_is_closed_but_midframe_is_truncated() {
        let empty: &[u8] = &[];
        assert!(matches!(read_frame(&mut &*empty), Err(FrameError::Closed)));
        let bytes = encode_frame(&Frame::Stats).unwrap();
        for cut in 1..bytes.len() {
            match read_frame(&mut &bytes[..cut]) {
                Err(FrameError::Truncated) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let mut bytes = encode_frame(&Frame::Stats).unwrap();
        bytes[0] = b'X';
        assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(FrameError::BadMagic(_))
        ));
        let mut bytes = encode_frame(&Frame::Stats).unwrap();
        bytes[4] = 0x7f; // version 0x7f01
        match read_frame(&mut &bytes[..]) {
            Err(FrameError::VersionMismatch { got, want }) => {
                assert_eq!(got, 0x7f01);
                assert_eq!(want, PROTOCOL_VERSION);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn oversized_header_rejects_without_reading_the_body() {
        // A reader that panics if anything past the header is pulled:
        // the cap check must fire on the declared length alone.
        struct HeaderOnly {
            header: Vec<u8>,
            pos: usize,
        }
        impl Read for HeaderOnly {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                assert!(
                    self.pos < self.header.len(),
                    "decoder tried to read past the oversized header"
                );
                let n = buf.len().min(self.header.len() - self.pos);
                buf[..n].copy_from_slice(&self.header[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            }
        }
        let mut header = Vec::new();
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&PROTOCOL_VERSION.to_be_bytes());
        header.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut r = HeaderOnly { header, pos: 0 };
        match read_frame(&mut r) {
            Err(FrameError::Oversized { declared, cap }) => {
                assert_eq!(declared, u32::MAX);
                assert_eq!(cap, MAX_FRAME_BYTES);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn garbage_bodies_are_typed_not_panics() {
        let craft = |body: &[u8]| {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&MAGIC);
            bytes.extend_from_slice(&PROTOCOL_VERSION.to_be_bytes());
            #[allow(clippy::cast_possible_truncation)]
            bytes.extend_from_slice(&(body.len() as u32).to_be_bytes());
            bytes.extend_from_slice(body);
            bytes
        };
        let non_utf8 = craft(&[0xff, 0xfe, 0x80]);
        assert!(matches!(
            read_frame(&mut &non_utf8[..]),
            Err(FrameError::BadUtf8)
        ));
        let non_json = craft(b"{not json!");
        assert!(matches!(
            read_frame(&mut &non_json[..]),
            Err(FrameError::BadJson(_))
        ));
        let wrong_shape = craft(br#"{"type":"no_such_frame"}"#);
        assert!(matches!(
            read_frame(&mut &wrong_shape[..]),
            Err(FrameError::BadShape(_))
        ));
        // Valid JSON, valid tag, hostile payload (NaN smuggled as null).
        let nan_scores = craft(
            br#"{"type":"submit","id":1,"kernel":"k","n_rows":1,"row_len":1,"scores":[null],"stream_chunk":null,"deadline_ms":null,"priority":"interactive"}"#,
        );
        assert!(matches!(
            read_frame(&mut &nan_scores[..]),
            Err(FrameError::BadShape(_))
        ));
    }

    #[test]
    fn encode_cap_binds() {
        let req = SubmitRequest::build(1, "k", &vec![0.5; 4096], 64).unwrap();
        let frame = Frame::Submit(req);
        assert!(matches!(
            encode_frame_capped(&frame, 64),
            Err(FrameError::TooLarge { .. })
        ));
        assert!(encode_frame(&frame).is_ok());
    }

    #[test]
    fn fatality_classification() {
        assert!(FrameError::Truncated.is_fatal());
        assert!(FrameError::BadMagic(*b"nope").is_fatal());
        assert!(FrameError::Closed.is_fatal());
        assert!(!FrameError::BadJson("x".into()).is_fatal());
        assert!(!FrameError::BadShape("x".into()).is_fatal());
    }
}

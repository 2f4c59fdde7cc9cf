//! Wire messages of the `Sync` protocol.
//!
//! The protocol needs exactly one message exchange: a clock-estimation
//! ping and its pong. Pongs carry the responder's *current* clock value —
//! the paper's "no rounds" property (Section 3.3): a processor always
//! answers with its live clock, never a per-round snapshot, which is what
//! makes recovery state so small.
//!
//! The `(round, nonce)` pair lets the requester match pongs to the round
//! that solicited them and discard replays. (The paper notes its link model
//! does not fully rule out replays but that this is harmless; carrying the
//! nonce mirrors what a deployment over authenticated channels would do.)
//!
//! # Wire format
//!
//! Real-socket hosts carry each message as one length-prefixed frame,
//! `[u32 LE payload length][payload]`, whose payload is a fixed-layout
//! binary [`Envelope`] (the message plus its claimed sender):
//!
//! ```text
//! from: u32 LE | tag: u8 | round: u64 LE | nonce: u64 LE [| clock: u64 LE]
//! ```
//!
//! `tag` is 0 for `Ping` and 1 for `Pong`, and `clock` (pongs only) is the
//! `f64::to_bits` image of the sender's clock reading: bit-exact for every
//! float the protocol can produce, including `±inf`. A ping payload is 21
//! bytes and a pong 29. The length prefix is redundant over datagrams but
//! detects truncation, and would serve a stream transport unchanged.
//!
//! [`decode`] rejects truncation, oversize, a length that is neither a
//! ping's nor a pong's, unknown tags, a length that does not match the
//! tag, and NaN clock bits ([`LocalTime`] forbids NaN, so a frame carrying
//! one is corruption or an attack). Its errors are plain `Copy` values, so
//! rejecting garbage allocates nothing. [`encode_into`] appends to a
//! caller-owned buffer, so a warm send path allocates nothing either.
//!
//! Authentication note: the paper assumes authenticated links, so a
//! deployment would MAC each frame; the loopback runtime trusts
//! `Envelope::from` as a stand-in and documents the gap.

use byzclock_clock::LocalTime;
use byzclock_sim::ProcId;
use std::fmt;

/// A message of the `Sync` protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WireMessage {
    /// "What time do you have?" — solicits a [`WireMessage::Pong`].
    Ping {
        /// The requester's sync-round counter.
        round: u64,
        /// Anti-replay nonce, echoed in the pong.
        nonce: u64,
    },
    /// The response: the responder's clock at the moment of sending.
    Pong {
        /// Echoed round.
        round: u64,
        /// Echoed nonce.
        nonce: u64,
        /// The responder's current logical clock value.
        clock: LocalTime,
    },
}

/// The longest payload [`decode`] accepts: a pong's. Anything larger is
/// garbage or an attack.
pub const MAX_PAYLOAD: usize = PONG_PAYLOAD;

/// Payload tag for [`WireMessage::Ping`].
const TAG_PING: u8 = 0;
/// Payload tag for [`WireMessage::Pong`].
const TAG_PONG: u8 = 1;

/// Exact payload length of an encoded ping: from (4) + tag (1) + round (8)
/// + nonce (8).
const PING_PAYLOAD: usize = 21;
/// Exact payload length of an encoded pong: a ping plus clock bits (8).
const PONG_PAYLOAD: usize = 29;

/// One protocol message plus its claimed sender.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Envelope {
    /// Claimed sender (authenticated links: genuine unless corrupted).
    pub from: ProcId,
    /// The protocol message.
    pub msg: WireMessage,
}

/// Framing / parsing failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than the header or the announced payload length.
    Truncated {
        /// Bytes required (header + announced payload).
        needed: usize,
        /// Bytes available.
        got: usize,
    },
    /// Announced payload length exceeds [`MAX_PAYLOAD`].
    TooLarge(usize),
    /// The payload is not a valid envelope.
    Malformed(Malformed),
}

/// Why a payload of acceptable size is not a valid envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Malformed {
    /// The announced length is neither a ping's nor a pong's.
    Length(usize),
    /// The tag byte names no message.
    UnknownTag(u8),
    /// The payload length does not match the message its tag names.
    TagLength {
        /// The tag byte.
        tag: u8,
        /// The payload length.
        len: usize,
    },
    /// A pong's clock bits are NaN.
    NanClock,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated { needed, got } => {
                write!(f, "truncated frame: need {needed} bytes, got {got}")
            }
            FrameError::TooLarge(len) => {
                write!(f, "frame payload of {len} bytes exceeds {MAX_PAYLOAD}")
            }
            FrameError::Malformed(why) => write!(f, "malformed frame payload: {why:?}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Encodes an envelope as one frame, appending to `out` (which is not
/// cleared — the caller owns the buffer lifecycle, so a reused buffer
/// makes encoding allocation-free once warm).
pub fn encode_into(envelope: &Envelope, out: &mut Vec<u8>) {
    let len = match envelope.msg {
        WireMessage::Ping { .. } => PING_PAYLOAD,
        WireMessage::Pong { .. } => PONG_PAYLOAD,
    };
    out.reserve(4 + len);
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.extend_from_slice(&envelope.from.0.to_le_bytes());
    match envelope.msg {
        WireMessage::Ping { round, nonce } => {
            out.push(TAG_PING);
            out.extend_from_slice(&round.to_le_bytes());
            out.extend_from_slice(&nonce.to_le_bytes());
        }
        WireMessage::Pong {
            round,
            nonce,
            clock,
        } => {
            out.push(TAG_PONG);
            out.extend_from_slice(&round.to_le_bytes());
            out.extend_from_slice(&nonce.to_le_bytes());
            out.extend_from_slice(&clock.as_secs().to_bits().to_le_bytes());
        }
    }
}

/// Reads a little-endian `u64` at `offset` (caller guarantees bounds).
fn read_u64(payload: &[u8], offset: usize) -> u64 {
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(&payload[offset..offset + 8]);
    u64::from_le_bytes(bytes)
}

/// Decodes one frame from the front of `buf`, returning the envelope and
/// the number of bytes consumed.
///
/// # Errors
///
/// [`FrameError::TooLarge`] for a length above [`MAX_PAYLOAD`],
/// [`FrameError::Malformed`] for any other length but a ping's or a
/// pong's, an unknown tag, a payload whose length does not match its tag,
/// or NaN clock bits, and [`FrameError::Truncated`] for a short header or
/// payload.
pub fn decode(buf: &[u8]) -> Result<(Envelope, usize), FrameError> {
    if buf.len() < 4 {
        return Err(FrameError::Truncated {
            needed: 4,
            got: buf.len(),
        });
    }
    let mut len_bytes = [0u8; 4];
    len_bytes.copy_from_slice(&buf[..4]);
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_PAYLOAD {
        return Err(FrameError::TooLarge(len));
    }
    if len != PING_PAYLOAD && len != PONG_PAYLOAD {
        return Err(FrameError::Malformed(Malformed::Length(len)));
    }
    let needed = 4 + len;
    if buf.len() < needed {
        return Err(FrameError::Truncated {
            needed,
            got: buf.len(),
        });
    }
    let payload = &buf[4..needed];
    let mut from_bytes = [0u8; 4];
    from_bytes.copy_from_slice(&payload[..4]);
    let from = ProcId(u32::from_le_bytes(from_bytes));
    let msg = match (payload[4], len) {
        (TAG_PING, PING_PAYLOAD) => WireMessage::Ping {
            round: read_u64(payload, 5),
            nonce: read_u64(payload, 13),
        },
        (TAG_PONG, PONG_PAYLOAD) => {
            let secs = f64::from_bits(read_u64(payload, 21));
            if secs.is_nan() {
                return Err(FrameError::Malformed(Malformed::NanClock));
            }
            WireMessage::Pong {
                round: read_u64(payload, 5),
                nonce: read_u64(payload, 13),
                clock: LocalTime::from_secs(secs),
            }
        }
        (tag @ (TAG_PING | TAG_PONG), len) => {
            return Err(FrameError::Malformed(Malformed::TagLength { tag, len }));
        }
        (tag, _) => return Err(FrameError::Malformed(Malformed::UnknownTag(tag))),
    };
    Ok((Envelope { from, msg }, needed))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Encodes one envelope into a fresh buffer.
    impl WireMessage {
        /// The round this message belongs to.
        pub(crate) fn round(&self) -> u64 {
            match self {
                WireMessage::Ping { round, .. } | WireMessage::Pong { round, .. } => *round,
            }
        }
    }

    fn encoded(envelope: &Envelope) -> Vec<u8> {
        let mut out = Vec::new();
        encode_into(envelope, &mut out);
        out
    }

    #[test]
    fn accessors() {
        let ping = WireMessage::Ping { round: 3, nonce: 9 };
        assert_eq!(ping.round(), 3);
        let pong = WireMessage::Pong {
            round: 3,
            nonce: 9,
            clock: LocalTime::from_secs(1.0),
        };
        assert_eq!(pong.round(), 3);
    }

    fn ping() -> Envelope {
        Envelope {
            from: ProcId(3),
            msg: WireMessage::Ping {
                round: 12,
                nonce: u64::MAX - 1,
            },
        }
    }

    fn pong(clock: f64) -> Envelope {
        Envelope {
            from: ProcId(2),
            msg: WireMessage::Pong {
                round: 7,
                nonce: u64::MAX,
                clock: LocalTime::from_secs(clock),
            },
        }
    }

    /// The exact bytes of one ping and one pong frame. A round trip alone
    /// would miss a layout change made on both the encode and decode side.
    #[test]
    fn ping_and_pong_bytes_are_pinned() {
        let hex = |bytes: &[u8]| -> String { bytes.iter().map(|b| format!("{b:02x}")).collect() };
        let mut frame = Vec::new();
        encode_into(
            &Envelope {
                from: ProcId(3),
                msg: WireMessage::Ping {
                    round: 12,
                    nonce: u64::MAX - 1,
                },
            },
            &mut frame,
        );
        assert_eq!(
            hex(&frame),
            concat!(
                "15000000",         // payload length 21
                "03000000",         // from
                "00",               // tag: ping
                "0c00000000000000", // round
                "feffffffffffffff", // nonce
            )
        );
        frame.clear();
        encode_into(
            &Envelope {
                from: ProcId(0x0102_0304),
                msg: WireMessage::Pong {
                    round: 0x0a0b,
                    nonce: 7,
                    clock: LocalTime::from_secs(0.1 + 0.2),
                },
            },
            &mut frame,
        );
        assert_eq!(
            hex(&frame),
            concat!(
                "1d000000",         // payload length 29
                "04030201",         // from
                "01",               // tag: pong
                "0b0a000000000000", // round
                "0700000000000000", // nonce
                "343333333333d33f", // clock: f64 bits of 0.1 + 0.2
            )
        );
    }

    #[test]
    fn roundtrip_ping_and_pong() {
        for e in [ping(), pong(123.456)] {
            let frame = encoded(&e);
            let (back, used) = decode(&frame).unwrap();
            assert_eq!(back, e);
            assert_eq!(used, frame.len());
        }
    }

    #[test]
    fn payload_sizes_are_fixed() {
        assert_eq!(encoded(&ping()).len(), 4 + PING_PAYLOAD);
        assert_eq!(encoded(&pong(1.0)).len(), 4 + PONG_PAYLOAD);
    }

    #[test]
    fn roundtrip_preserves_clock_bits_including_infinities() {
        for clock in [0.1 + 0.2, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1e-308] {
            let e = pong(clock);
            let (back, _) = decode(&encoded(&e)).unwrap();
            let (WireMessage::Pong { clock: got, .. }, WireMessage::Pong { clock: orig, .. }) =
                (back.msg, e.msg)
            else {
                panic!("not pongs");
            };
            assert_eq!(got.as_secs().to_bits(), orig.as_secs().to_bits());
        }
    }

    #[test]
    fn encode_into_appends_without_clearing() {
        let mut buf = encoded(&ping());
        let first = buf.len();
        encode_into(&pong(2.0), &mut buf);
        let (_, used) = decode(&buf).unwrap();
        assert_eq!(used, first);
        let (second, used2) = decode(&buf[used..]).unwrap();
        assert_eq!(second, pong(2.0));
        assert_eq!(used + used2, buf.len());
    }

    #[test]
    fn truncated_header_and_payload_rejected() {
        let frame = encoded(&pong(1.0));
        assert!(matches!(
            decode(&frame[..2]),
            Err(FrameError::Truncated { needed: 4, got: 2 })
        ));
        assert!(matches!(
            decode(&frame[..frame.len() - 1]),
            Err(FrameError::Truncated { .. })
        ));
    }

    #[test]
    fn oversized_length_rejected() {
        let mut frame = encoded(&ping());
        frame[..4].copy_from_slice(&(MAX_PAYLOAD as u32 + 1).to_le_bytes());
        assert_eq!(decode(&frame), Err(FrameError::TooLarge(MAX_PAYLOAD + 1)));
    }

    #[test]
    fn garbage_and_short_payloads_rejected() {
        // every announced length but a ping's or a pong's
        for len in 0..=MAX_PAYLOAD {
            let mut frame = (len as u32).to_le_bytes().to_vec();
            frame.resize(4 + len, 0);
            if len == PONG_PAYLOAD {
                frame[4 + 4] = TAG_PONG;
            }
            let got = decode(&frame);
            if len == PING_PAYLOAD || len == PONG_PAYLOAD {
                assert!(got.is_ok(), "length {len}: {got:?}");
            } else {
                assert_eq!(got, Err(FrameError::Malformed(Malformed::Length(len))));
            }
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut frame = encoded(&ping());
        frame[4 + 4] = 9; // tag byte
        assert_eq!(
            decode(&frame),
            Err(FrameError::Malformed(Malformed::UnknownTag(9)))
        );
    }

    #[test]
    fn tag_length_mismatch_rejected() {
        // a pong-length payload with a ping tag (and vice versa)
        let mut frame = encoded(&pong(1.0));
        frame[4 + 4] = TAG_PING;
        assert!(matches!(decode(&frame), Err(FrameError::Malformed(_))));
        let mut frame = encoded(&ping());
        frame[4 + 4] = TAG_PONG;
        assert!(matches!(decode(&frame), Err(FrameError::Malformed(_))));
    }

    #[test]
    fn nan_clock_bits_rejected() {
        let mut frame = encoded(&pong(1.0));
        let nan_bits = f64::NAN.to_bits().to_le_bytes();
        let clock_at = frame.len() - 8;
        frame[clock_at..].copy_from_slice(&nan_bits);
        assert!(matches!(decode(&frame), Err(FrameError::Malformed(_))));
    }

    #[test]
    fn trailing_bytes_are_not_consumed() {
        let mut buf = encoded(&ping());
        let frame_len = buf.len();
        buf.extend_from_slice(&encoded(&pong(9.0)));
        let (_, used) = decode(&buf).unwrap();
        assert_eq!(used, frame_len);
        let (_, used2) = decode(&buf[used..]).unwrap();
        assert_eq!(used + used2, buf.len());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Any non-NaN bit pattern (LocalTime forbids NaN — NaN draws map
        /// to +inf), with the special values the protocol can actually
        /// produce weighted in.
        fn arb_clock() -> impl Strategy<Value = f64> {
            prop_oneof![
                8 => any::<u64>().prop_map(|bits| {
                    let v = f64::from_bits(bits);
                    if v.is_nan() { f64::INFINITY } else { v }
                }),
                1 => Just(f64::NEG_INFINITY),
                1 => Just(-0.0f64),
                1 => Just(0.1 + 0.2),
            ]
        }

        fn arb_envelope() -> impl Strategy<Value = Envelope> {
            (
                any::<u32>(),
                any::<u64>(),
                any::<u64>(),
                arb_clock(),
                any::<u64>(),
            )
                .prop_map(|(from, round, nonce, clock, pick)| Envelope {
                    from: ProcId(from),
                    msg: if pick % 2 == 0 {
                        WireMessage::Ping { round, nonce }
                    } else {
                        WireMessage::Pong {
                            round,
                            nonce,
                            clock: LocalTime::from_secs(clock),
                        }
                    },
                })
        }

        proptest! {
            /// The binary codec round-trips any envelope bit-exactly —
            /// including ±inf, -0.0 and subnormal clock values.
            #[test]
            fn binary_roundtrips_bit_exactly(e in arb_envelope()) {
                let frame = encoded(&e);
                let (back, used) = decode(&frame).unwrap();
                prop_assert_eq!(used, frame.len());
                prop_assert_eq!(back.from, e.from);
                match (back.msg, e.msg) {
                    (
                        WireMessage::Ping { round: r1, nonce: n1 },
                        WireMessage::Ping { round: r2, nonce: n2 },
                    ) => prop_assert_eq!((r1, n1), (r2, n2)),
                    (
                        WireMessage::Pong { round: r1, nonce: n1, clock: c1 },
                        WireMessage::Pong { round: r2, nonce: n2, clock: c2 },
                    ) => {
                        prop_assert_eq!((r1, n1), (r2, n2));
                        prop_assert_eq!(
                            c1.as_secs().to_bits(),
                            c2.as_secs().to_bits()
                        );
                    }
                    _ => prop_assert!(false, "message kind changed in transit"),
                }
            }

            /// Every strict prefix of a binary frame is rejected as
            /// truncated.
            #[test]
            fn binary_prefixes_rejected_as_truncated(
                e in arb_envelope(),
                cut in 0usize..1024,
            ) {
                let frame = encoded(&e);
                let cut = cut % frame.len();
                prop_assert!(matches!(
                    decode(&frame[..cut]),
                    Err(FrameError::Truncated { .. })
                ));
            }

            /// Arbitrary garbage never panics the binary decoder; it
            /// errors or parses, nothing else.
            #[test]
            fn binary_decode_never_panics_on_garbage(
                bytes in proptest::collection::vec(any::<u8>(), 0..64),
            ) {
                let _ = decode(&bytes);
            }
        }
    }
}

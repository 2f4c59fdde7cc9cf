//! Length-prefixed framing for real-socket transports.
//!
//! A frame is `[u32 little-endian payload length][payload]` where the
//! payload is the fixed-layout [`binary`] encoding of an [`Envelope`] —
//! the [`WireMessage`] plus the claimed sender. The explicit length prefix
//! is redundant over datagram transports (UDP preserves message
//! boundaries) but detects truncation, and makes the same framing reusable
//! verbatim over stream transports later.
//!
//! Authentication note: the paper assumes authenticated links, so a
//! deployment would MAC each frame; the loopback runtime trusts
//! `Envelope::from` as a stand-in and documents the gap.

pub mod binary;

use byzclock_core::WireMessage;
use byzclock_sim::ProcId;
use std::fmt;

/// Upper bound on the payload length accepted by [`binary::decode`]; protocol
/// messages are tiny, so anything larger is garbage or an attack.
pub const MAX_PAYLOAD: usize = 4096;

/// One protocol message plus its claimed sender.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Envelope {
    /// Claimed sender (authenticated links: genuine unless corrupted).
    pub from: ProcId,
    /// The protocol message.
    pub msg: WireMessage,
}

/// Framing / parsing failure.
#[derive(Debug, Clone, PartialEq)]
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
    Malformed(String),
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
            FrameError::Malformed(e) => write!(f, "malformed frame payload: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

#[cfg(test)]
mod tests {
    use super::*;

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
                            clock: byzclock_clock::LocalTime::from_secs(clock),
                        }
                    },
                })
        }

        proptest! {
            /// The binary codec round-trips any envelope bit-exactly —
            /// including ±inf, -0.0 and subnormal clock values.
            #[test]
            fn binary_roundtrips_bit_exactly(e in arb_envelope()) {
                let frame = binary::encode(&e);
                let (back, used) = binary::decode(&frame).unwrap();
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
                let frame = binary::encode(&e);
                let cut = cut % frame.len();
                prop_assert!(matches!(
                    binary::decode(&frame[..cut]),
                    Err(FrameError::Truncated { .. })
                ));
            }

            /// Arbitrary garbage never panics the binary decoder; it
            /// errors or parses, nothing else.
            #[test]
            fn binary_decode_never_panics_on_garbage(
                bytes in proptest::collection::vec(any::<u8>(), 0..64),
            ) {
                let _ = binary::decode(&bytes);
            }
        }
    }
}

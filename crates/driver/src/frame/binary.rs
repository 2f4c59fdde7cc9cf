//! Hand-rolled little-endian binary codec for [`Envelope`]s.
//!
//! A frame is `[u32 LE payload length]` followed by the payload, with
//! truncation / oversize / garbage rejection; the payload is a
//! fixed-layout binary record:
//!
//! ```text
//! from: u32 LE | tag: u8 | round: u64 LE | nonce: u64 LE [| clock: u64 LE]
//! ```
//!
//! where `tag` is 0 for `Ping` and 1 for `Pong`, and `clock` (pongs only)
//! is the `f64::to_bits` image of the sender's clock reading — bit-exact
//! for every float the protocol can legitimately produce, including
//! `±inf`. NaN clock bits are rejected at decode: [`LocalTime`] forbids
//! NaN, and a frame carrying one is either corruption or an attack.
//!
//! A ping payload is 21 bytes and a pong 29; the [`encode_into`] entry
//! point appends to a caller-owned buffer so the live transport's
//! steady-state send path performs no allocation.

use byzclock_clock::LocalTime;
use byzclock_core::WireMessage;
use byzclock_sim::ProcId;

use super::{Envelope, FrameError, MAX_PAYLOAD};

/// Payload tag for [`WireMessage::Ping`].
const TAG_PING: u8 = 0;
/// Payload tag for [`WireMessage::Pong`].
const TAG_PONG: u8 = 1;

/// Exact payload length of an encoded ping: from (4) + tag (1) + round (8)
/// + nonce (8).
pub const PING_PAYLOAD: usize = 21;
/// Exact payload length of an encoded pong: a ping plus clock bits (8).
pub const PONG_PAYLOAD: usize = 29;

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

/// Encodes an envelope as one freshly allocated frame.
pub fn encode(envelope: &Envelope) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(envelope, &mut out);
    out
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
/// [`FrameError::Truncated`] for a short header or payload,
/// [`FrameError::TooLarge`] for a length above [`MAX_PAYLOAD`], and
/// [`FrameError::Malformed`] for an unknown tag, a payload whose length
/// does not match its tag, or NaN clock bits.
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
    let needed = 4 + len;
    if buf.len() < needed {
        return Err(FrameError::Truncated {
            needed,
            got: buf.len(),
        });
    }
    let payload = &buf[4..needed];
    if payload.len() < PING_PAYLOAD {
        return Err(FrameError::Malformed(format!(
            "binary payload of {} bytes is shorter than any message",
            payload.len()
        )));
    }
    let mut from_bytes = [0u8; 4];
    from_bytes.copy_from_slice(&payload[..4]);
    let from = ProcId(u32::from_le_bytes(from_bytes));
    let msg = match payload[4] {
        TAG_PING => {
            if payload.len() != PING_PAYLOAD {
                return Err(FrameError::Malformed(format!(
                    "ping payload must be {PING_PAYLOAD} bytes, got {}",
                    payload.len()
                )));
            }
            WireMessage::Ping {
                round: read_u64(payload, 5),
                nonce: read_u64(payload, 13),
            }
        }
        TAG_PONG => {
            if payload.len() != PONG_PAYLOAD {
                return Err(FrameError::Malformed(format!(
                    "pong payload must be {PONG_PAYLOAD} bytes, got {}",
                    payload.len()
                )));
            }
            let secs = f64::from_bits(read_u64(payload, 21));
            if secs.is_nan() {
                return Err(FrameError::Malformed("NaN clock bits".to_string()));
            }
            WireMessage::Pong {
                round: read_u64(payload, 5),
                nonce: read_u64(payload, 13),
                clock: LocalTime::from_secs(secs),
            }
        }
        other => {
            return Err(FrameError::Malformed(format!(
                "unknown message tag {other}"
            )));
        }
    };
    Ok((Envelope { from, msg }, needed))
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn roundtrip_ping_and_pong() {
        for e in [ping(), pong(123.456)] {
            let frame = encode(&e);
            let (back, used) = decode(&frame).unwrap();
            assert_eq!(back, e);
            assert_eq!(used, frame.len());
        }
    }

    #[test]
    fn payload_sizes_are_fixed() {
        assert_eq!(encode(&ping()).len(), 4 + PING_PAYLOAD);
        assert_eq!(encode(&pong(1.0)).len(), 4 + PONG_PAYLOAD);
    }

    #[test]
    fn roundtrip_preserves_clock_bits_including_infinities() {
        for clock in [0.1 + 0.2, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1e-308] {
            let e = pong(clock);
            let (back, _) = decode(&encode(&e)).unwrap();
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
        let mut buf = encode(&ping());
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
        let frame = encode(&pong(1.0));
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
        let mut frame = encode(&ping());
        frame[..4].copy_from_slice(&(MAX_PAYLOAD as u32 + 1).to_le_bytes());
        assert_eq!(decode(&frame), Err(FrameError::TooLarge(MAX_PAYLOAD + 1)));
    }

    #[test]
    fn garbage_and_short_payloads_rejected() {
        let mut frame = Vec::new();
        frame.extend_from_slice(&5u32.to_le_bytes());
        frame.extend_from_slice(b"junk!");
        assert!(matches!(decode(&frame), Err(FrameError::Malformed(_))));
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut frame = encode(&ping());
        frame[4 + 4] = 9; // tag byte
        assert!(matches!(decode(&frame), Err(FrameError::Malformed(_))));
    }

    #[test]
    fn tag_length_mismatch_rejected() {
        // a pong-length payload with a ping tag (and vice versa)
        let mut frame = encode(&pong(1.0));
        frame[4 + 4] = TAG_PING;
        assert!(matches!(decode(&frame), Err(FrameError::Malformed(_))));
        let mut frame = encode(&ping());
        frame[4 + 4] = TAG_PONG;
        assert!(matches!(decode(&frame), Err(FrameError::Malformed(_))));
    }

    #[test]
    fn nan_clock_bits_rejected() {
        let mut frame = encode(&pong(1.0));
        let nan_bits = f64::NAN.to_bits().to_le_bytes();
        let clock_at = frame.len() - 8;
        frame[clock_at..].copy_from_slice(&nan_bits);
        assert!(matches!(decode(&frame), Err(FrameError::Malformed(_))));
    }

    #[test]
    fn trailing_bytes_are_not_consumed() {
        let mut buf = encode(&ping());
        let frame_len = buf.len();
        buf.extend_from_slice(&encode(&pong(9.0)));
        let (_, used) = decode(&buf).unwrap();
        assert_eq!(used, frame_len);
        let (_, used2) = decode(&buf[used..]).unwrap();
        assert_eq!(used + used2, buf.len());
    }
}

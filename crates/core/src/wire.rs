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

use byzclock_clock::LocalTime;

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

impl WireMessage {
    /// True for pings.
    pub fn is_ping(&self) -> bool {
        matches!(self, WireMessage::Ping { .. })
    }

    /// The round this message belongs to.
    pub fn round(&self) -> u64 {
        match self {
            WireMessage::Ping { round, .. } | WireMessage::Pong { round, .. } => *round,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let ping = WireMessage::Ping { round: 3, nonce: 9 };
        assert!(ping.is_ping());
        assert_eq!(ping.round(), 3);
        let pong = WireMessage::Pong {
            round: 3,
            nonce: 9,
            clock: LocalTime::from_secs(1.0),
        };
        assert!(!pong.is_ping());
        assert_eq!(pong.round(), 3);
    }
}

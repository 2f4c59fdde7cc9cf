//! The event alphabet of the simulation world.

use byzclock_core::WireMessage;
use byzclock_sim::{EventId, ProcId};

/// Everything that can be scheduled on the world's real-time axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimEvent {
    /// Start (or restart) a node's protocol instance.
    StartNode {
        /// The node to start.
        node: ProcId,
    },
    /// Deliver a message.
    Deliver {
        /// Recipient.
        to: ProcId,
        /// Claimed sender.
        from: ProcId,
        /// Payload.
        msg: WireMessage,
    },
    /// A node's local-time alarm fires.
    NodeTimer {
        /// Whose alarm.
        node: ProcId,
        /// This event's own engine id (assigned at scheduling via
        /// `schedule_at_with`). The world looks it up in the node's
        /// pending-alarm index, which holds the alarm's kind and local
        /// target and is unambiguous even when two alarms coincide; an id
        /// missing from the index never fires.
        id: EventId,
    },
    /// A node's hardware clock changes rate (a drift-walk step). The event
    /// is scheduled at the change instant and carries the rate to apply.
    DriftChange {
        /// Whose clock.
        node: ProcId,
        /// The new tick rate.
        new_rate: f64,
    },
    /// The adversary breaks into a processor.
    Corrupt {
        /// The victim.
        node: ProcId,
    },
    /// The adversary leaves a processor (recovery begins).
    Release {
        /// The recovering processor.
        node: ProcId,
    },
    /// A bidirectional link goes down (transient network fault).
    LinkCut {
        /// One endpoint.
        a: ProcId,
        /// The other endpoint.
        b: ProcId,
    },
    /// A previously cut link comes back up.
    LinkRestore {
        /// One endpoint.
        a: ProcId,
        /// The other endpoint.
        b: ProcId,
    },
    /// A node crashes and reboots: all volatile protocol state (pending
    /// round, alarms) is lost; the logical clock survives (it is the
    /// paper's persistent `adj` variable). Distinct from [`Corrupt`] — a
    /// restarted node was never under adversary control, so it stays in
    /// the good set.
    ///
    /// [`Corrupt`]: SimEvent::Corrupt
    Restart {
        /// The rebooting node.
        node: ProcId,
    },
    /// Metrics sampling tick.
    Sample,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_comparable() {
        let a = SimEvent::Sample;
        let b = SimEvent::Corrupt { node: ProcId(1) };
        assert_ne!(a, b);
        assert_eq!(
            SimEvent::StartNode { node: ProcId(2) },
            SimEvent::StartNode { node: ProcId(2) }
        );
    }
}

//! Processor identifiers.
//!
//! The paper names processors `1..n` and assumes every processor knows its
//! own name and its neighbors' names. [`ProcId`] is a dense zero-based
//! index, which every layer (network, adversary, protocol, metrics) shares.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identity of a processor, a dense index in `0..n`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct ProcId(pub u32);

impl ProcId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Iterates all ids `0..n`.
    ///
    /// ```
    /// use byzclock_sim::ProcId;
    /// let all: Vec<ProcId> = ProcId::all(3).collect();
    /// assert_eq!(all, vec![ProcId(0), ProcId(1), ProcId(2)]);
    /// ```
    pub fn all(n: usize) -> impl Iterator<Item = ProcId> {
        (0..n as u32).map(ProcId)
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<u32> for ProcId {
    fn from(v: u32) -> Self {
        ProcId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_index() {
        let p = ProcId(7);
        assert_eq!(format!("{p}"), "p7");
        assert_eq!(p.index(), 7);
    }

    #[test]
    fn all_enumerates_densely() {
        assert_eq!(ProcId::all(0).count(), 0);
        let v: Vec<usize> = ProcId::all(4).map(|p| p.index()).collect();
        assert_eq!(v, vec![0, 1, 2, 3]);
    }

    #[test]
    fn ordering_matches_index() {
        assert!(ProcId(1) < ProcId(2));
        assert_eq!(ProcId::from(3u32), ProcId(3));
    }
}

//! Fixture: D7 (callerless-pub). The fixtures test lints this source in
//! memory as a scanned crate's `crates/core/src/lib.rs`, next to consumer
//! sources it supplies: a sibling crate, `perfbench/src`, `examples/` and a
//! `tests/` file. The doc comment on each item says whether it is flagged.

/// Named by nothing: flagged.
pub fn callerless() {}

/// Called only from this file's unit tests: flagged.
pub(crate) fn used_in_unit_tests() -> u32 {
    7
}

/// Named only by a file under `tests/`: flagged.
pub struct UsedInTestsDir;

/// Named only in a comment and a string of the sibling crate: flagged.
pub const MENTIONED: u32 = 1;

/// Called from the sibling crate: clean.
pub fn used_by_sibling_crate() {}

/// Implemented in perfbench: clean.
pub trait UsedByPerfbench {}

/// Named in an example: clean.
pub type UsedByExample = u32;

/// Shares its name with a method the sibling crate calls: clean.
pub fn len() -> usize {
    0
}

/// Matched in the sibling crate: clean.
pub enum Mode {
    /// Matched in the sibling crate: clean.
    Used,
    /// Named by nothing: flagged.
    Unused { at: u32 },
}

// Read through a raw pointer in the fixture's story. lint:allow(d7)
pub static ESCAPED: u32 = 2;

/// On the allowlist the test passes: clean.
pub unsafe extern "C" fn allowlisted() {}

/// Private items are out of scope.
fn private_helper() {}

#[cfg(test)]
mod tests {
    #[test]
    fn unit() {
        assert_eq!(super::used_in_unit_tests(), 7);
    }
}

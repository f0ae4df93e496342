//! Oracles shared by the end-to-end suites.

use swiftt::core::RunResult;

/// Read counts came out exact for a program that completed: every datum
/// STC counted was freed (a count too high leaves it resident), and no
/// release found its datum already gone (a count too low).
pub trait FreedExactly {
    fn freed_exactly(self) -> Self;
}

impl FreedExactly for RunResult {
    fn freed_exactly(self) -> Self {
        let s = self.server_totals();
        assert_eq!(
            (s.data_unreleased, s.release_misses),
            (0, 0),
            "unreleased datums, release misses"
        );
        self
    }
}

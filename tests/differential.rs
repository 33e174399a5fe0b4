//! Lemma 1 as a generated test: whatever the round schedule, transport,
//! wire layout, topology, pool size, plan, entry point or fault schedule,
//! each reported probability is the centralized Eq. 3 value. Every
//! generated [`Case`] is checked against its reference configuration and
//! its inline twin, against the naive Eq. 3 skyline, and — when small
//! enough — against possible-world enumeration (see [`common::oracle`]).
//!
//! Cases come from the vendored `proptest` generator, seeded per index, so
//! a failure names a case that replays exactly: `common::oracle::check`
//! on the `Case` printed in the panic message.

mod common;

use common::oracle::{self, Tally};
use common::Case;
use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;

/// Generated cases per run.
const CASES: u32 = 160;

#[test]
fn generated_cases_match_reference_twin_and_oracles() {
    let cases = oracle::cases();
    let mut tally = Tally::default();
    for i in 0..CASES {
        let case: Case = cases.generate(&mut TestRng::for_case("differential", i));
        oracle::check(&case, &mut tally);
    }
    tally.assert_covered();
}

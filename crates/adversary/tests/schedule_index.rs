//! Equivalence of the indexed corruption-schedule queries with the linear
//! scans they replace.
//!
//! `CorruptionSchedule` answers goodness queries from a per-processor index
//! and checks Definition 2 with a sweep. The reference implementations
//! below are the plain scans over every episode; on random schedules both
//! must return exactly the same values, including the `ScheduleError` of a
//! violating schedule. Times are drawn from a coarse grid so that shared
//! endpoints, gaps of exactly Δ and overlapping episodes of one processor
//! are common.

use std::collections::BTreeSet;

use byzclock_adversary::{
    AdversaryPlan, CorruptionInterval, CorruptionSchedule, CorruptionWindowSpec, ScheduleError,
    StrategySpec,
};
use byzclock_sim::{DetRng, ProcId, RealTime, RngHub, SimDuration};
use proptest::prelude::*;

mod reference {
    use super::*;

    pub fn is_corrupt(ivs: &[CorruptionInterval], proc: ProcId, tau: RealTime) -> bool {
        ivs.iter().any(|iv| iv.proc == proc && iv.contains(tau))
    }

    pub fn non_faulty_during(
        ivs: &[CorruptionInterval],
        proc: ProcId,
        start: RealTime,
        end: RealTime,
    ) -> bool {
        !ivs.iter()
            .any(|iv| iv.proc == proc && iv.intersects_window(start, end))
    }

    /// Evaluates every candidate window start with a full scan.
    pub fn verify_f_limited(
        ivs: &[CorruptionInterval],
        f: usize,
        big_delta: SimDuration,
        horizon: RealTime,
    ) -> Result<(), ScheduleError> {
        let mut candidates: Vec<RealTime> = vec![RealTime::ZERO];
        for iv in ivs {
            let enter = iv.from - big_delta;
            if enter >= RealTime::ZERO && enter <= horizon {
                candidates.push(enter);
            }
            candidates.push(iv.from.min(horizon).max(RealTime::ZERO));
            if iv.until <= horizon {
                candidates.push(iv.until);
            }
        }
        candidates.sort();
        candidates.dedup();
        for tau in candidates {
            let end = tau + big_delta;
            let set: BTreeSet<ProcId> = ivs
                .iter()
                .filter(|iv| iv.intersects_window(tau, end))
                .map(|iv| iv.proc)
                .collect();
            if set.len() > f {
                return Err(ScheduleError {
                    window_start: tau,
                    controlled: set.into_iter().collect(),
                    f,
                });
            }
        }
        Ok(())
    }

    /// Random churn as first written: victims drawn with `choose` from a
    /// materialized candidate list.
    pub fn random_churn(
        n: usize,
        f: usize,
        min_hold: SimDuration,
        max_hold: SimDuration,
        big_delta: SimDuration,
        horizon: RealTime,
        rng: &mut DetRng,
    ) -> Vec<CorruptionInterval> {
        let mut out = Vec::new();
        let gap_floor = big_delta * 1.001 + SimDuration::from_secs(1e-9);
        for slot in 0..f {
            let candidates: Vec<u32> = (0..n as u32).filter(|i| *i as usize % f == slot).collect();
            let mut start = RealTime::ZERO
                + SimDuration::from_secs(rng.uniform(0.0, big_delta.as_secs().max(1e-9)));
            while start < horizon {
                let victim = ProcId(*rng.choose(&candidates));
                let hold =
                    SimDuration::from_secs(rng.uniform(min_hold.as_secs(), max_hold.as_secs()));
                let until = start + hold;
                out.push(CorruptionInterval::new(victim, start, until));
                let extra = SimDuration::from_secs(rng.uniform(0.0, big_delta.as_secs()));
                start = until + gap_floor + extra;
            }
        }
        out
    }
}

fn t(s: f64) -> RealTime {
    RealTime::from_secs(s)
}

/// A grid time in `[0, 12]` seconds, in half-second steps.
fn grid(step: u32) -> RealTime {
    t(f64::from(step) * 0.5)
}

/// Episodes on the grid over processors `0..procs`: lengths of 1–8 grid
/// steps; one in eight of them permanent (`until = +∞`), and one in eight
/// built field by field with `until ≤ from`, which `CorruptionInterval::new`
/// refuses but the public fields allow.
fn episodes(raw: &[(u32, u32, u32, u32)], procs: u32) -> Vec<CorruptionInterval> {
    raw.iter()
        .map(|&(p, from, len, kind)| {
            let from = grid(from);
            let len = SimDuration::from_secs(f64::from(len) * 0.5);
            let until = match kind % 8 {
                0 => t(f64::INFINITY),
                1 => from - len + SimDuration::from_secs(0.5),
                _ => from + len,
            };
            CorruptionInterval {
                proc: ProcId(p % procs),
                from,
                until,
            }
        })
        .collect()
}

/// Query times: the whole grid, the midpoints, both signed zeros, a
/// negative time and +∞.
fn query_times() -> Vec<RealTime> {
    let mut times: Vec<RealTime> = (0..=60).map(|i| t(f64::from(i) * 0.25)).collect();
    times.extend([t(-0.0), t(-1.0), t(f64::INFINITY)]);
    times
}

/// Asserts every query of `schedule` against the reference scans over
/// `ivs`; `procs` processors have episodes and two more have none.
fn assert_queries_match(schedule: &CorruptionSchedule, ivs: &[CorruptionInterval], procs: u32) {
    let times = query_times();
    for &tau in &times {
        for p in (0..procs + 2).map(ProcId) {
            assert_eq!(
                schedule.is_corrupt(p, tau),
                reference::is_corrupt(ivs, p, tau),
                "is_corrupt({p:?}, {tau})"
            );
            for &start in &times {
                assert_eq!(
                    schedule.non_faulty_during(p, start, tau),
                    reference::non_faulty_during(ivs, p, start, tau),
                    "non_faulty_during({p:?}, {start}, {tau})"
                );
            }
        }
    }
}

/// Asserts `verify_f_limited` against the reference, down to the bits of
/// the violating window start.
fn assert_verify_matches(
    schedule: &CorruptionSchedule,
    ivs: &[CorruptionInterval],
    f: usize,
    big_delta: SimDuration,
    horizon: RealTime,
) {
    let got = schedule.verify_f_limited(f, big_delta, horizon);
    let want = reference::verify_f_limited(ivs, f, big_delta, horizon);
    assert_eq!(got, want, "f={f} Δ={big_delta} horizon={horizon}");
    if let (Err(got), Err(want)) = (got, want) {
        assert_eq!(
            got.window_start.as_secs().to_bits(),
            want.window_start.as_secs().to_bits()
        );
    }
}

fn episode_strategy() -> impl Strategy<Value = (u32, u32, u32, u32)> {
    (0u32..8, 0u32..24, 1u32..9, 0u32..64)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 200,
        .. ProptestConfig::default()
    })]

    /// `non_faulty_during` and `is_corrupt` equal the scans,
    /// whether the schedule was built at once or episode by episode.
    #[test]
    fn indexed_queries_equal_linear_scans(
        raw in proptest::collection::vec(episode_strategy(), 0..14),
        procs in 1u32..6,
        split in 0usize..14,
    ) {
        let ivs = episodes(&raw, procs);
        let schedule = CorruptionSchedule::from_intervals(ivs.clone());
        assert_queries_match(&schedule, &ivs, procs);

        // the same episodes, the first `split` indexed at once, the rest pushed
        let split = split.min(ivs.len());
        let mut pushed = CorruptionSchedule::from_intervals(ivs[..split].to_vec());
        for &iv in &ivs[split..] {
            pushed.push(iv);
        }
        prop_assert_eq!(pushed.intervals(), &ivs[..]);
        assert_queries_match(&pushed, &ivs, procs);
    }

    /// The Definition 2 sweep returns the scan's verdict and, on a
    /// violation, the same window start and controlled set.
    #[test]
    fn sweep_verifier_equals_linear_scan(
        raw in proptest::collection::vec(episode_strategy(), 0..14),
        procs in 1u32..6,
        f in 0usize..5,
        delta_steps in -3i32..8,
        horizon_steps in 0u32..32,
    ) {
        let ivs = episodes(&raw, procs);
        let schedule = CorruptionSchedule::from_intervals(ivs.clone());
        // Δ on the grid makes gaps of exactly Δ between episodes common;
        // a negative Δ lets an episode leave the window before it enters
        let big_delta = SimDuration::from_secs(f64::from(delta_steps) * 0.5);
        for horizon in [grid(horizon_steps), t(f64::INFINITY)] {
            assert_verify_matches(&schedule, &ivs, f, big_delta, horizon);
        }
    }

    /// The churn generators produce the episodes of the reference
    /// generator and pass the same checks.
    #[test]
    fn generators_match_reference(
        seed in 0u64..10_000,
        f in 1usize..4,
        extra in 0usize..4,
        hold_frac in 0.05f64..1.5,
    ) {
        let n = 2 * f + extra;
        let big_delta = SimDuration::from_secs(20.0);
        let horizon = t(600.0);
        let min_hold = SimDuration::from_secs(1.0);
        let max_hold = SimDuration::from_secs(1.0 + hold_frac * 30.0);
        let mut rng = RngHub::new(seed).stream("index-churn", 0);
        let churn =
            CorruptionSchedule::random_churn(n, f, min_hold, max_hold, big_delta, horizon, &mut rng);
        let mut rng = RngHub::new(seed).stream("index-churn", 0);
        let want = reference::random_churn(n, f, min_hold, max_hold, big_delta, horizon, &mut rng);
        prop_assert_eq!(churn.intervals(), &want[..]);

        let rotating = CorruptionSchedule::rotating(
            n, f, big_delta * hold_frac, big_delta, horizon, big_delta * 0.3,
        );
        for schedule in [&churn, &rotating] {
            let ivs = schedule.intervals();
            for f_check in [f.saturating_sub(1), f] {
                assert_verify_matches(schedule, ivs, f_check, big_delta, horizon);
            }
            for i in 0..=600 {
                let tau = t(f64::from(i));
                for p in (0..n as u32).map(ProcId) {
                    prop_assert_eq!(
                        schedule.is_corrupt(p, tau),
                        reference::is_corrupt(ivs, p, tau)
                    );
                    prop_assert_eq!(
                        schedule.non_faulty_during(p, tau - big_delta, tau),
                        reference::non_faulty_during(ivs, p, tau - big_delta, tau)
                    );
                }
            }
        }
    }
}

#[test]
fn empty_schedule_answers_like_the_scans() {
    let schedule = CorruptionSchedule::new();
    assert_queries_match(&schedule, &[], 1);
    assert_verify_matches(&schedule, &[], 0, SimDuration::from_secs(1.0), t(10.0));
    assert_queries_match(&CorruptionSchedule::from_intervals(Vec::new()), &[], 1);
}

#[test]
fn overlapping_episodes_of_one_processor() {
    // a long episode swallowing a later, shorter one: the running maximum
    // of `until` must carry the long one past the short one's release
    let ivs = vec![
        CorruptionInterval::new(ProcId(0), t(1.0), t(9.0)),
        CorruptionInterval::new(ProcId(0), t(2.0), t(3.0)),
        CorruptionInterval::new(ProcId(0), t(2.0), t(4.0)),
        CorruptionInterval::new(ProcId(1), t(3.0), t(5.0)),
    ];
    let schedule = CorruptionSchedule::from_intervals(ivs.clone());
    assert!(schedule.is_corrupt(ProcId(0), t(5.0)));
    assert!(!schedule.non_faulty_during(ProcId(0), t(8.5), t(20.0)));
    assert!(schedule.non_faulty_during(ProcId(0), t(9.0), t(20.0)));
    assert_queries_match(&schedule, &ivs, 2);
    for f in 0..3 {
        assert_verify_matches(&schedule, &ivs, f, SimDuration::from_secs(1.0), t(12.0));
    }
}

#[test]
fn gap_of_exactly_delta_is_accepted_and_shared_endpoints_are_not() {
    let big_delta = SimDuration::from_secs(3.0);
    // release at 5, next break-in at exactly 5 + Δ: half-open episodes keep
    // every closed window [τ, τ+Δ] to one of them
    let exact = vec![
        CorruptionInterval::new(ProcId(0), t(0.0), t(5.0)),
        CorruptionInterval::new(ProcId(1), t(8.0), t(12.0)),
    ];
    let schedule = CorruptionSchedule::from_intervals(exact.clone());
    assert!(schedule.verify_f_limited(1, big_delta, t(100.0)).is_ok());
    assert_verify_matches(&schedule, &exact, 1, big_delta, t(100.0));

    // a hand-off at a shared endpoint touches both in one window
    let shared = vec![
        CorruptionInterval::new(ProcId(0), t(0.0), t(5.0)),
        CorruptionInterval::new(ProcId(1), t(5.0), t(9.0)),
    ];
    let schedule = CorruptionSchedule::from_intervals(shared.clone());
    let err = schedule
        .verify_f_limited(1, big_delta, t(100.0))
        .unwrap_err();
    assert_eq!(err.controlled, vec![ProcId(0), ProcId(1)]);
    assert_verify_matches(&schedule, &shared, 1, big_delta, t(100.0));
}

#[test]
fn permanent_faults_and_plans() {
    let horizon = t(50.0);
    let schedule = CorruptionSchedule::permanent(&[ProcId(4), ProcId(1)], horizon);
    assert_queries_match(&schedule, schedule.intervals(), 6);
    for f in 0..3 {
        assert_verify_matches(
            &schedule,
            schedule.intervals(),
            f,
            SimDuration::from_secs(5.0),
            horizon,
        );
    }

    let plan = AdversaryPlan {
        strategy: StrategySpec::Crash,
        windows: vec![
            CorruptionWindowSpec {
                proc: 2,
                from_secs: 3.0,
                until_secs: 6.0,
            },
            CorruptionWindowSpec {
                proc: 0,
                from_secs: 1.0,
                until_secs: 2.0,
            },
        ],
    };
    let schedule = plan.schedule();
    assert!(schedule.is_corrupt(ProcId(2), t(3.0)));
    assert!(!schedule.is_corrupt(ProcId(2), t(6.0)));
    assert_queries_match(&schedule, schedule.intervals(), 3);
}

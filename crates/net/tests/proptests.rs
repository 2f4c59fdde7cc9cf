//! Property-based tests for the network substrate.

use byzclock_net::{FaultProfile, Network, Topology, UniformDelay};
use byzclock_sim::{ProcId, RealTime, RngHub, SimDuration};
use proptest::prelude::*;

proptest! {
    /// With duplication and reordering active (and no delay spikes), every
    /// delivery time `send_times` produces — original copies, duplicates,
    /// reordered tails — still lands in `(now, now + δ]`: the faults stay
    /// inside the Section 2.2 bound by construction (the reorder resample
    /// draws from `[sampled delay, δ]`, duplicates resample the same delay
    /// model). Forged traffic goes through the identical fan-out.
    #[test]
    fn faulty_send_times_respect_delta(
        seed in any::<u64>(),
        n in 2usize..8,
        dup in 0.0f64..1.0,
        reorder in 0.0f64..1.0,
        sends in 1usize..150,
        forge_every in 1usize..5,
    ) {
        let delta = SimDuration::from_millis(10.0);
        let mut net = Network::new(
            Topology::full_mesh(n),
            Box::new(UniformDelay::new(delta * 0.05, delta)),
            delta,
        );
        net.set_fault_profile(FaultProfile {
            duplicate_probability: dup,
            reorder_probability: reorder,
        });
        let mut rng = RngHub::new(seed).stream("prop-faults", 0);
        let now = RealTime::from_secs(3.0);
        for i in 0..sends {
            let from = ProcId((i % n) as u32);
            let to = ProcId(((i + 1) % n) as u32);
            let times = if i % forge_every == 0 {
                net.send_forged_times(from, to, now, &mut rng)
            } else {
                net.send_times(from, to, now, &mut rng)
            };
            prop_assert!(!times.is_empty(), "mesh links deliver without loss");
            for at in times {
                prop_assert!(at > now && at <= now + delta, "delivery at {at} outside (now, now+delta]");
            }
        }
        prop_assert_eq!(net.stats().spiked, 0);
    }

    /// Every delivered message arrives within (now, now + δ] — the paper's
    /// Section 2.2 axiom — for any uniform delay configuration.
    #[test]
    fn delivery_respects_delta(
        seed in any::<u64>(),
        n in 2usize..12,
        min_frac in 0.0f64..1.0,
        sends in 1usize..200,
    ) {
        let delta = SimDuration::from_millis(10.0);
        let mut net = Network::new(
            Topology::full_mesh(n),
            Box::new(UniformDelay::new(delta * min_frac, delta)),
            delta,
        );
        let mut rng = RngHub::new(seed).stream("prop-net", 0);
        let now = RealTime::from_secs(5.0);
        for i in 0..sends {
            let from = ProcId((i % n) as u32);
            let to = ProcId(((i + 1) % n) as u32);
            let times = net.send_times(from, to, now, &mut rng);
            prop_assert_eq!(times.len(), 1, "mesh links deliver exactly once");
            prop_assert!(times[0] >= now && times[0] <= now + delta);
        }
        prop_assert_eq!(net.stats().delivered, sends as u64);
    }

    /// Topology generators: Erdős–Rényi degrees are within range, the
    /// adjacency matrix is symmetric and irreflexive.
    #[test]
    fn topology_is_symmetric_irreflexive(seed in any::<u64>(), n in 2usize..20, p in 0.0f64..1.0) {
        let mut rng = RngHub::new(seed).stream("prop-topo", 0);
        let t = Topology::erdos_renyi(n, p, &mut rng);
        for a in 0..n as u32 {
            prop_assert!(!t.are_connected(ProcId(a), ProcId(a)));
            for b in 0..n as u32 {
                prop_assert_eq!(
                    t.are_connected(ProcId(a), ProcId(b)),
                    t.are_connected(ProcId(b), ProcId(a))
                );
            }
        }
        prop_assert!(t.min_degree() < n);
    }

    /// Two-cliques structure holds for any f: node count, degree, and the
    /// cut property (removing one clique leaves the other connected).
    #[test]
    fn two_cliques_structure_for_any_f(f in 1usize..5) {
        let t = Topology::two_cliques(f);
        let half = 3 * f + 1;
        prop_assert_eq!(t.len(), 2 * half);
        prop_assert_eq!(t.min_degree(), 3 * f + 1);
        prop_assert!(t.is_connected());
        // removing clique A leaves clique B, itself complete
        for i in half as u32..(2 * half) as u32 {
            for j in half as u32..(2 * half) as u32 {
                prop_assert_eq!(t.are_connected(ProcId(i), ProcId(j)), i != j);
            }
        }
        // cross edges are exactly the matching
        let mut cross = 0;
        for i in 0..half as u32 {
            for j in half as u32..(2 * half) as u32 {
                if t.are_connected(ProcId(i), ProcId(j)) {
                    cross += 1;
                }
            }
        }
        prop_assert_eq!(cross, half);
    }

    /// Link cuts are exact: cut pairs drop, everything else still delivers,
    /// and restoring the cut pairs brings every link back.
    #[test]
    fn link_filter_cut_restore(
        seed in any::<u64>(),
        n in 3usize..8,
        cut_pairs in proptest::collection::vec((0u32..8, 0u32..8), 0..10),
    ) {
        let delta = SimDuration::from_millis(5.0);
        let mut net = Network::new(
            Topology::full_mesh(n),
            Box::new(UniformDelay::new(delta, delta)),
            delta,
        );
        let mut rng = RngHub::new(seed).stream("prop-link", 0);
        let cuts: Vec<(ProcId, ProcId)> = cut_pairs
            .into_iter()
            .map(|(a, b)| (ProcId(a % n as u32), ProcId(b % n as u32)))
            .filter(|(a, b)| a != b)
            .collect();
        for (a, b) in &cuts {
            net.links_mut().cut(*a, *b);
        }
        let now = RealTime::ZERO;
        for a in 0..n as u32 {
            for b in 0..n as u32 {
                if a == b {
                    continue;
                }
                let pa = ProcId(a);
                let pb = ProcId(b);
                let is_cut = cuts.iter().any(|(x, y)| {
                    (*x == pa && *y == pb) || (*x == pb && *y == pa)
                });
                let delivered = !net.send_times(pa, pb, now, &mut rng).is_empty();
                prop_assert_eq!(delivered, !is_cut);
            }
        }
        for (a, b) in &cuts {
            net.links_mut().restore(*a, *b);
        }
        for a in 0..n as u32 {
            for b in 0..n as u32 {
                if a != b {
                    prop_assert!(!net
                        .send_times(ProcId(a), ProcId(b), now, &mut rng)
                        .is_empty());
                }
            }
        }
    }
}

//! Property-based tests (proptest) of the core invariants across random
//! inputs — the workspace's safety net against structural bugs.

use bayesian_ignorance::graph::paths::PathLimits;
use bayesian_ignorance::graph::{generators, Direction, NodeId};
use bayesian_ignorance::ncs::NcsGame;
use bayesian_ignorance::util::{harmonic, TotalF64};
use bayesian_ignorance::zerosum::matrix_game::MatrixGame;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dijkstra distances agree with brute-force simple-path minimization
    /// on small random graphs.
    #[test]
    fn dijkstra_matches_brute_force(seed in 0u64..500, n in 3usize..7) {
        let g = generators::gnp_connected(Direction::Undirected, n, 0.5, (0.5, 2.0), seed);
        let s = NodeId::new(0);
        let t = NodeId::new(n - 1);
        let sp = bayesian_ignorance::graph::dijkstra(&g, s, |e| g.edge(e).cost());
        let all = bayesian_ignorance::graph::paths::simple_paths(&g, s, t, PathLimits::default());
        let brute = all
            .iter()
            .map(|p| bayesian_ignorance::graph::paths::path_cost(&g, p))
            .fold(f64::INFINITY, f64::min);
        prop_assert!((sp.distance(t) - brute).abs() < 1e-9);
    }

    /// NCS payments always sum to the social cost (budget balance of fair
    /// sharing).
    #[test]
    fn ncs_payments_are_budget_balanced(seed in 0u64..500) {
        let g = generators::gnp_connected(Direction::Directed, 5, 0.4, (0.5, 2.0), seed);
        let pairs = vec![
            (NodeId::new(0), NodeId::new(4)),
            (NodeId::new(0), NodeId::new(3)),
            (NodeId::new(1), NodeId::new(4)),
        ];
        let game = match NcsGame::new(g, pairs) { Ok(g) => g, Err(_) => return Ok(()) };
        let profile = bayesian_ignorance::ncs::analysis::shortest_path_profile(&game);
        let total: f64 = (0..game.num_agents()).map(|i| game.payment(i, &profile)).sum();
        prop_assert!((total - game.social_cost(&profile)).abs() < 1e-9);
    }

    /// Better responses strictly decrease the Rosenthal potential
    /// (Rosenthal's theorem, the engine behind every equilibrium here).
    #[test]
    fn better_responses_decrease_potential(seed in 0u64..300) {
        let g = generators::gnp_connected(Direction::Undirected, 5, 0.5, (0.5, 2.0), seed);
        let pairs = vec![
            (NodeId::new(0), NodeId::new(4)),
            (NodeId::new(1), NodeId::new(3)),
        ];
        let game = match NcsGame::new(g, pairs) { Ok(g) => g, Err(_) => return Ok(()) };
        let mut profile = bayesian_ignorance::ncs::analysis::shortest_path_profile(&game);
        for _ in 0..20 {
            let phi_before = game.potential(&profile);
            let mut moved = false;
            for i in 0..game.num_agents() {
                let current = game.payment(i, &profile);
                let (path, cost) = game.best_response(i, &profile);
                if cost < current - 1e-9 {
                    let delta_cost = current - cost;
                    profile[i] = path;
                    let phi_after = game.potential(&profile);
                    prop_assert!(
                        ((phi_before - phi_after) - delta_cost).abs() < 1e-9,
                        "potential drop must equal cost drop"
                    );
                    moved = true;
                    break;
                }
            }
            if !moved { break; }
        }
        prop_assert!(game.is_nash(&profile));
    }

    /// The exact zero-sum solution is unexploitable.
    #[test]
    fn matrix_game_solutions_are_equilibria(
        rows in 2usize..5,
        cols in 2usize..5,
        seed in 0u64..500,
    ) {
        let mut rng = bayesian_ignorance::util::rng::seeded(seed);
        use rand::Rng;
        let payoff: Vec<Vec<f64>> = (0..rows)
            .map(|_| (0..cols).map(|_| rng.random_range(-2.0..2.0)).collect())
            .collect();
        let game = MatrixGame::new(payoff).unwrap();
        let sol = game.solve().unwrap();
        let (r, c) = game.exploitability(&sol.row_strategy, &sol.col_strategy);
        prop_assert!(r.abs() < 1e-6 && c.abs() < 1e-6, "regrets {r}, {c}");
    }

    /// Harmonic numbers: H(a+b) ≤ H(a) + H(b) for a,b ≥ 1 and
    /// H(n) − H(n−1) = 1/n.
    #[test]
    fn harmonic_identities(n in 1usize..2000) {
        prop_assert!((harmonic(n) - harmonic(n - 1) - 1.0 / n as f64).abs() < 1e-12);
        if n >= 2 {
            let a = n / 2;
            let b = n - a;
            if a >= 1 {
                prop_assert!(harmonic(n) <= harmonic(a) + harmonic(b) + 1e-12);
            }
        }
    }

    /// TotalF64 sorting is a total order consistent with `<` on
    /// NaN-free data.
    #[test]
    fn total_f64_sorts_consistently(mut xs in proptest::collection::vec(-1e6f64..1e6, 1..50)) {
        let mut wrapped: Vec<TotalF64> = xs.iter().copied().map(TotalF64::new).collect();
        wrapped.sort();
        xs.sort_by(f64::total_cmp);
        for (w, x) in wrapped.iter().zip(&xs) {
            prop_assert_eq!(w.get(), *x);
        }
    }

    /// Simple-path enumeration yields distinct feasible paths whose count
    /// is stable under enumeration order.
    #[test]
    fn simple_paths_are_valid_and_unique(seed in 0u64..300, n in 3usize..6) {
        let g = generators::gnp_connected(Direction::Undirected, n, 0.6, (1.0, 1.0), seed);
        let s = NodeId::new(0);
        let t = NodeId::new(n - 1);
        let ps = bayesian_ignorance::graph::paths::simple_paths(&g, s, t, PathLimits::default());
        for p in &ps {
            prop_assert!(bayesian_ignorance::graph::paths::is_path(&g, s, t, p));
        }
        let mut dedup = ps.clone();
        dedup.sort();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), ps.len());
    }

    /// FRT trees always dominate their metric.
    #[test]
    fn frt_always_dominates(seed in 0u64..100, n in 4usize..10) {
        let g = generators::cycle_graph(Direction::Undirected, n, 1.0);
        let metric = bayesian_ignorance::metric::MetricSpace::from_graph(&g).unwrap();
        let tree = bayesian_ignorance::metric::frt::sample(
            &metric,
            &mut bayesian_ignorance::util::rng::seeded(seed),
        );
        prop_assert!(bayesian_ignorance::metric::stretch::is_dominating(&metric, &tree));
    }

    /// Affine planes of prime order satisfy the incidence count
    /// `(q²+q)·q = q²·(q+1)` and the line-through-two-points axiom.
    #[test]
    fn affine_incidences(q in prop::sample::select(vec![2u64, 3, 5, 7])) {
        let plane = bayesian_ignorance::geometry::AffinePlane::new(q).unwrap();
        let q = plane.order();
        let incidences: usize = (0..plane.line_count())
            .map(|l| plane.points_on_line(l).len())
            .sum();
        prop_assert_eq!(incidences, q * q * (q + 1));
    }

    /// `route_replicas` hands every key `min(r, backends)` *distinct*
    /// owners, led by exactly the backend `route` picks.
    #[test]
    fn route_replicas_owners_are_distinct_and_led_by_route(
        hash in 0u64..u64::MAX,
        backends in 1usize..8,
        vnodes in 1usize..48,
        r in 1usize..5,
    ) {
        let ring = bayesian_ignorance::service::HashRing::new(backends, vnodes);
        let owners = ring.route_replicas(hash, r, |_| true);
        prop_assert_eq!(owners.len(), r.min(backends));
        let mut dedup = owners.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), owners.len());
        prop_assert_eq!(owners.first().copied(), ring.route(hash, |_| true));
    }

    /// Ejecting one backend moves only its own arc: the surviving
    /// owners of any key keep their relative order (they are a prefix
    /// of the post-eject owner list), and the list refills to
    /// `min(r, backends - 1)` from further around the ring.
    #[test]
    fn ejecting_a_backend_moves_only_its_own_arc(
        hash in 0u64..u64::MAX,
        backends in 2usize..8,
        vnodes in 1usize..48,
        r in 1usize..5,
        dead_pick in 0u64..u64::MAX,
    ) {
        let ring = bayesian_ignorance::service::HashRing::new(backends, vnodes);
        let before = ring.route_replicas(hash, r, |_| true);
        let dead = (dead_pick as usize) % backends;
        let after = ring.route_replicas(hash, r, |i| i != dead);
        prop_assert!(!after.contains(&dead), "the ejected backend owns nothing");
        prop_assert_eq!(after.len(), r.min(backends - 1));
        let survivors: Vec<usize> = before.iter().copied().filter(|&i| i != dead).collect();
        prop_assert_eq!(&after[..survivors.len()], survivors.as_slice());
    }
}

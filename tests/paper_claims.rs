//! End-to-end integration tests: each test re-derives one headline claim
//! of *Bayesian ignorance* through the full stack (constructions → NCS
//! solvers → measures).

use bayesian_ignorance::constructions::affine_game::AffinePlaneGame;
use bayesian_ignorance::constructions::diamond_game::DiamondGame;
use bayesian_ignorance::constructions::gworst::{GWorstGame, GWorstVariant};
use bayesian_ignorance::constructions::pos_game::GkGame;
use bayesian_ignorance::constructions::potential_bound::potential_minimizer;
use bayesian_ignorance::constructions::universal::{lemma_3_1_check, random_bayesian_ncs};
use bayesian_ignorance::graph::Direction;
use bayesian_ignorance::util::harmonic;

#[test]
fn observation_2_1_potential_minimizers_are_bayesian_equilibria() {
    use bayesian_ignorance::core::potential::{self, verify_exact_potential};
    use bayesian_ignorance::core::random_games::random_bayesian_potential_game;
    for seed in 0..10 {
        let (game, potentials) = random_bayesian_potential_game(&[2, 2], &[2, 2], 3, seed);
        for (idx, phi) in potentials.iter().enumerate() {
            let (_, _, state_game) = game.state(idx);
            verify_exact_potential(state_game, phi)
                .unwrap_or_else(|e| panic!("seed {seed} state {idx}: {e}"));
        }
        let (minimizer, _) = potential::potential_minimizer(&game, &potentials).unwrap();
        assert!(
            game.is_bayesian_equilibrium(&minimizer),
            "seed {seed}: the expected-potential minimizer must be a Bayesian equilibrium"
        );
        game.measures()
            .unwrap()
            .verify_chain()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn observation_2_2_chain_on_many_random_games() {
    for seed in 0..12 {
        for direction in [Direction::Directed, Direction::Undirected] {
            let game = random_bayesian_ncs(direction, 4, 0.35, 2, 2, seed).unwrap();
            let m = game.measures().unwrap();
            m.verify_chain()
                .unwrap_or_else(|e| panic!("{direction:?} seed {seed}: {e}"));
        }
    }
}

#[test]
fn lemma_3_1_worst_eq_p_at_most_k_opt_c() {
    for seed in 0..12 {
        let game = random_bayesian_ncs(Direction::Directed, 5, 0.3, 3, 2, seed).unwrap();
        let check = lemma_3_1_check(&game).unwrap();
        assert!(check.holds(), "seed {seed}: {check:?}");
    }
}

#[test]
fn lemma_3_2_affine_plane_ratio_is_linear_in_k() {
    let mut ks = Vec::new();
    let mut ratios = Vec::new();
    for m in [2u64, 3, 4, 5, 7, 8] {
        let game = AffinePlaneGame::new(m).unwrap();
        // The analytic value is cross-checked against exact evaluation
        // inside affine_series-style assertions.
        let measured = game
            .expected_social_cost(&game.first_line_strategies())
            .unwrap();
        assert!((measured - game.analytic_opt_p()).abs() < 1e-9);
        ks.push(game.num_agents() as f64);
        ratios.push(game.analytic_ratio());
    }
    let slope = bayesian_ignorance::util::log_log_slope(&ks, &ratios);
    assert!(
        (slope - 1.0).abs() < 0.25,
        "Ω(k) shape, got exponent {slope}"
    );
}

#[test]
fn lemma_3_3_ignorance_is_bliss_end_to_end() {
    let game = GkGame::new(7).unwrap();
    let m = game.exact_measures().unwrap();
    // Remark 1: optC = worst-eqP = O(1) while best-eqC = Ω(log k).
    assert!((m.worst_eq_p - m.opt_c).abs() < 1e-9);
    assert!(m.best_eq_c >= harmonic(6) / 2.0 - 1e-9);
    assert!(m.worst_eq_p < m.best_eq_c);
}

#[test]
fn lemma_3_4_frt_ratio_is_logarithmic_on_growing_grids() {
    use bayesian_ignorance::constructions::frt_strategy::{
        measure_shared_source, random_terminal_states, FrtRouting,
    };
    use bayesian_ignorance::graph::{generators, NodeId};
    let mut ratios = Vec::new();
    for side in [3usize, 5, 7] {
        let graph = generators::grid_graph(side, side, 1.0);
        let routing = FrtRouting::build(&graph, 8, 5).unwrap();
        let states = random_terminal_states(&graph, NodeId::new(0), 6, 4, 9);
        let m = measure_shared_source(&graph, &routing, NodeId::new(0), &states);
        assert!(m.ratio() >= 1.0 - 1e-9);
        ratios.push(m.ratio());
    }
    // n grows 9 → 49; an O(log n) ratio must stay far below linear growth.
    assert!(
        ratios[2] < ratios[0] * 3.0,
        "ratio grew too fast: {ratios:?}"
    );
}

#[test]
fn lemma_3_5_diamond_game_exact_and_online_flanks() {
    let g1 = DiamondGame::new(1);
    let m1 = g1.exact_measures().unwrap();
    assert!((m1.opt_c - 1.0).abs() < 1e-9);
    assert!(m1.opt_p > m1.opt_c + 0.2, "ignorance must cost at depth 1");
    // Online flank grows with depth.
    let c2 = DiamondGame::new(2).expected_greedy_cost(32, 1);
    let c4 = DiamondGame::new(4).expected_greedy_cost(32, 1);
    assert!(c4 > c2 + 0.3, "greedy cost must grow: {c2} vs {c4}");
}

#[test]
fn lemmas_3_6_and_3_7_gworst_both_directions() {
    let up = GWorstGame::new(8, GWorstVariant::InvK).unwrap();
    let m_up = up.exact_measures().unwrap();
    assert!(m_up.worst_eq_p / m_up.worst_eq_c > 2.0);
    let down = GWorstGame::new(8, GWorstVariant::Half).unwrap();
    let m_down = down.exact_measures().unwrap();
    assert!(m_down.worst_eq_p / m_down.worst_eq_c < 0.5);
}

#[test]
fn lemma_3_8_best_eq_p_within_harmonic_of_opt_p() {
    // (vertices, edge probability, agents, seeds)
    let inputs = [(4, 0.4, 3, 50..56), (5, 0.3, 2, 0..10)];
    for (n, p, agents, seeds) in inputs {
        for seed in seeds {
            let game = random_bayesian_ncs(Direction::Undirected, n, p, agents, 2, seed).unwrap();
            let m = game.measures().unwrap();
            let bound = harmonic(game.num_agents()) * m.opt_p;
            assert!(
                m.best_eq_p <= bound + 1e-9,
                "n {n} seed {seed}: {} vs {bound}",
                m.best_eq_p
            );
            // And the constructive route: the potential minimizer certifies it.
            let (minimizer, pb) = potential_minimizer(&game).unwrap();
            assert!(game.is_bayesian_equilibrium(&minimizer));
            assert!(pb.holds(), "n {n} seed {seed}: {pb:?}");
        }
    }
}

#[test]
fn section_4_on_an_ncs_tuple() {
    // Proposition 4.2 + Lemma 4.1 end-to-end through the bench driver.
    let (r_tilde, r_star, gap) = bi_bench::section4_measurements(4, 100, 5);
    assert!((r_tilde - r_star).abs() < 1e-4);
    assert!(gap <= 1e-7);
    assert!(r_tilde >= 1.0 - 1e-9);
}

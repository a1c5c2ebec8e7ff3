//! Quickstart for the solve service: the wire codec, the
//! content-addressed cache, and batch solving — all in-process.
//!
//! Run with `cargo run --release --example service_quickstart`.
//!
//! For the full networked stack, run the two binaries instead:
//!
//! ```text
//! cargo run --release --bin bi-serve -- --addr 127.0.0.1:0
//! # note the printed port, then:
//! cargo run --release --bin bi-loadgen -- --addr 127.0.0.1:<port> \
//!     --unique 64 --hot 1500 --min-hit-rate 0.99
//! ```

use bayesian_ignorance::core::solve::SolverConfig;
use bayesian_ignorance::graph::{Direction, Graph};
use bayesian_ignorance::ncs::{BayesianNcsGame, Prior};
use bayesian_ignorance::service::{
    BatchRequest, CacheConfig, GameSpec, SolveRequest, SolveService, TraceCtx,
};
use bayesian_ignorance::util::{Decode, Encode};

fn main() {
    // The paper's diamond game: two routes from s to t, an always-on
    // agent and a sometimes-on agent.
    let mut g = Graph::new(Direction::Directed);
    let s = g.add_node();
    let m = g.add_node();
    let t = g.add_node();
    g.add_edge(s, m, 1.0);
    g.add_edge(m, t, 1.0);
    g.add_edge(s, t, 3.0);
    let prior = Prior::independent(vec![
        vec![((s, t), 1.0)],
        vec![((s, t), 0.5), ((s, s), 0.5)],
    ]);
    let game = BayesianNcsGame::new(g, prior).expect("valid game");

    // 1. The canonical wire codec: every solvable object has a
    //    deterministic JSON form; canonical bytes are the cache key.
    let request = SolveRequest {
        game: GameSpec::Ncs(game),
        config: SolverConfig::default(),
    };
    let wire = request.encode().canonical_string();
    println!("wire request ({} bytes):\n  {wire}\n", wire.len());
    let parsed = SolveRequest::decode_str(&wire).expect("round-trips");

    // 2. The content-addressed cache: the first solve computes, the
    //    second is answered from canonical-byte identity.
    let service = SolveService::new(CacheConfig::default());
    let cold = service.solve(&parsed).expect("solvable");
    let warm = service.solve(&parsed).expect("solvable");
    println!(
        "cold: hit={} | warm: hit={} | same bytes: {}",
        cold.cache_hit,
        warm.cache_hit,
        cold.body == warm.body
    );
    println!(
        "report:\n  {}\n",
        std::str::from_utf8(&warm.body).expect("canonical JSON is UTF-8")
    );

    // 3. Batch solving: one config, many games (here: a family of
    //    priors over one graph), sent as the bytes of a `/solve_batch`
    //    body — each member is served as the `/solve` of its canonical
    //    body, one after another.
    let family: Vec<GameSpec> = [0.25, 0.5, 0.75]
        .iter()
        .map(|&p| {
            let mut g = Graph::new(Direction::Directed);
            let s = g.add_node();
            let m = g.add_node();
            let t = g.add_node();
            g.add_edge(s, m, 1.0);
            g.add_edge(m, t, 1.0);
            g.add_edge(s, t, 3.0);
            let prior = Prior::independent(vec![
                vec![((s, t), 1.0)],
                vec![((s, t), p), ((s, s), 1.0 - p)],
            ]);
            GameSpec::Ncs(BayesianNcsGame::new(g, prior).expect("valid game"))
        })
        .collect();
    let batch = BatchRequest {
        games: family,
        config: SolverConfig {
            threads: 2,
            ..SolverConfig::default()
        },
    };
    let results = service
        .solve_batch(&batch.canonical_bytes(), TraceCtx::NONE)
        .expect("a valid batch");
    for (i, result) in results.iter().enumerate() {
        let outcome = result.as_ref().expect("solvable");
        println!(
            "batch[{i}]: hit={} report={}",
            outcome.cache_hit,
            std::str::from_utf8(&outcome.body).expect("canonical JSON is UTF-8")
        );
    }
    let stats = service.cache_stats();
    println!(
        "\ncache: {} hits, {} misses, {} entries",
        stats.hits, stats.misses, stats.entries
    );
}

//! Wire-codec ([`Encode`]/[`Decode`]) implementations for the core
//! types: [`MatrixFormGame`], [`BayesianGame`], [`Measures`], [`Budget`],
//! [`Backend`], [`SolverConfig`], and [`SolveReport`].
//!
//! The representation is the canonical JSON of [`bi_util::json`]:
//! deterministic canonical bytes (sorted keys, shortest-round-trip
//! numbers) make `Encode::canonical_bytes` a content address — two games
//! hash alike iff they encode alike. Conventions:
//!
//! * `u64`/`u128` quantities (seeds, budgets, profile counts) are decimal
//!   **strings** — JSON numbers are `f64` and would lose precision;
//! * small structural integers (action counts, type indices, threads) are
//!   plain numbers;
//! * costs may be `Infinity` (the codec's one JSON extension); NaN is
//!   rejected;
//! * decoding routes through the same constructors as in-process building
//!   ([`BayesianGame::new`], …), so a decoded game passes exactly the
//!   validation a hand-built one does.
//!
//! # Examples
//!
//! ```
//! use bi_core::game::MatrixFormGame;
//! use bi_util::{Decode, Encode};
//!
//! let g = MatrixFormGame::from_fn(2, &[2, 2], |i, a| (i + a[0] + a[1]) as f64);
//! let decoded = MatrixFormGame::decode(&g.encode()).unwrap();
//! assert_eq!(decoded, g);
//! ```

use bi_util::json::{
    field, field_arr, field_bool, field_f64, field_str, field_u128, field_u64, field_usize,
};
use bi_util::{CodecError, Decode, Encode, Json};

use crate::bayesian::BayesianGame;
use crate::game::{MatrixFormGame, MAX_ENUMERATION};
use crate::measures::Measures;
use crate::solve::{Backend, Budget, SolveReport, Solver, SolverConfig};

/// Largest total number of `(agent, type)` slots a wire game may
/// declare. `BayesianGame::new` allocates marginals of this size, and a
/// hostile constant-size body (`"type_counts": [9e15]` is a dozen bytes)
/// must not force that allocation unbounded.
pub const MAX_WIRE_TYPE_SLOTS: usize = 100_000;

impl Encode for Measures {
    fn encode(&self) -> Json {
        Json::Obj(vec![
            ("opt_p".into(), Json::num(self.opt_p)),
            ("best_eq_p".into(), Json::num(self.best_eq_p)),
            ("worst_eq_p".into(), Json::num(self.worst_eq_p)),
            ("opt_c".into(), Json::num(self.opt_c)),
            ("best_eq_c".into(), Json::num(self.best_eq_c)),
            ("worst_eq_c".into(), Json::num(self.worst_eq_c)),
        ])
    }
}

impl Decode for Measures {
    fn decode(v: &Json) -> Result<Self, CodecError> {
        Ok(Measures {
            opt_p: field_f64(v, "opt_p")?,
            best_eq_p: field_f64(v, "best_eq_p")?,
            worst_eq_p: field_f64(v, "worst_eq_p")?,
            opt_c: field_f64(v, "opt_c")?,
            best_eq_c: field_f64(v, "best_eq_c")?,
            worst_eq_c: field_f64(v, "worst_eq_c")?,
        })
    }
}

impl Encode for Budget {
    fn encode(&self) -> Json {
        Json::Obj(vec![
            ("max_profiles".into(), Json::from_u128(self.max_profiles)),
            ("max_iterations".into(), Json::from_u64(self.max_iterations)),
        ])
    }
}

impl Decode for Budget {
    fn decode(v: &Json) -> Result<Self, CodecError> {
        Ok(Budget {
            max_profiles: field_u128(v, "max_profiles")?,
            max_iterations: field_u64(v, "max_iterations")?,
        })
    }
}

impl Encode for Backend {
    fn encode(&self) -> Json {
        match *self {
            Backend::ExhaustiveEnum => Json::Obj(vec![("kind".into(), Json::str("exhaustive"))]),
            Backend::BestResponseDynamics { restarts, seed } => Json::Obj(vec![
                ("kind".into(), Json::str("best_response")),
                ("restarts".into(), Json::num(f64::from(restarts))),
                ("seed".into(), Json::from_u64(seed)),
            ]),
            Backend::MonteCarloSampling { samples, seed } => Json::Obj(vec![
                ("kind".into(), Json::str("monte_carlo")),
                ("samples".into(), Json::num(f64::from(samples))),
                ("seed".into(), Json::from_u64(seed)),
            ]),
        }
    }
}

/// A `u32` structural field (restarts, samples): a plain JSON number.
fn field_u32(v: &Json, key: &str) -> Result<u32, CodecError> {
    let n = field_usize(v, key)?;
    u32::try_from(n).map_err(|_| CodecError::new(format!("field `{key}` exceeds u32")))
}

impl Decode for Backend {
    fn decode(v: &Json) -> Result<Self, CodecError> {
        match field_str(v, "kind")? {
            "exhaustive" => Ok(Backend::ExhaustiveEnum),
            "best_response" => Ok(Backend::BestResponseDynamics {
                restarts: field_u32(v, "restarts")?,
                seed: field_u64(v, "seed")?,
            }),
            "monte_carlo" => Ok(Backend::MonteCarloSampling {
                samples: field_u32(v, "samples")?,
                seed: field_u64(v, "seed")?,
            }),
            other => Err(CodecError::new(format!("unknown backend kind `{other}`"))),
        }
    }
}

impl Encode for SolverConfig {
    fn encode(&self) -> Json {
        Json::Obj(vec![
            ("backend".into(), self.backend.encode()),
            ("budget".into(), self.budget.encode()),
            ("threads".into(), Json::num(self.threads as f64)),
        ])
    }
}

impl Decode for SolverConfig {
    fn decode(v: &Json) -> Result<Self, CodecError> {
        // A `symmetry` field (any value) from clients of the retired
        // `off`/`auto` knob is ignored: the sweep always reduces, and the
        // answer bytes are the same either way.
        Ok(SolverConfig {
            backend: Backend::decode(field(v, "backend")?).map_err(|e| e.context("backend"))?,
            budget: Budget::decode(field(v, "budget")?).map_err(|e| e.context("budget"))?,
            threads: field_usize(v, "threads")?,
        })
    }
}

impl Encode for Solver {
    fn encode(&self) -> Json {
        self.config().encode()
    }
}

impl Decode for Solver {
    fn decode(v: &Json) -> Result<Self, CodecError> {
        SolverConfig::decode(v).map(Solver::from_config)
    }
}

impl Encode for SolveReport {
    fn encode(&self) -> Json {
        Json::Obj(vec![
            ("measures".into(), self.measures.encode()),
            ("method".into(), self.method.encode()),
            (
                "profiles_evaluated".into(),
                Json::from_u128(self.profiles_evaluated),
            ),
            ("exact".into(), Json::Bool(self.exact)),
            (
                "sample_cap".into(),
                self.sample_cap.map_or(Json::Null, Json::from_u64),
            ),
            // Always null: kept so report bytes (cache entries, pinned
            // digests) match those written when orbit stats existed.
            ("orbit".into(), Json::Null),
        ])
    }
}

impl Decode for SolveReport {
    fn decode(v: &Json) -> Result<Self, CodecError> {
        let sample_cap = match field(v, "sample_cap")? {
            Json::Null => None,
            other => Some(other.as_u64().ok_or_else(|| {
                CodecError::new("field `sample_cap` must be null or a decimal string (u64)")
            })?),
        };
        // Any `orbit` field (null, absent, or the stats older reports
        // carried) is ignored.
        Ok(SolveReport {
            measures: Measures::decode(field(v, "measures")?).map_err(|e| e.context("measures"))?,
            method: Backend::decode(field(v, "method")?).map_err(|e| e.context("method"))?,
            profiles_evaluated: field_u128(v, "profiles_evaluated")?,
            exact: field_bool(v, "exact")?,
            sample_cap,
        })
    }
}

impl Encode for MatrixFormGame {
    fn encode(&self) -> Json {
        let action_counts = Json::Arr(
            self.action_counts()
                .iter()
                .map(|&c| Json::num(c as f64))
                .collect(),
        );
        // `costs[i][joint]` in the game's own row-major joint-index order
        // (last agent fastest), reproduced from the public profile
        // iterator so encode/decode agree on the layout.
        let profiles: Vec<Vec<usize>> = self.profiles().collect();
        let costs = Json::Arr(
            (0..self.num_agents())
                .map(|i| {
                    Json::Arr(
                        profiles
                            .iter()
                            .map(|p| Json::num(self.cost(i, p)))
                            .collect(),
                    )
                })
                .collect(),
        );
        Json::Obj(vec![
            ("action_counts".into(), action_counts),
            ("costs".into(), costs),
        ])
    }
}

impl Decode for MatrixFormGame {
    fn decode(v: &Json) -> Result<Self, CodecError> {
        let action_counts = decode_usize_array(field_arr(v, "action_counts")?, "action_counts")?;
        if action_counts.is_empty() {
            return Err(CodecError::new(
                "`action_counts` must name at least one agent",
            ));
        }
        if action_counts.contains(&0) {
            return Err(CodecError::new("every agent needs at least one action"));
        }
        let size = action_counts
            .iter()
            .try_fold(1u128, |acc, &c| acc.checked_mul(c as u128))
            .filter(|&s| s <= MAX_ENUMERATION)
            .ok_or_else(|| CodecError::new("joint action space exceeds the enumeration limit"))?
            as usize;
        let agents = action_counts.len();
        let cost_rows = field_arr(v, "costs")?;
        if cost_rows.len() != agents {
            return Err(CodecError::new(format!(
                "`costs` must have one row per agent ({agents}), got {}",
                cost_rows.len()
            )));
        }
        let mut costs: Vec<Vec<f64>> = Vec::with_capacity(agents);
        for (i, row) in cost_rows.iter().enumerate() {
            let row = row
                .as_arr()
                .ok_or_else(|| CodecError::new(format!("`costs[{i}]` must be an array")))?;
            if row.len() != size {
                return Err(CodecError::new(format!(
                    "`costs[{i}]` must have {size} entries, got {}",
                    row.len()
                )));
            }
            let parsed: Result<Vec<f64>, CodecError> = row
                .iter()
                .map(|c| {
                    // `Json::Num(NAN)` can only be built by hand (the
                    // parser and `Json::num` both reject NaN), but decode
                    // must error rather than panic in `from_fn`.
                    c.as_f64()
                        .filter(|v| !v.is_nan())
                        .ok_or_else(|| CodecError::new(format!("`costs[{i}]` has a non-number")))
                })
                .collect();
            costs.push(parsed?);
        }
        // Joint-index layout: row-major, last agent fastest — the same
        // order `MatrixFormGame::profiles()` visits, which `from_fn`
        // enumerates.
        let mut strides = vec![1usize; agents];
        for i in (0..agents.saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * action_counts[i + 1];
        }
        Ok(MatrixFormGame::from_fn(agents, &action_counts, |i, p| {
            let idx: usize = p.iter().zip(&strides).map(|(&a, &s)| a * s).sum();
            costs[i][idx]
        }))
    }
}

impl Encode for BayesianGame {
    fn encode(&self) -> Json {
        let support = Json::Arr(
            (0..self.support_len())
                .map(|idx| {
                    let (types, prob, game) = self.state(idx);
                    Json::Obj(vec![
                        (
                            "types".into(),
                            Json::Arr(types.iter().map(|&t| Json::num(t as f64)).collect()),
                        ),
                        ("prob".into(), Json::num(prob)),
                        ("game".into(), game.encode()),
                    ])
                })
                .collect(),
        );
        Json::Obj(vec![
            (
                "type_counts".into(),
                Json::Arr(
                    self.type_counts()
                        .iter()
                        .map(|&c| Json::num(c as f64))
                        .collect(),
                ),
            ),
            ("support".into(), support),
        ])
    }
}

impl Decode for BayesianGame {
    fn decode(v: &Json) -> Result<Self, CodecError> {
        let type_counts = decode_usize_array(field_arr(v, "type_counts")?, "type_counts")?;
        let total_slots = type_counts
            .iter()
            .try_fold(0usize, |acc, &c| acc.checked_add(c))
            .filter(|&t| t <= MAX_WIRE_TYPE_SLOTS);
        if total_slots.is_none() {
            return Err(CodecError::new(format!(
                "`type_counts` declares more than {MAX_WIRE_TYPE_SLOTS} type slots"
            )));
        }
        let mut support = Vec::new();
        for (idx, state) in field_arr(v, "support")?.iter().enumerate() {
            let ctx = |e: CodecError| e.context(&format!("support[{idx}]"));
            let types = decode_usize_array(field_arr(state, "types").map_err(ctx)?, "types")
                .map_err(ctx)?;
            let prob = field_f64(state, "prob").map_err(ctx)?;
            let game = MatrixFormGame::decode(field(state, "game").map_err(ctx)?).map_err(ctx)?;
            support.push((types, prob, game));
        }
        BayesianGame::new(type_counts, support)
            .map_err(|e| CodecError::new(format!("invalid Bayesian game: {e}")))
    }
}

/// Decodes an array of exact non-negative integers.
fn decode_usize_array(items: &[Json], what: &str) -> Result<Vec<usize>, CodecError> {
    items
        .iter()
        .map(|v| {
            v.as_usize().ok_or_else(|| {
                CodecError::new(format!("`{what}` must contain non-negative integers"))
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_games::random_bayesian_potential_game;

    #[test]
    fn matrix_game_round_trips_including_infinities() {
        let g = MatrixFormGame::from_fn(2, &[2, 3], |i, a| {
            if i == 0 && a == [1, 2] {
                f64::INFINITY
            } else {
                (i + a[0] * 10 + a[1]) as f64
            }
        });
        let decoded = MatrixFormGame::decode(&g.encode()).unwrap();
        assert_eq!(decoded, g);
        assert_eq!(decoded.canonical_bytes(), g.canonical_bytes());
    }

    #[test]
    fn bayesian_game_round_trips_and_revalidates() {
        for seed in 0..4 {
            let (game, _) = random_bayesian_potential_game(&[2, 2], &[2, 2], 3, seed);
            let encoded = game.encode();
            let decoded = BayesianGame::decode(&encoded).unwrap();
            // `BayesianGame` has no `PartialEq`; canonical bytes are the
            // equality the cache relies on.
            assert_eq!(decoded.canonical_bytes(), game.canonical_bytes());
            // And the decoded game solves identically.
            let a = Solver::default().solve(&game).unwrap();
            let b = Solver::default().solve(&decoded).unwrap();
            assert_eq!(a.measures, b.measures, "seed {seed}");
        }
    }

    #[test]
    fn backend_and_config_round_trip() {
        let backends = [
            Backend::ExhaustiveEnum,
            Backend::BestResponseDynamics {
                restarts: 7,
                seed: u64::MAX,
            },
            Backend::MonteCarloSampling {
                samples: 128,
                seed: 42,
            },
        ];
        for backend in backends {
            assert_eq!(Backend::decode(&backend.encode()).unwrap(), backend);
            let config = SolverConfig {
                backend,
                budget: Budget {
                    max_profiles: u128::MAX,
                    max_iterations: u64::MAX,
                },
                threads: 2,
            };
            assert_eq!(SolverConfig::decode(&config.encode()).unwrap(), config);
            let solver = Solver::decode(&Solver::from_config(config).encode()).unwrap();
            assert_eq!(solver.config(), config);
        }
    }

    #[test]
    fn pre_symmetry_wire_bodies_still_decode() {
        // Configs with or without the retired `symmetry` field decode
        // alike: any value (even one the old knob rejected) is ignored.
        let config = |symmetry: &str| {
            SolverConfig::decode_str(&format!(
                r#"{{"backend":{{"kind":"exhaustive"}},
                "budget":{{"max_iterations":"1","max_profiles":"1"}},{symmetry}"threads":4}}"#
            ))
            .unwrap()
        };
        let canonical = config("");
        for field in [
            r#""symmetry":"off","#,
            r#""symmetry":"auto","#,
            r#""symmetry":"sideways","#,
            r#""symmetry":7,"#,
        ] {
            assert_eq!(config(field), canonical, "{field}");
        }
        assert!(!canonical.encode().canonical_string().contains("symmetry"));
        // Reports decode with no `orbit` field, a null one, or the stats
        // object orbit-reduced reports once carried; they re-encode with
        // the constant `"orbit":null`.
        let report = |orbit: &str| {
            SolveReport::decode_str(&format!(
                r#"{{"exact":true,
                "measures":{{"best_eq_c":0,"best_eq_p":0,"opt_c":0,"opt_p":0,
                            "worst_eq_c":0,"worst_eq_p":0}},
                "method":{{"kind":"exhaustive"}},{orbit}"profiles_evaluated":"8",
                "sample_cap":null}}"#
            ))
            .unwrap()
        };
        let old = report("");
        for orbit in [
            r#""orbit":null,"#,
            r#""orbit":{"group_order":"6","orbits_evaluated":"4","profiles_represented":"8"},"#,
        ] {
            assert_eq!(report(orbit), old, "{orbit}");
        }
        assert!(old.encode().canonical_string().contains(r#""orbit":null"#));
    }

    #[test]
    fn report_and_measures_round_trip() {
        let report = SolveReport {
            measures: Measures {
                opt_p: 1.25,
                best_eq_p: 1.5,
                worst_eq_p: f64::INFINITY,
                opt_c: 1.0,
                best_eq_c: 1.25,
                worst_eq_c: 2.0,
            },
            method: Backend::MonteCarloSampling {
                samples: 64,
                seed: 3,
            },
            profiles_evaluated: u128::from(u64::MAX) + 7,
            exact: false,
            sample_cap: Some(12),
        };
        let decoded = SolveReport::decode(&report.encode()).unwrap();
        assert_eq!(decoded, report);
        let no_cap = SolveReport {
            sample_cap: None,
            ..report
        };
        assert_eq!(SolveReport::decode(&no_cap.encode()).unwrap(), no_cap);
    }

    #[test]
    fn decode_str_parses_and_decodes() {
        let m = Measures {
            opt_p: 2.0,
            best_eq_p: 2.0,
            worst_eq_p: 3.0,
            opt_c: 1.0,
            best_eq_c: 1.5,
            worst_eq_c: 4.0,
        };
        let text = m.encode().canonical_string();
        assert_eq!(Measures::decode_str(&text).unwrap(), m);
        assert!(Measures::decode_str("{not json").is_err());
    }

    #[test]
    fn malformed_games_are_rejected_with_context() {
        let cases = [
            (r#"{"action_counts":[],"costs":[]}"#, "at least one agent"),
            (
                r#"{"action_counts":[0],"costs":[[1]]}"#,
                "at least one action",
            ),
            (r#"{"action_counts":[2],"costs":[]}"#, "one row per agent"),
            (r#"{"action_counts":[2],"costs":[[1]]}"#, "2 entries"),
            (r#"{"action_counts":[2],"costs":[[1,"x"]]}"#, "non-number"),
            (r#"{"action_counts":[2]}"#, "missing field `costs`"),
            (
                r#"{"action_counts":[3000,3000,3000,3000,3000],"costs":[[],[],[],[],[]]}"#,
                "enumeration limit",
            ),
        ];
        for (input, want) in cases {
            let err = MatrixFormGame::decode_str(input).unwrap_err();
            assert!(
                err.to_string().contains(want),
                "{input}: got `{err}`, wanted `{want}`"
            );
        }
        let bad_prior = r#"{"type_counts":[1],"support":[
            {"types":[0],"prob":0.5,"game":{"action_counts":[1],"costs":[[0]]}}
        ]}"#;
        let err = BayesianGame::decode_str(bad_prior).unwrap_err();
        assert!(err.to_string().contains("invalid Bayesian game"));
        let bad_state = r#"{"type_counts":[1],"support":[{"types":[0],"prob":1}]}"#;
        let err = BayesianGame::decode_str(bad_state).unwrap_err();
        assert!(err.to_string().contains("support[0]"));
        // A hostile constant-size body must not force a huge marginals
        // allocation.
        let huge_types = r#"{"type_counts":[9007199254740991],"support":[
            {"types":[0],"prob":1,"game":{"action_counts":[1],"costs":[[0]]}}
        ]}"#;
        let err = BayesianGame::decode_str(huge_types).unwrap_err();
        assert!(err.to_string().contains("type slots"));
    }
}

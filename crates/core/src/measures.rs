//! The six social-cost quantities and the three Bayesian-ignorance ratios.

use std::fmt;

use bi_util::approx_le;

/// The six quantities of Section 2:
///
/// * partial information: `optP`, `best-eqP`, `worst-eqP` — optimum, best
///   and worst Bayesian-equilibrium social cost of the Bayesian game;
/// * complete information: `optC`, `best-eqC`, `worst-eqC` — prior-averaged
///   optimum, best and worst pure-Nash social cost of the underlying games.
///
/// # Examples
///
/// ```
/// let m = bi_core::Measures {
///     opt_p: 2.0, best_eq_p: 2.0, worst_eq_p: 3.0,
///     opt_c: 1.0, best_eq_c: 1.5, worst_eq_c: 4.0,
/// };
/// m.verify_chain().unwrap();
/// let r = m.ratios();
/// assert_eq!(r.opt, 2.0);
/// assert_eq!(r.worst_eq, 0.75);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Measures {
    /// `optP = min_s K(s)`.
    pub opt_p: f64,
    /// `best-eqP = min over Bayesian equilibria of K(s)`.
    pub best_eq_p: f64,
    /// `worst-eqP = max over Bayesian equilibria of K(s)`.
    pub worst_eq_p: f64,
    /// `optC = Σ_t p(t)·min_a K_t(a)`.
    pub opt_c: f64,
    /// `best-eqC = Σ_t p(t)·min over Nash equilibria of K_t`.
    pub best_eq_c: f64,
    /// `worst-eqC = Σ_t p(t)·max over Nash equilibria of K_t`.
    pub worst_eq_c: f64,
}

/// The three headline ratios of the paper (Table 1 rows).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IgnoranceRatios {
    /// `optP / optC` — benevolent agents.
    pub opt: f64,
    /// `best-eqP / best-eqC` — selfish agents, best equilibria.
    pub best_eq: f64,
    /// `worst-eqP / worst-eqC` — selfish agents, worst equilibria.
    pub worst_eq: f64,
}

/// Error from [`Measures::verify_chain`]: a link of the Observation 2.2
/// chain `optC ≤ optP ≤ best-eqP ≤ worst-eqP`, or of its
/// complete-information side `optC ≤ best-eqC ≤ worst-eqC`, failed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChainViolation {
    /// Human-readable name of the failed link.
    pub link: &'static str,
    /// Left value of the failed inequality.
    pub lhs: f64,
    /// Right value of the failed inequality.
    pub rhs: f64,
}

impl fmt::Display for ChainViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Observation 2.2 violated: {} ({} > {})",
            self.link, self.lhs, self.rhs
        )
    }
}

impl std::error::Error for ChainViolation {}

impl Measures {
    /// The three ignorance ratios. Division by zero yields `f64::INFINITY`
    /// or NaN exactly as IEEE arithmetic dictates; the paper's Section 4
    /// remark (interpret 0/0 as 1) is applied.
    #[must_use]
    pub fn ratios(&self) -> IgnoranceRatios {
        IgnoranceRatios {
            opt: ratio(self.opt_p, self.opt_c),
            best_eq: ratio(self.best_eq_p, self.best_eq_c),
            worst_eq: ratio(self.worst_eq_p, self.worst_eq_c),
        }
    }

    /// Checks Observation 2.2: `optC ≤ optP ≤ best-eqP ≤ worst-eqP`, up
    /// to [`approx_le`]'s tolerance, and its complete-information side
    /// `optC ≤ best-eqC ≤ worst-eqC`, exactly.
    ///
    /// The exact comparison is sound. In each state the optimum is at
    /// most the best equilibrium, which is at most the worst: all three
    /// are the same state costs, minimized over every profile, minimized
    /// over the equilibria and maximized over them. The solver sums the
    /// `p(t)` terms of all three values in the same state order, and
    /// rounding is monotone (after rounding, `p ≥ 0` and `a ≤ b` give
    /// `p·a ≤ p·b`, and `a ≤ b`, `c ≤ d` give `a + c ≤ b + d`), so the
    /// sums keep the order of their terms.
    ///
    /// # Errors
    ///
    /// Returns the first violated link.
    pub fn verify_chain(&self) -> Result<(), ChainViolation> {
        // `(link, lhs, rhs, exact)`.
        let links = [
            ("optC ≤ optP", self.opt_c, self.opt_p, false),
            ("optP ≤ best-eqP", self.opt_p, self.best_eq_p, false),
            (
                "best-eqP ≤ worst-eqP",
                self.best_eq_p,
                self.worst_eq_p,
                false,
            ),
            ("optC ≤ best-eqC", self.opt_c, self.best_eq_c, true),
            (
                "best-eqC ≤ worst-eqC",
                self.best_eq_c,
                self.worst_eq_c,
                true,
            ),
        ];
        for (link, lhs, rhs, exact) in links {
            let holds = if exact {
                lhs <= rhs
            } else {
                approx_le(lhs, rhs)
            };
            if !holds {
                return Err(ChainViolation { link, lhs, rhs });
            }
        }
        Ok(())
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if num == 0.0 && den == 0.0 {
        1.0 // the paper's 0/0 := 1 convention
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Measures {
        Measures {
            opt_p: 4.0,
            best_eq_p: 5.0,
            worst_eq_p: 6.0,
            opt_c: 2.0,
            best_eq_c: 2.5,
            worst_eq_c: 3.0,
        }
    }

    #[test]
    fn ratios_divide_componentwise() {
        let r = sample().ratios();
        assert_eq!(r.opt, 2.0);
        assert_eq!(r.best_eq, 2.0);
        assert_eq!(r.worst_eq, 2.0);
    }

    #[test]
    fn zero_over_zero_is_one() {
        let m = Measures {
            opt_p: 0.0,
            best_eq_p: 0.0,
            worst_eq_p: 0.0,
            opt_c: 0.0,
            best_eq_c: 0.0,
            worst_eq_c: 0.0,
        };
        let r = m.ratios();
        assert_eq!(r.opt, 1.0);
        assert_eq!(r.best_eq, 1.0);
        assert_eq!(r.worst_eq, 1.0);
    }

    #[test]
    fn chain_accepts_valid_measures() {
        sample().verify_chain().unwrap();
    }

    #[test]
    fn chain_rejects_opt_p_below_opt_c() {
        let mut m = sample();
        m.opt_p = 1.0;
        let err = m.verify_chain().unwrap_err();
        assert_eq!(err.link, "optC ≤ optP");
        assert!(err.to_string().contains("Observation 2.2"));
    }

    #[test]
    fn chain_rejects_best_above_worst() {
        let mut m = sample();
        m.worst_eq_p = 4.5;
        let err = m.verify_chain().unwrap_err();
        assert_eq!(err.link, "best-eqP ≤ worst-eqP");
    }

    #[test]
    fn chain_rejects_opt_c_above_best_eq_c_by_any_margin() {
        let mut m = sample();
        m.opt_c = f64::from_bits(m.best_eq_c.to_bits() + 1);
        let err = m.verify_chain().unwrap_err();
        assert_eq!(err.link, "optC ≤ best-eqC");
        assert_eq!((err.lhs, err.rhs), (m.opt_c, m.best_eq_c));
    }

    #[test]
    fn chain_rejects_best_eq_c_above_worst_eq_c_by_any_margin() {
        let mut m = sample();
        m.best_eq_c = f64::from_bits(m.worst_eq_c.to_bits() + 1);
        let err = m.verify_chain().unwrap_err();
        assert_eq!(err.link, "best-eqC ≤ worst-eqC");
        assert_eq!((err.lhs, err.rhs), (m.best_eq_c, m.worst_eq_c));
    }

    #[test]
    fn chain_accepts_equal_complete_information_values() {
        let mut m = sample();
        m.best_eq_c = m.opt_c;
        m.worst_eq_c = m.opt_c;
        m.verify_chain().unwrap();
    }

    #[test]
    fn chain_tolerates_floating_point_noise() {
        let mut m = sample();
        m.opt_p = m.opt_c - 1e-13;
        m.best_eq_p = m.opt_p;
        m.worst_eq_p = m.opt_p;
        m.verify_chain().unwrap();
    }
}

//! Shared numeric and reporting utilities for the `bayesian-ignorance`
//! workspace.
//!
//! This crate deliberately stays tiny: a totally ordered [`f64`] wrapper
//! ([`TotalF64`]), harmonic numbers ([`harmonic`]), tolerance-based float
//! comparison ([`approx_eq`], [`approx_le`]), summary statistics and
//! log–log growth fitting ([`stats`]), seeded RNG construction
//! ([`rng::seeded`]), plain-text table rendering for the experiment
//! harnesses ([`table::TextTable`]), the canonical JSON wire codec of the
//! solve service ([`json`]), the XXH64 content hash and the FNV-1a
//! checksum ([`hash`]), and the CRC-32 frame checksum of the disk cache tier
//! ([`crc`]).
//!
//! # Examples
//!
//! ```
//! use bi_util::{harmonic, TotalF64};
//!
//! assert!((harmonic(3) - (1.0 + 0.5 + 1.0 / 3.0)).abs() < 1e-12);
//! let mut xs = vec![TotalF64::new(2.0), TotalF64::new(1.0)];
//! xs.sort();
//! assert_eq!(xs[0].get(), 1.0);
//! ```

pub mod crc;
pub mod float;
// Private module: its single item is re-exported below, and rustdoc rejects
// a root-level module and function sharing the name `harmonic`.
mod harmonic;
pub mod hash;
pub mod json;
pub mod rng;
pub mod stats;
pub mod table;

pub use crc::{crc32, Crc32};
pub use float::{approx_eq, approx_le, TotalF64, EPS};
pub use harmonic::harmonic;
pub use hash::{fnv1a, xxh64, Xxh64BuildHasher};
pub use json::{CodecError, Decode, Encode, Json};
pub use stats::{linear_fit, log_log_slope, Summary};

//! Deterministic 64-bit hashes: XXH64, the in-process content hash, and
//! FNV-1a, a byte-serial checksum for short inputs.
//!
//! Neither hash is randomly keyed (`std`'s default `SipHash` is, per
//! process), so both give the same value in every process and on every
//! platform.
//!
//! * [`xxh64`] routes content inside a process: it picks the cache
//!   shard and bucket of a canonical request body or cache key, indexes
//!   the disk tier's key map, and places a key on the router's ring.
//!   Bodies run to tens of kilobytes, so it reads four independent
//!   `u64` lanes of little-endian words per 32-byte stripe (no lane
//!   waits on another's multiply) and finishes with an avalanche. The
//!   hash only routes: every table that uses it compares the full key
//!   bytes, so a collision costs a bucket walk, never a wrong answer.
//! * [`fnv1a`] is one dependent xor-multiply per byte. It stays for
//!   values that must not move: benchmark answer digests, the load
//!   generator's client-side key pinning and the router's retry jitter.
//!
//! # Examples
//!
//! ```
//! use bi_util::{fnv1a, xxh64};
//!
//! // The published XXH64 (seed 0) and FNV-1a test vectors.
//! assert_eq!(xxh64(b""), 0xef46_db37_51d8_e999);
//! assert_eq!(xxh64(b"a"), 0xd24e_c4f1_a98c_6e5b);
//! assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
//! assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
//! ```

/// The FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hashes `bytes` with 64-bit FNV-1a.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;
const P5: u64 = 0x27d4_eb2f_1656_67c5;

/// Hashes `bytes` with XXH64, seed 0.
#[must_use]
pub fn xxh64(bytes: &[u8]) -> u64 {
    xxh64_seeded(bytes, 0)
}

/// The little-endian `u64` at the start of `bytes` (at least 8 long).
fn word(bytes: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(w)
}

/// One lane step: folds a word into an accumulator.
fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// Folds a finished lane into the combined state.
fn merge(h: u64, lane: u64) -> u64 {
    (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

fn xxh64_seeded(bytes: &[u8], seed: u64) -> u64 {
    let stripes = bytes.chunks_exact(32);
    let mut tail = stripes.remainder();
    let mut h = if bytes.len() >= 32 {
        let mut lanes = [
            seed.wrapping_add(P1).wrapping_add(P2),
            seed.wrapping_add(P2),
            seed,
            seed.wrapping_sub(P1),
        ];
        for stripe in stripes {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = round(*lane, word(&stripe[8 * i..]));
            }
        }
        let [v1, v2, v3, v4] = lanes;
        let h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        lanes.iter().fold(h, |h, &lane| merge(h, lane))
    } else {
        seed.wrapping_add(P5)
    };
    h = h.wrapping_add(bytes.len() as u64);
    while tail.len() >= 8 {
        h ^= round(0, word(tail));
        h = h.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
        tail = &tail[8..];
    }
    if tail.len() >= 4 {
        let mut w = [0u8; 4];
        w.copy_from_slice(&tail[..4]);
        h ^= u64::from(u32::from_le_bytes(w)).wrapping_mul(P1);
        h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
        tail = &tail[4..];
    }
    for &b in tail {
        h ^= u64::from(b).wrapping_mul(P5);
        h = h.rotate_left(11).wrapping_mul(P1);
    }
    // The avalanche: every input bit reaches every output bit.
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// A [`std::hash::Hasher`] running [`xxh64`], for deterministic
/// `HashMap`s keyed by wire bytes (or by hashes of them). Each `write`
/// hashes its bytes seeded with the state so far, so one `write` on a
/// fresh hasher finishes with exactly [`xxh64`] of those bytes.
#[derive(Clone, Debug, Default)]
pub struct Xxh64Hasher(u64);

impl std::hash::Hasher for Xxh64Hasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 = xxh64_seeded(bytes, self.0);
    }
}

/// A [`std::hash::BuildHasher`] producing [`Xxh64Hasher`]s
/// (deterministic, unseeded — unlike `RandomState`).
#[derive(Clone, Copy, Debug, Default)]
pub struct Xxh64BuildHasher;

impl std::hash::BuildHasher for Xxh64BuildHasher {
    type Hasher = Xxh64Hasher;

    fn build_hasher(&self) -> Xxh64Hasher {
        Xxh64Hasher::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hasher};

    #[test]
    fn known_vectors() {
        // Classic FNV-1a 64 test vectors (Noll's reference tables).
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
        // Published XXH64 (seed 0) vectors.
        assert_eq!(xxh64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(xxh64(b"abc"), 0x44bc_2cf5_ad77_0999);
    }

    /// `len` bytes of a fixed, position-dependent pattern.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 + i / 7) as u8).collect()
    }

    #[test]
    fn pinned_vectors_across_the_stripe_boundary() {
        // Lengths 31/32/33 straddle the four-lane stripe loop; ~22 KB is
        // the size of a hot `/solve` body. A change to the hash moves
        // every shard, index bucket and ring owner, so these are pinned.
        let pinned: [(usize, u64); 6] = [
            (0, 0xef46_db37_51d8_e999),
            (1, 0xe934_a84a_db05_2768),
            (31, 0x1d6e_06b1_f201_b448),
            (32, 0xc503_2806_ee64_ae04),
            (33, 0x2976_f9b2_2e70_9c1a),
            (22_102, 0x820a_2f5d_f786_d2b2),
        ];
        for (len, want) in pinned {
            assert_eq!(xxh64(&pattern(len)), want, "length {len}");
        }
    }

    #[test]
    fn hasher_matches_free_function() {
        let mut h = Xxh64BuildHasher.build_hasher();
        h.write(b"foobar");
        assert_eq!(h.finish(), xxh64(b"foobar"));
        // A second write is chained, not dropped.
        h.write(b"!");
        assert_ne!(h.finish(), xxh64(b"foobar"));
    }

    #[test]
    fn distinct_inputs_distinct_hashes() {
        assert_ne!(fnv1a(b"solve:1"), fnv1a(b"solve:2"));
        assert_ne!(xxh64(b"solve:1"), xxh64(b"solve:2"));
    }

    #[test]
    fn bodies_differing_in_one_number_spread_over_shards() {
        // 4,096 bodies that differ only in one embedded number, the way
        // hot `/solve` bodies differ in a payoff, long enough to run the
        // stripe loop: no shard of 16 may take more than 1.5× its fair
        // share (the shard is `hash % shards`, as in the cache).
        let payoffs = "0.125,".repeat(300);
        let mut counts = [0usize; 16];
        for i in 0..4096u32 {
            let body =
                format!(r#"{{"config":{{"threads":1}},"game":[{payoffs}{i},{payoffs}2.25]}}"#);
            counts[(xxh64(body.as_bytes()) % 16) as usize] += 1;
        }
        let mean = 4096 / 16;
        let max = *counts.iter().max().unwrap();
        assert!(max * 2 <= mean * 3, "shard loads {counts:?}");
    }
}

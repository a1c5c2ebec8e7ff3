//! Crash-safety sweep for the disk cache tier: a torn final frame —
//! cut at *every* possible byte offset — must never cost more than the
//! torn record itself.
//!
//! The log format is append-only CRC-framed records, so the only crash
//! the tier has to survive is a partial final write. This test builds a
//! known-good log, then simulates that crash exhaustively: for each cut
//! point inside the last frame it truncates the file there, boots a
//! fresh [`DiskTier`] on it, and asserts every complete record is
//! recovered byte-identical, the torn record is gone, and the log is
//! usable for new appends afterwards. A log written by an older binary,
//! which could hold several frames of one key, boots first-wins.

use std::sync::atomic::{AtomicU64, Ordering};

use bi_service::persist::{frame_record, DiskTier, DiskTierConfig};

/// A unique temp path per call so parallel tests never collide.
fn temp_log(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("bi-crash-{}-{tag}-{n}.log", std::process::id()))
}

/// The fixture: three complete records plus one final frame that the
/// sweep tears. Varied key/value lengths so the cut points cross every
/// region of a frame — each length header, the CRC, the key, the value.
fn records() -> Vec<(Vec<u8>, Vec<u8>)> {
    vec![
        (b"alpha".to_vec(), b"the first value".to_vec()),
        (b"b".to_vec(), vec![0xAB; 64]),
        (b"gamma-key".to_vec(), Vec::new()),
        (
            b"the-final-key".to_vec(),
            b"payload of the torn frame".to_vec(),
        ),
    ]
}

#[test]
fn every_torn_tail_offset_recovers_all_complete_records() {
    let all = records();
    let (complete, torn) = all.split_at(all.len() - 1);
    let mut base = Vec::new();
    for (key, value) in complete {
        base.extend_from_slice(&frame_record(key, value));
    }
    let last = frame_record(&torn[0].0, &torn[0].1);

    let path = temp_log("sweep");
    // Cut at every offset that leaves the last frame incomplete: from
    // zero extra bytes up to one byte short of the full frame.
    for cut in 0..last.len() {
        let mut bytes = base.clone();
        bytes.extend_from_slice(&last[..cut]);
        std::fs::write(&path, &bytes).expect("write fixture");

        let tier = DiskTier::open(&path, DiskTierConfig::default()).expect("boot on torn log");
        let stats = tier.stats();
        assert_eq!(
            stats.recovered_records,
            complete.len() as u64,
            "cut at +{cut}: every complete record must be recovered"
        );
        assert_eq!(
            stats.truncated_bytes, cut as u64,
            "cut at +{cut}: exactly the torn bytes must be discarded"
        );
        for (key, value) in complete {
            assert_eq!(
                tier.get(key).as_deref(),
                Some(value.as_slice()),
                "cut at +{cut}: recovered value must be byte-identical"
            );
        }
        assert_eq!(
            tier.get(&torn[0].0),
            None,
            "cut at +{cut}: the torn record must not resurface"
        );
        drop(tier);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_legacy_log_with_duplicate_frames_boots_first_wins() {
    // Older binaries re-appended keys, so their logs can hold several
    // frames of one key. The boot scan keeps each key's first frame —
    // the one the write-once writer would have kept — and new appends
    // of those keys write nothing.
    let history: Vec<(&[u8], &[u8])> = vec![
        (b"alpha", b"first alpha"),
        (b"beta", b"only beta"),
        (b"alpha", b"second alpha, longer than the first"),
        (b"gamma", b"first gamma"),
        (b"alpha", b"third alpha"),
        (b"gamma", b"second gamma"),
    ];
    let mut log = Vec::new();
    for (key, value) in &history {
        log.extend_from_slice(&frame_record(key, value));
    }
    let path = temp_log("legacy");
    std::fs::write(&path, &log).expect("write legacy log");

    let tier = DiskTier::open(&path, DiskTierConfig::default()).expect("boot on legacy log");
    let stats = tier.stats();
    assert_eq!(stats.recovered_records, history.len() as u64);
    assert_eq!(stats.truncated_bytes, 0);
    assert_eq!(stats.entries, 3);
    assert_eq!(stats.log_bytes, log.len() as u64);
    for (key, first) in [
        (&b"alpha"[..], &b"first alpha"[..]),
        (b"beta", b"only beta"),
        (b"gamma", b"first gamma"),
    ] {
        assert_eq!(tier.get(key).as_deref(), Some(first), "first frame wins");
    }
    tier.append(b"alpha", b"a fourth alpha");
    tier.sync();
    assert_eq!(tier.stats().appends, 0, "an indexed key is never rewritten");
    assert_eq!(tier.stats().log_bytes, log.len() as u64);
    drop(tier);
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_torn_log_accepts_new_appends_and_replays_them_after_reboot() {
    let all = records();
    let (complete, torn) = all.split_at(all.len() - 1);
    let mut bytes = Vec::new();
    for (key, value) in complete {
        bytes.extend_from_slice(&frame_record(key, value));
    }
    // Tear the final frame mid-CRC (inside the 12-byte header).
    let last = frame_record(&torn[0].0, &torn[0].1);
    bytes.extend_from_slice(&last[..9]);

    let path = temp_log("resume");
    std::fs::write(&path, &bytes).expect("write fixture");

    {
        let tier = DiskTier::open(&path, DiskTierConfig::default()).expect("boot on torn log");
        assert_eq!(tier.stats().recovered_records, complete.len() as u64);
        // Re-append the record the crash destroyed, plus a fresh one.
        tier.append(&torn[0].0, &torn[0].1);
        tier.append(b"post-crash", b"written after recovery");
        tier.sync();
    }

    let tier = DiskTier::open(&path, DiskTierConfig::default()).expect("reboot");
    let stats = tier.stats();
    assert_eq!(
        stats.recovered_records,
        all.len() as u64 + 1,
        "the truncated tail must not shadow post-recovery appends"
    );
    assert_eq!(stats.truncated_bytes, 0, "the reopened log is clean");
    for (key, value) in &all {
        assert_eq!(tier.get(key).as_deref(), Some(value.as_slice()));
    }
    assert_eq!(
        tier.get(b"post-crash").as_deref(),
        Some(b"written after recovery".as_slice())
    );
    drop(tier);
    std::fs::remove_file(&path).ok();
}

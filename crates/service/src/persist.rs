//! The disk-backed second cache tier: an append-only log of canonical
//! request bytes → response bytes, CRC-framed, with an in-memory index
//! (hashed with [`bi_util::xxh64`]) rebuilt by scanning on boot.
//!
//! The paper's measures are pure functions of the canonical request
//! bytes, so the cache key *is* the result identity — which makes a
//! persistent tier exact: replaying the log after a restart serves the
//! same bytes the engine computed before it. The in-memory LRU stays the
//! first tier; this log is the second, consulted on LRU misses (with
//! promotion back into the LRU) and appended **behind** the hot path by
//! a dedicated writer thread, so neither the reactor nor the solver pool
//! ever blocks on `write(2)`.
//!
//! # On-disk format
//!
//! The log is a sequence of frames, each:
//!
//! ```text
//! [key_len: u32 LE][val_len: u32 LE][crc32: u32 LE][key bytes][val bytes]
//! ```
//!
//! where the CRC-32 (IEEE, [`bi_util::crc32`]) covers `key ‖ val`. A
//! crash mid-append leaves a torn tail: on boot the scan stops at the
//! first incomplete or CRC-invalid frame, truncates the file back to the
//! last whole record, and keeps serving — recovery is never fatal.
//!
//! # Write-once
//!
//! A key names one answer forever, so each key is written at most once:
//! the writer thread drops an append whose key is already indexed. The
//! writer is the only thread that inserts into the index, so its
//! check-then-insert is exact without holding the index lock across the
//! write, and two appends of one key queued back to back still yield one
//! frame. A log written this way holds no dead records, never needs
//! compacting, and satisfies `entries == recovered_records + appends`.
//! The boot scan keeps the *first* frame of a key too, so a log from an
//! older binary that re-appended keys boots on the same first-wins rule.
//!
//! Nothing ever rewrites or swaps the file: appends only grow it past
//! every indexed offset, so a reader pairs an offset from the index with
//! one positioned read (`pread`) and needs no file lock.
//!
//! # Examples
//!
//! ```
//! use bi_service::persist::{DiskTier, DiskTierConfig};
//!
//! let path = std::env::temp_dir().join(format!("bi-doc-{}.log", std::process::id()));
//! # let _ = std::fs::remove_file(&path);
//! let tier = DiskTier::open(&path, DiskTierConfig::default()).unwrap();
//! tier.append(b"key", b"value");
//! tier.append(b"key", b"a second value is never written");
//! tier.sync();
//! drop(tier);
//! // A reboot rebuilds the index by scanning the log.
//! let tier = DiskTier::open(&path, DiskTierConfig::default()).unwrap();
//! assert_eq!(tier.get(b"key").as_deref(), Some(&b"value"[..]));
//! assert_eq!(tier.stats().recovered_records, 1);
//! # drop(tier);
//! # std::fs::remove_file(&path).unwrap();
//! ```

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use bi_util::{Crc32, Xxh64BuildHasher};

/// Frame header: `key_len`, `val_len`, `crc32`.
const HEADER_LEN: u64 = 12;

/// Sizing and back-pressure of a [`DiskTier`].
#[derive(Clone, Copy, Debug)]
pub struct DiskTierConfig {
    /// Bound of the write-behind queue; when full, appends are dropped
    /// (and counted) instead of blocking the hot path.
    pub queue_capacity: usize,
}

impl Default for DiskTierConfig {
    /// A 4096-append queue.
    fn default() -> Self {
        DiskTierConfig {
            queue_capacity: 4096,
        }
    }
}

/// A point-in-time snapshot of the disk tier, reported by `GET /metrics`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiskTierStats {
    /// Whole records recovered by the boot scan.
    pub recovered_records: u64,
    /// Torn-tail bytes truncated by the boot scan (0 on a clean log).
    pub truncated_bytes: u64,
    /// `get` calls answered from disk.
    pub hits: u64,
    /// `get` calls that found no entry.
    pub misses: u64,
    /// Frames written since boot. An append of a key already indexed
    /// writes nothing and is not counted.
    pub appends: u64,
    /// Appends dropped because the write-behind queue was full.
    pub dropped_appends: u64,
    /// Current on-disk log size in bytes.
    pub log_bytes: u64,
    /// Distinct keys currently indexed.
    pub entries: usize,
}

/// Where a value lives in the log.
#[derive(Clone, Copy, Debug)]
struct ValueLoc {
    offset: u64,
    len: u32,
}

/// Counters shared between the tier handle and its writer thread.
#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    appends: AtomicU64,
    dropped_appends: AtomicU64,
    log_bytes: AtomicU64,
}

/// Key bytes → value location; rebuilt by the boot scan, extended by
/// the writer thread as appends land.
type Index = HashMap<Arc<[u8]>, ValueLoc, Xxh64BuildHasher>;

/// One message to the write-behind thread.
enum WriteMsg {
    /// Append `key → value` to the log.
    Append(Vec<u8>, Arc<[u8]>),
    /// Flush everything queued so far and ack.
    Barrier(SyncSender<()>),
}

/// The disk-backed cache tier. Cheap to share behind an `Arc`; dropping
/// the last handle flushes and joins the writer thread.
pub struct DiskTier {
    index: Arc<Mutex<Index>>,
    /// Read handle for positioned reads; never swapped, so it needs no
    /// lock.
    reader: File,
    tx: Option<SyncSender<WriteMsg>>,
    writer: Option<JoinHandle<()>>,
    counters: Arc<Counters>,
    recovered_records: u64,
    truncated_bytes: u64,
    path: PathBuf,
}

impl DiskTier {
    /// Opens (or creates) the log at `path`, scanning it to rebuild the
    /// in-memory index. A torn tail — from a crash mid-append — is
    /// truncated, not fatal; every complete record is recovered.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures (open, scan read, truncate).
    pub fn open(path: impl AsRef<Path>, config: DiskTierConfig) -> io::Result<DiskTier> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let (index, end, recovered, file_len) = scan_log(&mut file)?;
        let truncated = file_len - end;
        if truncated > 0 {
            file.set_len(end)?;
        }
        let out = BufWriter::new(OpenOptions::new().append(true).open(&path)?);
        let index = Arc::new(Mutex::new(index));
        let counters = Arc::new(Counters::default());
        counters.log_bytes.store(end, Ordering::Relaxed);
        let (tx, rx) = sync_channel(config.queue_capacity.max(1));
        let writer = {
            let index = Arc::clone(&index);
            let counters = Arc::clone(&counters);
            std::thread::spawn(move || writer_loop(&rx, out, end, &index, &counters))
        };
        Ok(DiskTier {
            index,
            reader: file,
            tx: Some(tx),
            writer: Some(writer),
            counters,
            recovered_records: recovered,
            truncated_bytes: truncated,
            path,
        })
    }

    /// The log path this tier persists to.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Looks up `key`, reading the value bytes back off the log.
    /// Returns `None` when the key was never durably appended (including
    /// appends still queued behind the write-behind channel).
    #[must_use]
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        // The writer indexes a frame only after writing it, so an offset
        // found here is already readable.
        let loc = self
            .index
            .lock()
            .expect("disk index poisoned")
            .get(key)
            .copied();
        let value = loc.and_then(|loc| {
            let mut value = vec![0u8; loc.len as usize];
            // An indexed record must be readable; treat I/O decay as a
            // miss rather than serving partial bytes.
            self.reader.read_exact_at(&mut value, loc.offset).ok()?;
            Some(value)
        });
        let counter = if value.is_some() {
            &self.counters.hits
        } else {
            &self.counters.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        value
    }

    /// Queues `key → value` for appending. Never blocks: when the
    /// write-behind queue is full the append is dropped and counted —
    /// the disk tier is an optimization, not a durability contract. A
    /// key already on disk keeps its first value.
    pub fn append(&self, key: &[u8], value: &[u8]) {
        self.append_shared(key, Arc::from(value));
    }

    /// [`DiskTier::append`] taking the value as the shared `Arc` the
    /// cache already holds, avoiding a copy on the hot path.
    pub fn append_shared(&self, key: &[u8], value: Arc<[u8]>) {
        let Some(tx) = &self.tx else { return };
        match tx.try_send(WriteMsg::Append(key.to_vec(), value)) {
            Ok(()) => {}
            Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => {
                self.counters
                    .dropped_appends
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Blocks until every append queued before this call is durably on
    /// disk and indexed (tests and orderly shutdown; the serving path
    /// never calls this).
    pub fn sync(&self) {
        let Some(tx) = &self.tx else { return };
        let (ack_tx, ack_rx) = sync_channel(1);
        if tx.send(WriteMsg::Barrier(ack_tx)).is_ok() {
            let _ = ack_rx.recv();
        }
    }

    /// A point-in-time effectiveness snapshot.
    #[must_use]
    pub fn stats(&self) -> DiskTierStats {
        DiskTierStats {
            recovered_records: self.recovered_records,
            truncated_bytes: self.truncated_bytes,
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            appends: self.counters.appends.load(Ordering::Relaxed),
            dropped_appends: self.counters.dropped_appends.load(Ordering::Relaxed),
            log_bytes: self.counters.log_bytes.load(Ordering::Relaxed),
            entries: self.index.lock().expect("disk index poisoned").len(),
        }
    }
}

impl Drop for DiskTier {
    fn drop(&mut self) {
        drop(self.tx.take()); // disconnects the writer's recv
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
    }
}

/// Scans the log from the start, returning the rebuilt index (first
/// frame of each key), the byte offset of the last whole record's end,
/// the record count, and the file length. Stops (without error) at the
/// first torn or CRC-invalid frame.
fn scan_log(file: &mut File) -> io::Result<(Index, u64, u64, u64)> {
    let file_len = file.seek(SeekFrom::End(0))?;
    file.seek(SeekFrom::Start(0))?;
    let mut reader = io::BufReader::new(&mut *file);
    let mut index = Index::with_hasher(Xxh64BuildHasher);
    let mut pos = 0u64;
    let mut recovered = 0u64;
    loop {
        if file_len - pos < HEADER_LEN {
            break; // torn or empty header
        }
        let mut header = [0u8; HEADER_LEN as usize];
        reader.read_exact(&mut header)?;
        let key_len = u64::from(u32::from_le_bytes(
            header[0..4].try_into().expect("4 bytes"),
        ));
        let val_len = u64::from(u32::from_le_bytes(
            header[4..8].try_into().expect("4 bytes"),
        ));
        let crc = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        let payload = key_len + val_len;
        if file_len - pos - HEADER_LEN < payload {
            break; // torn payload (or a garbage length field — same thing)
        }
        let mut key = vec![0u8; key_len as usize];
        reader.read_exact(&mut key)?;
        let mut val = vec![0u8; val_len as usize];
        reader.read_exact(&mut val)?;
        let mut acc = Crc32::new();
        acc.update(&key);
        acc.update(&val);
        if acc.finish() != crc {
            break; // corrupt frame: treat as the new end of log
        }
        // First write wins, as in the writer.
        index.entry(Arc::from(key)).or_insert(ValueLoc {
            offset: pos + HEADER_LEN + key_len,
            len: u32::try_from(val_len).expect("val_len came from a u32"),
        });
        recovered += 1;
        pos += HEADER_LEN + payload;
    }
    Ok((index, pos, recovered, file_len))
}

/// The write-behind thread: frames and appends each record whose key is
/// not yet indexed, indexing it once it (and everything before it) is
/// flushed. `end` is the log's current length.
fn writer_loop(
    rx: &Receiver<WriteMsg>,
    mut out: BufWriter<File>,
    mut end: u64,
    index: &Mutex<Index>,
    counters: &Counters,
) {
    while let Ok(msg) = rx.recv() {
        match msg {
            WriteMsg::Append(key, value) => {
                // Write-once. Only this thread inserts, so a key absent
                // here stays absent until the insert below.
                if index
                    .lock()
                    .expect("disk index poisoned")
                    .contains_key(key.as_slice())
                {
                    continue;
                }
                let Some(header) = frame_header(&key, &value) else {
                    counters.dropped_appends.fetch_add(1, Ordering::Relaxed);
                    continue; // a >4 GiB frame cannot be framed; skip it
                };
                let write = out
                    .write_all(&header)
                    .and_then(|()| out.write_all(&key))
                    .and_then(|()| out.write_all(&value))
                    .and_then(|()| out.flush());
                if write.is_err() {
                    // The log is now suspect past `end`; stop appending
                    // (boot-scan truncation repairs the tail) but keep
                    // draining so the hot path's try_send never sees a
                    // dropped receiver mid-run.
                    counters.dropped_appends.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                let loc = ValueLoc {
                    offset: end + HEADER_LEN + key.len() as u64,
                    len: value.len() as u32,
                };
                end = loc.offset + u64::from(loc.len);
                index
                    .lock()
                    .expect("disk index poisoned")
                    .insert(Arc::from(key), loc);
                counters.appends.fetch_add(1, Ordering::Relaxed);
                counters.log_bytes.store(end, Ordering::Relaxed);
            }
            WriteMsg::Barrier(ack) => {
                let _ = out.flush();
                let _ = ack.try_send(());
            }
        }
    }
    let _ = out.flush();
}

/// The header of a `key → value` frame, or `None` when either length
/// does not fit its `u32` field.
fn frame_header(key: &[u8], value: &[u8]) -> Option<[u8; HEADER_LEN as usize]> {
    let key_len = u32::try_from(key.len()).ok()?;
    let val_len = u32::try_from(value.len()).ok()?;
    let mut acc = Crc32::new();
    acc.update(key);
    acc.update(value);
    let mut header = [0u8; HEADER_LEN as usize];
    header[0..4].copy_from_slice(&key_len.to_le_bytes());
    header[4..8].copy_from_slice(&val_len.to_le_bytes());
    header[8..12].copy_from_slice(&acc.finish().to_le_bytes());
    Some(header)
}

/// A CRC-framed record as [`DiskTier`] writes it — exposed so tests can
/// author and dissect log files byte-exactly.
#[must_use]
pub fn frame_record(key: &[u8], value: &[u8]) -> Vec<u8> {
    let header = frame_header(key, value).expect("test records fit u32 lengths");
    [&header[..], key, value].concat()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn temp_log(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("bi-persist-{}-{tag}-{n}.log", std::process::id()))
    }

    #[test]
    fn appends_survive_a_reopen() {
        let path = temp_log("reopen");
        {
            let tier = DiskTier::open(&path, DiskTierConfig::default()).unwrap();
            tier.append(b"k1", b"v1");
            tier.append(b"k2", b"v2-longer");
            tier.sync();
            assert_eq!(tier.get(b"k1").as_deref(), Some(&b"v1"[..]));
            let stats = tier.stats();
            assert_eq!(stats.appends, 2);
            assert_eq!(stats.entries, 2);
            assert_eq!(stats.recovered_records, 0);
        }
        let tier = DiskTier::open(&path, DiskTierConfig::default()).unwrap();
        let stats = tier.stats();
        assert_eq!(stats.recovered_records, 2);
        assert_eq!(stats.truncated_bytes, 0);
        assert_eq!(tier.get(b"k1").as_deref(), Some(&b"v1"[..]));
        assert_eq!(tier.get(b"k2").as_deref(), Some(&b"v2-longer"[..]));
        assert_eq!(tier.get(b"k3"), None);
        assert_eq!(tier.stats().hits, 2);
        assert_eq!(tier.stats().misses, 1);
        drop(tier);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn re_appended_keys_keep_the_first_value() {
        let path = temp_log("rewrite");
        {
            let tier = DiskTier::open(&path, DiskTierConfig::default()).unwrap();
            tier.append(b"k", b"first");
            tier.append(b"k", b"second");
            tier.sync();
            assert_eq!(tier.get(b"k").as_deref(), Some(&b"first"[..]));
            assert_eq!(tier.stats().appends, 1, "the second append writes nothing");
        }
        let tier = DiskTier::open(&path, DiskTierConfig::default()).unwrap();
        assert_eq!(tier.get(b"k").as_deref(), Some(&b"first"[..]));
        assert_eq!(tier.stats().recovered_records, 1, "one frame on disk");
        assert_eq!(tier.stats().entries, 1, "one key");
        tier.append(b"k", b"third");
        tier.sync();
        assert_eq!(tier.get(b"k").as_deref(), Some(&b"first"[..]));
        assert_eq!(
            tier.stats().appends,
            0,
            "a recovered key is never rewritten"
        );
        drop(tier);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_middle_frame_truncates_everything_after_it() {
        let path = temp_log("corrupt");
        let mut log = Vec::new();
        log.extend_from_slice(&frame_record(b"a", b"1"));
        let corrupt_at = log.len() + HEADER_LEN as usize; // first key byte of frame 2
        log.extend_from_slice(&frame_record(b"b", b"2"));
        log.extend_from_slice(&frame_record(b"c", b"3"));
        log[corrupt_at] ^= 0xFF;
        std::fs::write(&path, &log).unwrap();
        let tier = DiskTier::open(&path, DiskTierConfig::default()).unwrap();
        let stats = tier.stats();
        // The CRC failure on frame 2 ends the log there; frame 3 is
        // unreachable (the log is append-only, so bytes after a corrupt
        // frame have no trustworthy framing).
        assert_eq!(stats.recovered_records, 1);
        assert!(stats.truncated_bytes > 0);
        assert_eq!(tier.get(b"a").as_deref(), Some(&b"1"[..]));
        assert_eq!(tier.get(b"b"), None);
        drop(tier);
        // The truncation is durable: a re-open sees a clean short log.
        let tier = DiskTier::open(&path, DiskTierConfig::default()).unwrap();
        assert_eq!(tier.stats().truncated_bytes, 0);
        assert_eq!(tier.stats().recovered_records, 1);
        drop(tier);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn appends_resume_cleanly_after_a_torn_tail() {
        let path = temp_log("resume");
        let mut log = Vec::new();
        log.extend_from_slice(&frame_record(b"a", b"1"));
        log.extend_from_slice(&frame_record(b"b", b"2"));
        log.truncate(log.len() - 1); // torn tail
        std::fs::write(&path, &log).unwrap();
        {
            let tier = DiskTier::open(&path, DiskTierConfig::default()).unwrap();
            assert_eq!(tier.stats().recovered_records, 1);
            tier.append(b"c", b"3");
            tier.sync();
            assert_eq!(tier.get(b"c").as_deref(), Some(&b"3"[..]));
        }
        let tier = DiskTier::open(&path, DiskTierConfig::default()).unwrap();
        assert_eq!(tier.stats().recovered_records, 2);
        assert_eq!(tier.get(b"a").as_deref(), Some(&b"1"[..]));
        assert_eq!(tier.get(b"b"), None, "the torn record stays gone");
        assert_eq!(tier.get(b"c").as_deref(), Some(&b"3"[..]));
        drop(tier);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn re_appends_never_grow_the_log() {
        let path = temp_log("write-once");
        // 8 distinct keys, each appended in 8 versions: one frame per key.
        let (keys, versions) = (8u8, 8u8);
        let frame = |k: u8| frame_record(&[b'k', k], &[k; 100]).len() as u64;
        {
            let tier = DiskTier::open(&path, DiskTierConfig::default()).unwrap();
            for round in 0..versions {
                for k in 0..keys {
                    tier.append(&[b'k', k], &[k + round * keys; 100]);
                }
            }
            tier.sync();
            let stats = tier.stats();
            assert_eq!(stats.appends, u64::from(keys));
            assert_eq!(stats.entries, usize::from(keys));
            assert_eq!(stats.log_bytes, (0..keys).map(frame).sum::<u64>());
            assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                stats.log_bytes,
                "the file holds exactly the counted frames"
            );
        }
        let tier = DiskTier::open(&path, DiskTierConfig::default()).unwrap();
        let stats = tier.stats();
        assert_eq!(stats.recovered_records, u64::from(keys));
        assert_eq!(stats.truncated_bytes, 0);
        assert_eq!(stats.log_bytes, (0..keys).map(frame).sum::<u64>());
        for k in 0..keys {
            assert_eq!(tier.get(&[b'k', k]).as_deref(), Some(&[k; 100][..]));
        }
        drop(tier);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn readers_see_byte_identical_values_while_the_writer_appends() {
        let path = temp_log("concurrent");
        let tier = DiskTier::open(&path, DiskTierConfig::default()).unwrap();
        let value = |k: u32| -> Vec<u8> {
            let len = 1 + (k as usize * 37) % 700;
            (0..len).map(|i| (k as usize + i) as u8).collect()
        };
        let keys = 400u32;
        // Every key below `synced` is durably appended and indexed.
        let synced = AtomicU32::new(0);
        std::thread::scope(|scope| {
            for reader in 0..4u32 {
                let (tier, value, synced) = (&tier, &value, &synced);
                // Readers keep racing each other for a while after the
                // last append, so concurrent reads are exercised even
                // when the writer finishes first.
                scope.spawn(move || {
                    for pass in 0.. {
                        let upto = synced.load(Ordering::Acquire);
                        for k in (reader..keys).step_by(2) {
                            match tier.get(&k.to_le_bytes()) {
                                Some(got) => assert_eq!(got, value(k), "key {k} read torn"),
                                None => assert!(k >= upto, "synced key {k} not found"),
                            }
                        }
                        if upto == keys && pass >= 50 {
                            break;
                        }
                    }
                });
            }
            for k in 0..keys {
                tier.append(&k.to_le_bytes(), &value(k));
                if (k + 1) % 50 == 0 {
                    tier.sync();
                    synced.store(k + 1, Ordering::Release);
                }
            }
        });
        assert_eq!(tier.stats().appends, u64::from(keys));
        for k in 0..keys {
            assert_eq!(tier.get(&k.to_le_bytes()), Some(value(k)));
        }
        drop(tier);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn garbage_length_fields_are_a_torn_tail_not_an_allocation() {
        let path = temp_log("garbage");
        let mut log = frame_record(b"a", b"1");
        // A header claiming a 3 GiB payload that isn't there: must be
        // treated as torn (no allocation of the claimed size).
        log.extend_from_slice(&0xC000_0000u32.to_le_bytes());
        log.extend_from_slice(&0xC000_0000u32.to_le_bytes());
        log.extend_from_slice(&0u32.to_le_bytes());
        std::fs::write(&path, &log).unwrap();
        let tier = DiskTier::open(&path, DiskTierConfig::default()).unwrap();
        assert_eq!(tier.stats().recovered_records, 1);
        assert_eq!(tier.get(b"a").as_deref(), Some(&b"1"[..]));
        drop(tier);
        std::fs::remove_file(&path).unwrap();
    }
}

//! Service counters and the per-stage latency histograms, surfaced as
//! JSON by `GET /metrics`.
//!
//! The histogram types live in [`bi_obs::hist`] (the router shares
//! them); this module owns the counter set and the `GET /metrics`
//! document shape.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use bi_obs::{Recorder, Stage, StageTimings, TraceCtx};
use bi_util::Json;

use crate::cache::CacheStats;
use crate::persist::DiskTierStats;

/// Monotonic counters of the serving layer. All relaxed atomics — the
/// numbers are observability, not synchronization.
#[derive(Debug)]
pub struct ServiceMetrics {
    /// Requests fully parsed and routed (any endpoint).
    pub requests_total: AtomicU64,
    /// `POST /solve` requests routed.
    pub solve_requests: AtomicU64,
    /// `POST /solve_batch` requests routed.
    pub batch_requests: AtomicU64,
    /// Individual games solved by the engine (cache misses, including
    /// every game of a batch that missed).
    pub solves_computed: AtomicU64,
    /// Computed reports that broke Observation 2.2's chain
    /// (`optC ≤ optP ≤ best-eqP ≤ worst-eqP`): answered `500` and never
    /// cached. Nonzero means the engine is wrong.
    pub chain_violations: AtomicU64,
    /// Dispatches and pool jobs that panicked: each was answered `500`
    /// and the server kept serving.
    pub handler_panics: AtomicU64,
    /// Responses installed via `POST /cache_put` — replication
    /// write-throughs and read-repairs shipped by a router peer; each is
    /// a solve this node never had to run.
    pub cache_puts: AtomicU64,
    /// Responses with 2xx status.
    pub responses_2xx: AtomicU64,
    /// Responses with 4xx status (decode/validation failures).
    pub responses_4xx: AtomicU64,
    /// Responses with 5xx status, excluding queue rejections.
    pub responses_5xx: AtomicU64,
    /// Connections answered `503` because the request queue was full.
    pub rejected_busy: AtomicU64,
    /// Requests answered `429` because the pending-solve queue was full
    /// (backpressure, not failure — the client should retry).
    pub backpressure_429: AtomicU64,
    /// Connections accepted.
    pub connections_total: AtomicU64,
    /// Connections currently open (a gauge, reactor-owned).
    pub open_connections: AtomicU64,
    /// Reactor poll returns that reported at least one ready fd.
    pub reactor_wakeups: AtomicU64,
    /// `POST /solve` cache hits served straight off the raw-byte index —
    /// no JSON value tree was built.
    pub zero_copy_hits: AtomicU64,
    /// `POST /solve` cache hits that went through the decode path (body
    /// non-canonical, or first sighting of these exact bytes).
    pub parsed_hits: AtomicU64,
    /// Solve jobs currently inside the solver pool (a gauge) — together
    /// with `cfg_queue_capacity`, it shows an operator how close a node
    /// is to shedding load.
    pub solves_in_flight: AtomicU64,
    /// Configured pending-solve queue bound (a gauge, set at start).
    pub cfg_queue_capacity: AtomicU64,
    /// Configured idle keep-alive timeout in ms (a gauge, set at start).
    pub cfg_idle_timeout_ms: AtomicU64,
    /// Resolved solver-pool size (a gauge, set at start).
    pub cfg_workers: AtomicU64,
    /// Configured connection cap (a gauge, set at start).
    pub cfg_max_connections: AtomicU64,
    /// Per-pipeline-stage latency histograms (parse, cache, solve,
    /// encode, write, disk_promote, …) — recorded on every request
    /// whether or not its spans are still in the flight recorder, and
    /// surfaced under `"stages"`. The `solve` stage takes one sample per
    /// cold engine invocation (a `POST /solve` cache miss or one game of
    /// a batch that missed), whether or not the solve succeeded: it is
    /// the cold-path histogram.
    pub stages: StageTimings,
    start: Instant,
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        ServiceMetrics {
            requests_total: AtomicU64::new(0),
            solve_requests: AtomicU64::new(0),
            batch_requests: AtomicU64::new(0),
            solves_computed: AtomicU64::new(0),
            chain_violations: AtomicU64::new(0),
            handler_panics: AtomicU64::new(0),
            cache_puts: AtomicU64::new(0),
            responses_2xx: AtomicU64::new(0),
            responses_4xx: AtomicU64::new(0),
            responses_5xx: AtomicU64::new(0),
            rejected_busy: AtomicU64::new(0),
            backpressure_429: AtomicU64::new(0),
            connections_total: AtomicU64::new(0),
            open_connections: AtomicU64::new(0),
            reactor_wakeups: AtomicU64::new(0),
            zero_copy_hits: AtomicU64::new(0),
            parsed_hits: AtomicU64::new(0),
            solves_in_flight: AtomicU64::new(0),
            cfg_queue_capacity: AtomicU64::new(0),
            cfg_idle_timeout_ms: AtomicU64::new(0),
            cfg_workers: AtomicU64::new(0),
            cfg_max_connections: AtomicU64::new(0),
            stages: StageTimings::default(),
            start: Instant::now(),
        }
    }
}

impl ServiceMetrics {
    /// Bumps the status-class counter for a response.
    pub fn record_status(&self, status: u16) {
        let counter = match status {
            200..=299 => &self.responses_2xx,
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Closes one pipeline stage begun at `t0` on `recorder`'s clock:
    /// feeds the per-stage histogram always, and records a span when the
    /// request is traced.
    pub fn finish_stage(&self, recorder: &Recorder, ctx: TraceCtx, stage: Stage, t0: u64) {
        let t1 = recorder.now_ns();
        self.stages.record(stage, t1.saturating_sub(t0) / 1_000);
        if ctx.active() {
            recorder.record(ctx.trace_id, ctx.parent, stage, t0, t1);
        }
    }

    /// Sets the start-time configuration gauges the document reports
    /// under `config`, so a scrape shows the limits the counters are
    /// measured against.
    pub fn set_config_gauges(
        &self,
        queue_capacity: usize,
        idle_timeout_ms: u64,
        workers: usize,
        max_connections: usize,
    ) {
        let store = |g: &AtomicU64, v: u64| g.store(v, Ordering::Relaxed);
        store(&self.cfg_queue_capacity, queue_capacity as u64);
        store(&self.cfg_idle_timeout_ms, idle_timeout_ms);
        store(&self.cfg_workers, workers as u64);
        store(&self.cfg_max_connections, max_connections as u64);
    }

    /// The `GET /metrics` document: service counters, the primary
    /// cache's snapshot (`cache`), the raw-byte index's (`raw_index`,
    /// where every zero-copy hit is counted), and (when the node has
    /// one) the disk tier's.
    #[must_use]
    pub fn to_json(
        &self,
        cache: CacheStats,
        raw_index: CacheStats,
        disk: Option<DiskTierStats>,
    ) -> Json {
        let cache_json = |stats: CacheStats| {
            Json::Obj(vec![
                ("hits".into(), Json::from_u64(stats.hits)),
                ("misses".into(), Json::from_u64(stats.misses)),
                ("insertions".into(), Json::from_u64(stats.insertions)),
                ("evictions".into(), Json::from_u64(stats.evictions)),
                ("entries".into(), Json::num(stats.entries as f64)),
                ("capacity".into(), Json::num(stats.capacity as f64)),
            ])
        };
        let count = |c: &AtomicU64| Json::from_u64(c.load(Ordering::Relaxed));
        let mut doc = vec![
            (
                "uptime_seconds".into(),
                Json::num(self.start.elapsed().as_secs_f64()),
            ),
            ("connections_total".into(), count(&self.connections_total)),
            ("requests_total".into(), count(&self.requests_total)),
            ("solve_requests".into(), count(&self.solve_requests)),
            ("batch_requests".into(), count(&self.batch_requests)),
            ("solves_computed".into(), count(&self.solves_computed)),
            ("chain_violations".into(), count(&self.chain_violations)),
            ("handler_panics".into(), count(&self.handler_panics)),
            ("cache_puts".into(), count(&self.cache_puts)),
            ("responses_2xx".into(), count(&self.responses_2xx)),
            ("responses_4xx".into(), count(&self.responses_4xx)),
            ("responses_5xx".into(), count(&self.responses_5xx)),
            ("rejected_busy".into(), count(&self.rejected_busy)),
            (
                "config".into(),
                Json::Obj(vec![
                    ("queue_capacity".into(), count(&self.cfg_queue_capacity)),
                    ("idle_timeout_ms".into(), count(&self.cfg_idle_timeout_ms)),
                    ("workers".into(), count(&self.cfg_workers)),
                    ("max_connections".into(), count(&self.cfg_max_connections)),
                ]),
            ),
            (
                "reactor".into(),
                Json::Obj(vec![
                    ("open_connections".into(), count(&self.open_connections)),
                    ("wakeups".into(), count(&self.reactor_wakeups)),
                    ("zero_copy_hits".into(), count(&self.zero_copy_hits)),
                    ("parsed_hits".into(), count(&self.parsed_hits)),
                    ("backpressure_429".into(), count(&self.backpressure_429)),
                    ("solves_in_flight".into(), count(&self.solves_in_flight)),
                ]),
            ),
            ("stages".into(), self.stages.to_json()),
            ("cache".into(), cache_json(cache)),
            ("raw_index".into(), cache_json(raw_index)),
        ];
        if let Some(disk) = disk {
            doc.push((
                "disk".into(),
                Json::Obj(vec![
                    (
                        "recovered_records".into(),
                        Json::from_u64(disk.recovered_records),
                    ),
                    (
                        "truncated_bytes".into(),
                        Json::from_u64(disk.truncated_bytes),
                    ),
                    ("hits".into(), Json::from_u64(disk.hits)),
                    ("misses".into(), Json::from_u64(disk.misses)),
                    ("appends".into(), Json::from_u64(disk.appends)),
                    (
                        "dropped_appends".into(),
                        Json::from_u64(disk.dropped_appends),
                    ),
                    ("log_bytes".into(), Json::from_u64(disk.log_bytes)),
                    ("entries".into(), Json::num(disk.entries as f64)),
                ]),
            ));
        }
        Json::Obj(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_classes_are_counted() {
        let m = ServiceMetrics::default();
        m.record_status(200);
        m.record_status(204);
        m.record_status(404);
        m.record_status(503);
        assert_eq!(m.responses_2xx.load(Ordering::Relaxed), 2);
        assert_eq!(m.responses_4xx.load(Ordering::Relaxed), 1);
        assert_eq!(m.responses_5xx.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn histogram_buckets_and_percentiles() {
        let h = bi_obs::LatencyHistogram::default();
        assert_eq!(h.percentile_us(0.5), 0);
        // 90 fast samples in [64, 128) µs, 10 slow ones in [8192, 16384).
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(10_000);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.percentile_us(0.50), 127);
        assert_eq!(h.percentile_us(0.90), 127);
        assert_eq!(h.percentile_us(0.99), 16_383);
        // Zero and huge samples clamp into the terminal buckets.
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 102);
        let doc = h.to_json();
        assert_eq!(doc.get("count").unwrap().as_u64(), Some(102));
        assert!(doc.get("p99").is_some());
    }

    #[test]
    fn metrics_document_includes_solve_histogram() {
        let m = ServiceMetrics::default();
        m.stages.record(bi_obs::Stage::Solve, 300);
        let doc = m.to_json(
            CacheStats {
                hits: 0,
                misses: 0,
                insertions: 0,
                evictions: 0,
                entries: 0,
                capacity: 64,
            },
            CacheStats::default(),
            None,
        );
        assert!(doc.get("solve_us").is_none(), "one solve histogram");
        let solve = doc.get("stages").unwrap().get("solve").unwrap();
        assert_eq!(solve.get("count").unwrap().as_u64(), Some(1));
        assert_eq!(solve.get("p50").unwrap().as_u64(), Some(511));
    }

    #[test]
    fn metrics_document_includes_every_stage_histogram() {
        use bi_obs::Stage;
        let m = ServiceMetrics::default();
        m.stages.record(Stage::Parse, 2);
        m.stages.record(Stage::Write, 5);
        let doc = m.to_json(CacheStats::default(), CacheStats::default(), None);
        let stages = doc.get("stages").unwrap();
        for stage in Stage::ALL {
            assert!(
                stages.get(stage.name()).is_some(),
                "stage {} missing from /metrics",
                stage.name()
            );
        }
        assert_eq!(
            stages.get("parse").unwrap().get("count").unwrap().as_u64(),
            Some(1)
        );
    }

    #[test]
    fn metrics_document_includes_reactor_counters() {
        let m = ServiceMetrics::default();
        m.zero_copy_hits.fetch_add(7, Ordering::Relaxed);
        m.open_connections.fetch_add(3, Ordering::Relaxed);
        m.backpressure_429.fetch_add(1, Ordering::Relaxed);
        let doc = m.to_json(CacheStats::default(), CacheStats::default(), None);
        let reactor = doc.get("reactor").unwrap();
        assert_eq!(reactor.get("zero_copy_hits").unwrap().as_u64(), Some(7));
        assert_eq!(reactor.get("parsed_hits").unwrap().as_u64(), Some(0));
        assert_eq!(reactor.get("open_connections").unwrap().as_u64(), Some(3));
        assert_eq!(reactor.get("backpressure_429").unwrap().as_u64(), Some(1));
        assert_eq!(reactor.get("wakeups").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn metrics_document_includes_cache_stats() {
        let m = ServiceMetrics::default();
        m.requests_total.fetch_add(3, Ordering::Relaxed);
        let doc = m.to_json(
            CacheStats {
                hits: 5,
                misses: 2,
                insertions: 2,
                evictions: 1,
                entries: 1,
                capacity: 64,
            },
            CacheStats::default(),
            None,
        );
        assert_eq!(doc.get("requests_total").unwrap().as_u64(), Some(3));
        let cache = doc.get("cache").unwrap();
        assert_eq!(cache.get("hits").unwrap().as_u64(), Some(5));
        assert_eq!(cache.get("capacity").unwrap().as_usize(), Some(64));
    }
}

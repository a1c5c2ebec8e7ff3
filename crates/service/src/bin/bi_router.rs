//! `bi-router` — the consistent-hash cluster front door.
//!
//! Routes `POST /solve` and `POST /solve_batch` across a fleet of
//! `bi-serve` backends by the canonical cache key, so every distinct
//! game lands on exactly one backend's cache. Dead backends are
//! ejected by a health prober (and by forwarding failures) and their
//! arc of the key space fails over clockwise; the rest of the ring is
//! untouched. A batch is routed game by game, each game exactly as if
//! it were sent alone: retried, failed over, written through to its
//! replicas and read-repaired. The router never solves: once retries
//! run out it returns the last backend answer (a `429` stays a `429`),
//! and a request that finds no live backend is answered `503`.
//!
//! ```text
//! bi-router --addr 127.0.0.1:0 \
//!           --backends 127.0.0.1:4101,127.0.0.1:4102,127.0.0.1:4103 \
//!           --replication 2
//! ```
//!
//! The ring's 64 virtual nodes per backend, the 30 s deadline budget of
//! a request, the 10 ms first retry backoff and the 10 s idle timeout of
//! a client connection are fixed; only the flags below are settings.
//!
//! Endpoints: `POST /solve`, `POST /solve_batch`, `GET /metrics`
//! (router + per-backend counters), `GET /healthz`, `GET /debug/trace`.
//!
//! Diagnostics go to stderr as JSON lines (`bi_obs::log`, level filter
//! via `BI_LOG`); the only stdout line is the machine-readable
//! `listening on` address that CI and the load generator parse.

use std::io::Write;
use std::process::exit;
use std::time::Duration;

use bi_obs::log as olog;
use bi_service::{Router, RouterConfig};
use bi_util::Json;

const USAGE: &str = "\
bi-router — consistent-hash router over a bi-serve fleet

USAGE: bi-router --backends HOST:PORT,... [OPTIONS]

OPTIONS:
  --addr HOST:PORT      bind address (default 127.0.0.1:0 = ephemeral port)
  --backends LIST       comma-separated bi-serve addresses (required)
  --probe-ms N          health-probe sweep interval in ms (default 500)
  --fail-threshold N    consecutive failures before eject (default 2)
  --replication N       replica owners per key: solved results are written
                        through to all N owners and dead owners are
                        read-repaired when they return (default 1)
  --retry-rounds N      retry rounds across live replicas per request
                        (default 3)
  --backoff-max-ms N    ceiling of the retry backoff, which starts at 10 ms
                        and doubles per round with jitter (default 500)
  --trace-slow-us N     log the span tree of any request slower than N µs
                        (default: off)
  --help                print this help
";

fn parse_args() -> Result<RouterConfig, String> {
    let mut config = RouterConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--help" {
            print!("{USAGE}");
            exit(0);
        }
        let value = args
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--addr" => config.addr = value,
            "--backends" => {
                config.backends = value
                    .split(',')
                    .map(str::trim)
                    .filter(|a| !a.is_empty())
                    .map(String::from)
                    .collect();
            }
            "--probe-ms" => {
                config.probe_interval = Duration::from_millis(parse_num(&flag, &value)? as u64);
            }
            "--fail-threshold" => {
                config.fail_threshold = parse_num(&flag, &value)?.max(1) as u32;
            }
            "--replication" => config.replication = parse_num(&flag, &value)?.max(1),
            "--retry-rounds" => {
                config.max_retry_rounds = parse_num(&flag, &value)?.max(1) as u32;
            }
            "--backoff-max-ms" => {
                config.retry_max_backoff = Duration::from_millis(parse_num(&flag, &value)? as u64);
            }
            "--trace-slow-us" => {
                config.trace_slow_us = Some(parse_num(&flag, &value)? as u64);
            }
            other => return Err(format!("unknown flag {other} (see --help)")),
        }
    }
    if config.backends.is_empty() {
        return Err("at least one --backends address is required".into());
    }
    Ok(config)
}

fn parse_num(flag: &str, value: &str) -> Result<usize, String> {
    value
        .parse()
        .map_err(|_| format!("flag {flag} needs a non-negative integer, got `{value}`"))
}

fn main() {
    let config = match parse_args() {
        Ok(config) => config,
        Err(msg) => {
            olog::error("bi-router", "bad arguments", &[("detail", Json::str(msg))]);
            exit(2);
        }
    };
    olog::info(
        "bi-router",
        "starting",
        &[
            ("backends", Json::str(config.backends.join(","))),
            (
                "probe_ms",
                Json::from_u64(config.probe_interval.as_millis() as u64),
            ),
            (
                "fail_threshold",
                Json::from_u64(u64::from(config.fail_threshold)),
            ),
            ("replication", Json::from_u64(config.replication as u64)),
            (
                "retry_rounds",
                Json::from_u64(u64::from(config.max_retry_rounds)),
            ),
            (
                "trace_slow_us",
                config.trace_slow_us.map_or(Json::Null, Json::from_u64),
            ),
        ],
    );
    let router = match Router::bind(config) {
        Ok(router) => router,
        Err(e) => {
            olog::error(
                "bi-router",
                "bind failed",
                &[("error", Json::str(e.to_string()))],
            );
            exit(1);
        }
    };
    let addr = router.local_addr().expect("bound listener has an address");
    // The machine-readable line: CI and the load generator parse it to
    // discover ephemeral ports.
    println!("bi-router listening on {addr}");
    std::io::stdout().flush().expect("stdout flush");
    if let Err(e) = router.run() {
        olog::error(
            "bi-router",
            "serving failed",
            &[("error", Json::str(e.to_string()))],
        );
        exit(1);
    }
}

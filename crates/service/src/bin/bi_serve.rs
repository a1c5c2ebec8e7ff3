//! `bi-serve` — the solve server binary.
//!
//! Binds a TCP listener, prints the bound address (parse the
//! `listening on` line for ephemeral ports), and serves forever. One
//! reactor thread multiplexes every connection; `--workers` sizes the
//! solver pool that only cold cache misses cross into:
//!
//! ```text
//! bi-serve --addr 127.0.0.1:0 --workers 4 --queue 256 \
//!          --max-connections 8192 --cache-capacity 4096 --cache-shards 16
//! ```
//!
//! Endpoints: `POST /solve`, `POST /solve_batch`, `GET /metrics`,
//! `GET /healthz`, `GET /debug/trace` — see the `bi_service::server`
//! docs for wire formats.
//!
//! Diagnostics go to stderr as JSON lines (`bi_obs::log`, level filter
//! via `BI_LOG`); the only stdout line is the machine-readable
//! `listening on` address that CI and the load generator parse.

use std::io::Write;
use std::process::exit;
use std::time::Duration;

use bi_obs::log as olog;
use bi_service::{FaultPlan, Server, ServerConfig};
use bi_util::Json;

const USAGE: &str = "\
bi-serve — concurrent Bayesian-ignorance solve service

USAGE: bi-serve [OPTIONS]

OPTIONS:
  --addr HOST:PORT      bind address (default 127.0.0.1:0 = ephemeral port)
  --workers N           solver threads, 0 = one per core (default 0)
  --queue N             pending-solve queue bound; overflow gets 429 (default 128)
  --max-connections N   concurrent connection cap; overflow gets 503 (default 8192)
  --cache-capacity N    total solve-cache entries, 0 disables (default 4096)
  --cache-shards N      independently locked cache shards (default 16)
  --timeout-secs N      idle keep-alive timeout per connection (default 10)
  --disk-cache PATH     append-only disk cache log, one frame per key;
                        reboots replay it warm (default: memory-only)
  --fault-plan SPEC     seeded deterministic fault injection, e.g.
                        `seed=42,rate=50000,kinds=refuse+err500,delay-ms=5`
                        (default: off; kinds also include disconnect,
                        short-read, short-write, delay)
  --trace-slow-us N     log the span tree of any request slower than N µs
                        (default: off)
  --help                print this help
";

fn parse_args() -> Result<ServerConfig, String> {
    let mut config = ServerConfig::default();
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
            "--workers" => config.workers = parse_num(&flag, &value)?,
            "--queue" => config.queue_capacity = parse_num(&flag, &value)?,
            "--max-connections" => config.max_connections = parse_num(&flag, &value)?,
            "--cache-capacity" => config.cache.capacity = parse_num(&flag, &value)?,
            "--cache-shards" => config.cache.shards = parse_num(&flag, &value)?,
            "--timeout-secs" => {
                config.read_timeout = Duration::from_secs(parse_num(&flag, &value)? as u64);
            }
            "--disk-cache" => config.disk_path = Some(value.into()),
            "--fault-plan" => {
                config.fault = Some(std::sync::Arc::new(FaultPlan::parse(&value)?));
            }
            "--trace-slow-us" => {
                config.trace_slow_us = Some(parse_num(&flag, &value)? as u64);
            }
            other => return Err(format!("unknown flag {other} (see --help)")),
        }
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
            olog::error("bi-serve", "bad arguments", &[("detail", Json::str(msg))]);
            exit(2);
        }
    };
    olog::info(
        "bi-serve",
        "starting",
        &[
            ("workers", Json::from_u64(config.workers as u64)),
            ("queue", Json::from_u64(config.queue_capacity as u64)),
            (
                "max_connections",
                Json::from_u64(config.max_connections as u64),
            ),
            (
                "cache_capacity",
                Json::from_u64(config.cache.capacity as u64),
            ),
            ("cache_shards", Json::from_u64(config.cache.shards as u64)),
            (
                "timeout_secs",
                Json::from_u64(config.read_timeout.as_secs()),
            ),
            (
                "disk",
                Json::str(
                    config
                        .disk_path
                        .as_deref()
                        .map_or("none".into(), |p| p.display().to_string()),
                ),
            ),
            (
                "fault_plan",
                config
                    .fault
                    .as_ref()
                    .map_or(Json::Null, |plan| plan.to_json()),
            ),
            (
                "trace_slow_us",
                config.trace_slow_us.map_or(Json::Null, Json::from_u64),
            ),
        ],
    );
    let server = match Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            olog::error(
                "bi-serve",
                "bind failed",
                &[("error", Json::str(e.to_string()))],
            );
            exit(1);
        }
    };
    let addr = server.local_addr().expect("bound listener has an address");
    // The machine-readable line: CI and the load generator parse it to
    // discover ephemeral ports.
    println!("bi-serve listening on {addr}");
    std::io::stdout().flush().expect("stdout flush");
    if let Err(e) = server.run() {
        olog::error(
            "bi-serve",
            "serving failed",
            &[("error", Json::str(e.to_string()))],
        );
        exit(1);
    }
}

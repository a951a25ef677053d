//! `kvd-load` — open-loop memcache load generator with goodput
//! accounting.
//!
//! ```text
//! kvd-load --addr 127.0.0.1:11211 [--ops N] [--rate OPS_PER_SEC]
//!          [--conns N] [--population N] [--value-len B]
//!          [--deadline-ms MS] [--preset a|b|c|d|f] [--seed S] [--no-preload]
//!          [--zipf THETA] [--hot-shift N] [--fallback HOST:PORT]...
//! ```
//!
//! `--zipf` replaces the YCSB preset with a Zipf(θ) stream (10% SETs);
//! `--hot-shift N` moves the whole hot set every N requests — the
//! adversarial mix the hot-key-aware cache plane is tuned against.
//!
//! Offers a seeded bursty schedule averaging `--rate` ops/sec regardless
//! of how fast the server answers, then reports wall-clock RPS, goodput
//! (answers on time) and open-loop latency percentiles.

use std::env;
use std::net::ToSocketAddrs;
use std::process::exit;
use std::time::Duration;

use kvd_server::{run_load, LoadConfig};
use kvd_workloads::YcsbPreset;

fn usage() -> ! {
    eprintln!(
        "usage: kvd-load --addr HOST:PORT [--ops N] [--rate R] [--conns N] \
         [--population N] [--value-len B] [--deadline-ms MS] \
         [--preset a|b|c|d|f] [--seed S] [--no-preload] \
         [--zipf THETA] [--hot-shift N] [--fallback HOST:PORT]..."
    );
    exit(2)
}

fn main() {
    let mut addr = None;
    let mut ops: usize = 20_000;
    let mut rate: f64 = 50_000.0;
    let mut conns: usize = 4;
    let mut population: u64 = 10_000;
    let mut value_len: usize = 64;
    let mut deadline_ms: u64 = 100;
    let mut preset = YcsbPreset::B;
    let mut seed: u64 = 0x10AD;
    let mut preload = true;
    let mut zipf: Option<f64> = None;
    let mut hot_shift: u64 = 0;
    let mut fallbacks: Vec<String> = Vec::new();

    let mut args = env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--no-preload" {
            preload = false;
            continue;
        }
        let val = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--addr" => addr = Some(val),
            "--ops" => ops = val.parse().unwrap_or_else(|_| usage()),
            "--rate" => rate = val.parse().unwrap_or_else(|_| usage()),
            "--conns" => conns = val.parse().unwrap_or_else(|_| usage()),
            "--population" => population = val.parse().unwrap_or_else(|_| usage()),
            "--value-len" => value_len = val.parse().unwrap_or_else(|_| usage()),
            "--deadline-ms" => deadline_ms = val.parse().unwrap_or_else(|_| usage()),
            "--seed" => seed = val.parse().unwrap_or_else(|_| usage()),
            "--zipf" => {
                let theta: f64 = val.parse().unwrap_or_else(|_| usage());
                if theta <= 0.0 {
                    usage()
                }
                zipf = Some(theta);
            }
            "--hot-shift" => hot_shift = val.parse().unwrap_or_else(|_| usage()),
            "--fallback" => fallbacks.push(val),
            "--preset" => {
                preset = match val.as_str() {
                    "a" => YcsbPreset::A,
                    "b" => YcsbPreset::B,
                    "c" => YcsbPreset::C,
                    "d" => YcsbPreset::D,
                    "f" => YcsbPreset::F,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    let Some(addr) = addr else { usage() };
    let sockaddr = match addr.to_socket_addrs().ok().and_then(|mut a| a.next()) {
        Some(a) => a,
        None => {
            eprintln!("kvd-load: cannot resolve {addr}");
            exit(1);
        }
    };
    let fallbacks = fallbacks
        .iter()
        .map(
            |f| match f.to_socket_addrs().ok().and_then(|mut a| a.next()) {
                Some(a) => a,
                None => {
                    eprintln!("kvd-load: cannot resolve fallback {f}");
                    exit(1);
                }
            },
        )
        .collect();

    let cfg = LoadConfig {
        addr: sockaddr,
        connections: conns,
        ops_per_conn: ops.div_ceil(conns),
        rate,
        preset,
        zipf,
        hot_shift,
        population,
        value_len,
        deadline: Duration::from_millis(deadline_ms),
        seed,
        preload,
        fallbacks,
    };
    let report = match run_load(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("kvd-load: {e}");
            exit(1);
        }
    };
    println!(
        "kvd-load: offered {} ops over {} conns in {:.2}s",
        report.offered,
        conns,
        report.elapsed.as_secs_f64()
    );
    println!(
        "  answered {} ({:.0} req/s), goodput {} ({:.0} req/s on time)",
        report.answered,
        report.rps(),
        report.goodput,
        report.goodput_rps()
    );
    println!(
        "  hits {} / misses {} / stored {} / errors {} / reconnects {}",
        report.hits, report.misses, report.stored, report.errors, report.reconnects
    );
    println!(
        "  open-loop latency p50 {} us, p95 {} us, p99 {} us",
        report.latency_us.percentile(0.50),
        report.latency_us.percentile(0.95),
        report.latency_us.percentile(0.99)
    );
    if report.errors > 0 {
        exit(1);
    }
}

//! `kvd-server` — serve the KV-Direct data plane over the memcache text
//! protocol.
//!
//! ```text
//! kvd-server [--addr 127.0.0.1:11211] [--shards N] [--memory-mb MB]
//! ```
//!
//! Serves until killed; prints the bound address and layout on start.

use std::env;
use std::process::exit;
use std::thread;
use std::time::Duration;

use kvd_server::{serve, ServerConfig};

fn usage() -> ! {
    eprintln!("usage: kvd-server [--addr HOST:PORT] [--shards N] [--memory-mb MB]");
    exit(2)
}

fn main() {
    let mut addr = "127.0.0.1:11211".to_string();
    let mut shards = thread::available_parallelism().map_or(4, |n| n.get().min(8));
    let mut memory_mb: u64 = 64;

    let mut args = env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--addr" => addr = val(),
            "--shards" => shards = val().parse().unwrap_or_else(|_| usage()),
            "--memory-mb" => memory_mb = val().parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }

    let mut cfg = ServerConfig::loopback(shards);
    cfg.store.total_memory = memory_mb << 20;
    let handle = match serve(addr.as_str(), cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("kvd-server: bind {addr}: {e}");
            exit(1);
        }
    };
    println!(
        "kvd-server listening on {} ({} shards, {} MiB/shard)",
        handle.local_addr(),
        shards,
        memory_mb
    );
    // Serve until killed, surfacing protocol-plane counters periodically.
    let mut last_requests = 0u64;
    loop {
        thread::sleep(Duration::from_secs(10));
        let c = handle.server_costs();
        if c.requests != last_requests {
            println!(
                "kvd-server: {} requests ({} hits / {} misses), {} conns, {} B in / {} B out",
                c.requests, c.get_hits, c.get_misses, c.connections, c.bytes_in, c.bytes_out
            );
            last_requests = c.requests;
        }
    }
}

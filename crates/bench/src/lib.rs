//! Shared helpers for the figure/table reproduction harnesses.
//!
//! Every `benches/figNN_*.rs` / `benches/tableN_*.rs` target regenerates
//! one table or figure of the KV-Direct paper and prints the measured
//! series next to the paper's reference values (where the paper states
//! them). Run them all with `cargo bench -p kvd-bench`, or one with
//! `cargo bench -p kvd-bench --bench fig16_ycsb_throughput`.

pub use kvd_sim::report::{fmt_bytes, fmt_f, fmt_mops, Table};

/// Prints the harness banner: which paper artifact this regenerates and
/// what shape to expect.
pub fn banner(figure: &str, claim: &str) {
    println!("{}", "=".repeat(72));
    println!("KV-Direct reproduction — {figure}");
    println!("paper claim: {claim}");
    println!("{}", "=".repeat(72));
    println!();
}

/// Prints a closing shape-check line: PASS/FAIL on the qualitative claim.
pub fn shape_check(name: &str, ok: bool, detail: &str) {
    let status = if ok { "PASS" } else { "FAIL" };
    println!("[shape {status}] {name}: {detail}");
}

/// Standard scaled memory size used by the functional experiments
/// (stands in for the paper's 64 GiB with all ratios preserved).
pub const SCALED_MEMORY: u64 = 1 << 20;

/// Larger scale for experiments that need corpus ≫ NIC DRAM.
pub const SCALED_MEMORY_BIG: u64 = 8 << 20;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_sizes_accept_paper_ratio_nic_dram() {
        // Both scales must admit a host/16 NIC DRAM under the ECC
        // metadata constraint (ratio 16, 4-way: 4 + 2 tag bits + dirty
        // + valid ≤ 8); constructing the cache enforces it.
        for host in [SCALED_MEMORY, SCALED_MEMORY_BIG] {
            let cfg = kvd_mem::NicDramConfig {
                capacity: host / 16,
                bandwidth: kvd_sim::Bandwidth::from_gbytes_per_sec(12.8),
            };
            let _ = kvd_mem::NicDram::new(cfg, host);
        }
    }

    #[test]
    fn banner_and_shape_check_do_not_panic() {
        banner("smoke", "claim");
        shape_check("smoke", true, "detail");
        shape_check("smoke", false, "detail");
    }
}

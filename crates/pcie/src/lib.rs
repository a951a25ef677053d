#![warn(missing_docs)]
//! PCIe Gen3 DMA engine model for the KV-Direct reproduction.
//!
//! KV-Direct's key-value processor lives on the NIC and reaches the host
//! key-value storage through PCIe DMA, which §2.4 of the paper identifies
//! as the new bottleneck. This crate models one PCIe Gen3 x8 endpoint with
//! the exact constraints the paper measures:
//!
//! * **TLP overhead** — each DMA read or write needs a transport-layer
//!   packet with 26 bytes of header and padding for 64-bit addressing, so a
//!   64-byte access costs 90 bytes of link time (⇒ 87 Mops theoretical for
//!   Gen3 x8's 7.87 GB/s).
//! * **Credit-based flow control** — the root complex advertises 88 TLP
//!   posted header credits (DMA writes) and 84 non-posted header credits
//!   (DMA reads).
//! * **DMA read tags** — the FPGA DMA engine supports 64 PCIe tags, capping
//!   read concurrency at 64 in-flight requests, which with the ~1 µs
//!   round-trip latency caps random 64 B read throughput near 60 Mops
//!   (paper Figure 3a).
//! * **Latency** — cached DMA reads take ~800 ns (FPGA processing included);
//!   random non-cached reads add ~250 ns on average from DRAM access,
//!   refresh and PCIe response reordering (paper Figure 3b).
//!
//! [`config`] holds these figures as constants; [`DmaPort`] is a
//! discrete-event model of a single endpoint; [`stream`] contains the
//! closed-loop saturation experiments behind Figure 3.

pub mod config;
pub mod port;
pub mod stream;

pub use port::{DmaPort, PortStats};
pub use stream::{saturate_reads, saturate_writes, StreamResult};

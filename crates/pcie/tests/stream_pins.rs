//! Bit-exact pins of the Figure 3 saturation runs.
//!
//! Every read and write of `saturate_reads`/`saturate_writes` goes through
//! `DmaPort`'s tag, credit and link model and draws the same RNG values in
//! the same order. These numbers were recorded before the port's unused
//! fault-retry engine was deleted; any change to the port's timing shows
//! here as a changed bit.

use kvd_pcie::{saturate_reads, saturate_writes};

/// One payload size: read and write `ops_per_sec` as `f64` bits, and the
/// read-latency summary as `[count, mean bits, min, p5, p50, p95, p99, max]`
/// (picoseconds).
struct Pin {
    payload: u64,
    read_ops_per_sec: u64,
    write_ops_per_sec: u64,
    read_latency: [u64; 8],
}

const OPS: u64 = 20_000;
const SEED: u64 = 1;

const PINS: [Pin; 4] = [
    Pin {
        payload: 16,
        read_ops_per_sec: 0x4188b2e761ecf820,
        write_ops_per_sec: 0x41a6561d5c9fd37d,
        read_latency: [
            20000,
            0x4132d27fd1a9fbe7,
            859947,
            1097728,
            1245184,
            1294336,
            1294336,
            1626112,
        ],
    },
    Pin {
        payload: 64,
        read_ops_per_sec: 0x41884095cac5acb3,
        write_ops_per_sec: 0x4194d91b67c768db,
        read_latency: [
            20000,
            0x41332a79d1d14e3c,
            897214,
            1146880,
            1261568,
            1310720,
            1310720,
            1979854,
        ],
    },
    Pin {
        payload: 256,
        read_ops_per_sec: 0x417a920104892428,
        write_ops_per_sec: 0x417a9d7af2e94f29,
        read_latency: [
            20000,
            0x41417f80a4a8c155,
            1244942,
            2260992,
            2260992,
            2260992,
            2260992,
            3502358,
        ],
    },
    Pin {
        payload: 1024,
        read_ops_per_sec: 0x415a9a8f60b5254e,
        write_ops_per_sec: 0x415a9d6ec780fca0,
        read_latency: [
            20000,
            0x416179ddb2d77319,
            1352439,
            9043968,
            9043968,
            9043968,
            9043968,
            10382166,
        ],
    },
];

#[test]
fn saturation_runs_match_their_recorded_bits() {
    for pin in &PINS {
        let r = saturate_reads(pin.payload, OPS, SEED);
        let w = saturate_writes(pin.payload, OPS, SEED);
        let l = r.latency.expect("reads record latency");
        let latency = [
            l.count,
            l.mean.to_bits(),
            l.min,
            l.p5,
            l.p50,
            l.p95,
            l.p99,
            l.max,
        ];
        assert_eq!(
            (r.ops_per_sec.to_bits(), w.ops_per_sec.to_bits(), latency),
            (
                pin.read_ops_per_sec,
                pin.write_ops_per_sec,
                pin.read_latency
            ),
            "{} B: read {} Mops, write {} Mops",
            pin.payload,
            r.mops(),
            w.mops()
        );
        assert!(w.latency.is_none(), "posted writes record no latency");
    }
}

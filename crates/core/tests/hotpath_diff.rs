//! Differential test: the zero-copy batched hot path is bit-identical to
//! the owned per-request path.
//!
//! One YCSB-A trace (update-heavy, zipf-skewed — the mix that exercises
//! puts, gets, forwarding and write-backs together) is driven through two
//! identically configured stores:
//!
//! * **owned**: the owned requests → `execute_batch` — the path every
//!   caller used before the zero-copy rework;
//! * **zero-copy**: the same packet bytes → `decode_packet_ref` (borrowed
//!   requests) → `run` over a reused response arena.
//!
//! Every response must match, and the merged op-cost ledgers must be
//! *equal as values* — the ledger is the equivalence oracle proving the
//! SWAR probe, scratch reads and buffer pools changed no memory access,
//! no station decision, and no retire outcome.

use kvd_core::{KvDirectConfig, KvDirectStore};
use kvd_net::{decode_packet_ref, encode_packet, KvResponse};
use kvd_sim::{CostSource, OpLedger};
use kvd_workloads::presets::{PresetWorkload, YcsbPreset};

fn store() -> KvDirectStore {
    let mut s = KvDirectStore::new(KvDirectConfig::with_memory(1 << 20));
    s.processor_mut().set_ledger_detail(true);
    s
}

fn merged_ledger(s: &KvDirectStore) -> OpLedger {
    let mut out = OpLedger::default();
    s.emit_costs(&mut out);
    out
}

#[test]
fn zero_copy_batches_match_owned_path() {
    const POP: u64 = 2_000;
    const BATCH: usize = 40;
    const BATCHES: usize = 250;

    let mut owned = store();
    let mut zero_copy = store();

    // Identical preloads through each store's own path under test.
    let mut w = PresetWorkload::new(YcsbPreset::A, POP, 32, 0xD1FF);
    let preload = w.preload();
    // One response arena for every batch, sized once.
    let mut arena = vec![KvResponse::default(); BATCH];
    for chunk in preload.chunks(BATCH) {
        let bytes = encode_packet(chunk);
        owned.execute_batch(chunk);
        let refs = decode_packet_ref(&bytes).expect("round-trip");
        zero_copy.run(&refs[..], &mut arena[..refs.len()]);
    }

    for _ in 0..BATCHES {
        let batch = w.batch(BATCH);
        let bytes = encode_packet(&batch);

        let owned_resps = owned.execute_batch(&batch);

        let refs = decode_packet_ref(&bytes).expect("round-trip");
        zero_copy.run(&refs[..], &mut arena[..refs.len()]);

        assert_eq!(owned_resps, arena[..refs.len()], "responses diverged");
    }

    assert_eq!(
        merged_ledger(&owned),
        merged_ledger(&zero_copy),
        "op-cost ledgers diverged: the zero-copy path changed a memory \
         access, station decision, or retire outcome"
    );
}

//! A sparse parameter server on KV-Direct (paper §2.1).
//!
//! Machine-learning workloads store "model parameters ... in a key-value
//! hash table" and access "small key-value pairs in large batches, e.g.,
//! sparse parameters in linear regression". This example trains a toy
//! sparse logistic-regression model where every parameter read and
//! gradient update is a batched KV-Direct operation, using
//! `update_vector2vector` to apply a gradient to a parameter block in a
//! single NIC-side operation.
//!
//! Run with: `cargo run --example parameter_server`

use kv_direct::lambda::{decode_vector, encode_vector};
use kv_direct::mem::MemoryEngine;
use kv_direct::{KvDirectConfig, KvDirectStore, KvRequest, Lambda};

/// Parameters are fixed-point with this scale.
const FP: i64 = 1 << 16;
/// Parameters per block (paper: 8–16 B per sparse parameter; we block
/// them 8-wide so one vector op updates 64 bytes).
const BLOCK: usize = 8;
/// Custom λ: elementwise add of a signed fixed-point gradient.
const GRAD_STEP: u16 = 300;

fn block_key(b: usize) -> Vec<u8> {
    format!("w:{b}").into_bytes()
}

fn main() {
    let n_blocks = 128usize;
    let mut store = KvDirectStore::new(KvDirectConfig::with_memory(16 << 20));

    // Gradient application as a registered update function: the client
    // ships the gradient, the NIC applies it — an "active message".
    store.register_lambda(
        GRAD_STEP,
        Lambda::VectorToVector(std::sync::Arc::new(|w, g| {
            (w as i64).wrapping_add(g as i64) as u64
        })),
    );

    // Initialize the model to zero.
    for b in 0..n_blocks {
        store
            .put(&block_key(b), &encode_vector(&[0u64; BLOCK]))
            .unwrap();
    }

    // A synthetic sparse dataset: examples touch a handful of blocks.
    // Ground-truth weight vector we hope to recover (one feature hot).
    let truth: Vec<i64> = (0..n_blocks * BLOCK)
        .map(|i| if i % 97 == 0 { FP } else { 0 })
        .collect();
    let mut rng = kv_direct::sim::DetRng::seed(7);

    let mut losses = Vec::new();
    for epoch in 0..30 {
        let mut epoch_loss = 0f64;
        for _ in 0..200 {
            // Sample a sparse example: 3 active blocks, ±1 features.
            let blocks: Vec<usize> = (0..3).map(|_| rng.usize_below(n_blocks)).collect();
            let mut x = vec![0i64; n_blocks * BLOCK];
            for &b in &blocks {
                for i in 0..BLOCK {
                    x[b * BLOCK + i] = if rng.chance(0.5) { 1 } else { -1 };
                }
            }
            let label: i64 = {
                let dot: i64 = x.iter().zip(&truth).map(|(&xi, &ti)| xi * ti).sum();
                if dot >= 0 {
                    1
                } else {
                    -1
                }
            };

            // Fetch the active parameter blocks in ONE batched packet —
            // the client-side batching of §4.
            let reqs: Vec<KvRequest> = blocks
                .iter()
                .map(|&b| KvRequest::get(&block_key(b)))
                .collect();
            let resps = store.execute_batch(&reqs);
            let mut w = vec![0i64; n_blocks * BLOCK];
            for (&b, r) in blocks.iter().zip(&resps) {
                for (i, e) in decode_vector(&r.value).into_iter().enumerate() {
                    w[b * BLOCK + i] = e as i64;
                }
            }

            // Margin-perceptron step (all fixed-point).
            let dot: i64 = x.iter().zip(&w).map(|(&xi, &wi)| xi * wi).sum();
            let margin = label * dot;
            epoch_loss += (FP - margin).max(0) as f64 / FP as f64;
            if margin < FP {
                // Gradient push: one update_vector2vector per block.
                let lr = FP / 64;
                for &b in &blocks {
                    let grad: Vec<u64> = (0..BLOCK)
                        .map(|i| (label * x[b * BLOCK + i] * lr) as u64)
                        .collect();
                    store
                        .vector_update_elementwise(&block_key(b), GRAD_STEP, &grad)
                        .unwrap();
                }
            }
        }
        losses.push(epoch_loss / 200.0);
        if epoch % 5 == 4 {
            println!(
                "epoch {:>2}: mean hinge loss = {:.4}",
                epoch + 1,
                losses.last().unwrap()
            );
        }
    }

    assert!(
        losses.last().unwrap() < &losses[0],
        "training did not reduce the loss: {losses:?}"
    );

    let s = store.ledger().core;
    println!("\n-- KV-Direct accounting --");
    println!("requests executed : {}", s.requests);
    println!("vector updates    : {}", s.updates);
    println!(
        "memory accesses   : {}",
        store.processor().table().mem().stats().accesses()
    );
}

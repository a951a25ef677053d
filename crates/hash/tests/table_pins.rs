//! Recorded fingerprints of the hash table's operations.
//!
//! Seeded streams of PUT / GET / DELETE / `touch` / clock advances /
//! reaper passes run over `HashTable<FlatMemory>` with a hash index of a
//! few buckets, so chains of three and more buckets form. Values are
//! inline, slab-backed, and grow and shrink across the inline threshold
//! and across slab classes; the TTL streams put over dead entries, read,
//! delete and touch dead entries, touch stamps into the past and sweep at
//! budgets 1 and 7; the small-memory streams run out of slab space.
//!
//! A fingerprint digests every operation's `(hit, accesses)` (and a GET's
//! value, a PUT's error), the final expiry counters, `len`, `stored_bytes`,
//! the allocator's and the memory's counters, and the whole memory image.
//! [`PINS`] holds the values recorded on `76e6f92`, while GET, PUT, DELETE
//! and `touch` each still walked the bucket chain with their own code. Any
//! rewrite of the probe must reproduce all of them: same memory accesses
//! in the same order, same counters, same bytes in memory. The counters
//! are digested as `name=value` lists (see [`fields!`]), which name no
//! type, so a counter can change the struct that holds it without moving
//! a pin.
//!
//! To re-record after an *intended* behaviour change, run the test and
//! paste the table it prints on failure.

use kvd_hash::hashing::hash_key;
use kvd_hash::{HashError, HashTable, HashTableConfig};
use kvd_mem::{FlatMemory, MemoryEngine};
use kvd_sim::{CostSource, DetRng, ExpiryCosts, OpLedger};

/// One pinned stream.
struct Mix {
    name: &'static str,
    memory: u64,
    /// Hash index buckets (64 B each).
    buckets: u64,
    inline: usize,
    keys: u64,
    /// Value sizes a PUT draws from.
    sizes: &'static [usize],
    /// TTL stamps, `touch`, clock advances and reaper passes.
    ttl: bool,
    seed: u64,
}

const STEPS: usize = 3_000;

const MIXES: [Mix; 5] = [
    Mix {
        name: "chains",
        memory: 1 << 16,
        buckets: 4,
        inline: 24,
        keys: 80,
        sizes: &[0, 1, 8, 14, 15, 20, 40, 57, 100, 121, 249],
        ttl: false,
        seed: 1,
    },
    Mix {
        name: "classes",
        memory: 1 << 17,
        buckets: 20,
        inline: 32,
        keys: 120,
        sizes: &[
            0, 4, 14, 22, 23, 30, 50, 57, 58, 120, 121, 122, 249, 250, 480, 600,
        ],
        ttl: false,
        seed: 2,
    },
    Mix {
        name: "ttl",
        memory: 1 << 16,
        buckets: 8,
        inline: 24,
        keys: 60,
        sizes: &[1, 8, 14, 30, 100, 200],
        ttl: true,
        seed: 3,
    },
    // Slab values only (one slot each) in an index wide enough that no
    // chain forms: PUTs run out of slab space with a free slot at hand.
    Mix {
        name: "oom_slab",
        memory: 1 << 14,
        buckets: 128,
        inline: 24,
        keys: 300,
        sizes: &[20, 40, 100, 249],
        ttl: true,
        seed: 4,
    },
    // Inline values only: PUTs run out of room for chain buckets.
    Mix {
        name: "oom_inline",
        memory: 1 << 12,
        buckets: 8,
        inline: 24,
        keys: 200,
        sizes: &[0, 4, 8, 14],
        ttl: true,
        seed: 5,
    },
];

const PINS: &[(&str, &str)] = &[
    ("chains", "ops 48c7a13a274077a6 expiry 16c49103d8adca5e slab 7d7240497516859e mem bce7d041a5cef567 image bf93d7f695b352d5 len 52 bytes 3406"),
    ("classes", "ops 0061d75a25040041 expiry 16c49103d8adca5e slab 5640167f25be8c9b mem bc9dfc32e0ecfc06 image a85dab6cccd95ed0 len 87 bytes 10501"),
    ("ttl", "ops 7068d2d4cae13b7e expiry 06c98293135cf0a4 slab 7f36f849f8c6626f mem d2f69c023c2b2b8c image a610348d9e65972d len 31 bytes 2175"),
    ("oom_slab", "ops b8fc0873f0466ef3 expiry 58092264f77f37a4 slab 27448ed6727b0eb1 mem 455b92c98360b592 image 20163e23b2677fc5 len 82 bytes 4518"),
    ("oom_inline", "ops 507732b5ae94c514 expiry b4e052604d3b084d slab ce31ca6202265a15 mem ed64cf4f7e37dc17 image 58d4afd9062cd7be len 74 bytes 1142"),
];

/// `name=value` for each listed field, space-separated, in the order
/// given: a rendering that survives a counter moving to another struct.
macro_rules! fields {
    ($($s:ident.$f:ident),+ $(,)?) => {
        [$(format!(concat!(stringify!($f), "={}"), $s.$f)),+].join(" ")
    };
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn op(&mut self, tag: u8, hit: bool, accesses: u64) {
        self.bytes(&[tag, hit as u8]);
        self.bytes(&accesses.to_le_bytes());
    }

    fn of(text: &str) -> u64 {
        let mut h = Fnv::new();
        h.bytes(text.as_bytes());
        h.0
    }
}

fn key(k: u64) -> Vec<u8> {
    format!("pin:{k:05}").into_bytes()
}

/// What one drive of a stream left behind.
struct Outcome {
    print: String,
    expiry: ExpiryCosts,
    longest_get_miss: u64,
    ooms: u64,
    slab_frees: u64,
}

fn drive(mix: &Mix) -> Outcome {
    let mut table = HashTable::new(
        FlatMemory::new(mix.memory),
        HashTableConfig::new(
            mix.memory,
            (mix.buckets * 64) as f64 / mix.memory as f64,
            mix.inline,
        ),
    );
    assert_eq!(table.n_buckets(), mix.buckets);
    let mut rng = DetRng::seed(mix.seed);
    let mut ops = Fnv::new();
    let mut out = Vec::new();
    let mut now = 0u32;
    let (mut longest_get_miss, mut ooms) = (0, 0);
    for _ in 0..STEPS {
        let k = key(rng.u64_below(mix.keys));
        let r = rng.u64_below(100);
        match r {
            0..=29 => {
                let mut value = vec![0u8; mix.sizes[rng.usize_below(mix.sizes.len())]];
                rng.fill_bytes(&mut value);
                let stamp = if mix.ttl && rng.chance(0.5) {
                    now + 1 + rng.u64_below(12) as u32
                } else {
                    0
                };
                match table.put_hashed(&k, hash_key(&k), &value, stamp) {
                    Ok(c) => ops.op(1, c.hit, c.accesses),
                    Err(e) => {
                        ooms += (e == HashError::OutOfMemory) as u64;
                        ops.bytes(&[2, e as u8]);
                    }
                }
            }
            30..=54 => {
                let (hit, c) = table.get_into_with_cost(&k, &mut out);
                ops.op(3, hit, c.accesses);
                if hit {
                    ops.bytes(&(out.len() as u64).to_le_bytes());
                    ops.bytes(&out);
                } else {
                    longest_get_miss = longest_get_miss.max(c.accesses);
                }
            }
            55..=66 => {
                let (hit, c) = table.delete_with_cost(&k);
                ops.op(4, hit, c.accesses);
            }
            67..=76 if mix.ttl => {
                let stamp = match rng.u64_below(4) {
                    0 => 0,
                    // Into the past: the entry is dead once touched.
                    1 => now.saturating_sub(rng.u64_below(3) as u32),
                    _ => now + 1 + rng.u64_below(15) as u32,
                };
                let before = table.mem().stats();
                let hit = table.touch(&k, stamp);
                let after = table.mem().stats();
                let accesses =
                    after.dma_reads - before.dma_reads + after.dma_writes - before.dma_writes;
                ops.op(5, hit, accesses);
            }
            77..=86 if mix.ttl => {
                now += 1 + rng.u64_below(3) as u32;
                table.set_now_tick(now);
                ops.bytes(&[6]);
            }
            87..=91 if mix.ttl => {
                let c = table.sweep_expired([1, 7][rng.usize_below(2)]);
                ops.bytes(&[7]);
                ops.bytes(&c.accesses.to_le_bytes());
                ops.bytes(&c.scanned.to_le_bytes());
                ops.bytes(&c.reclaimed.to_le_bytes());
            }
            _ => {
                let (hit, c) = table.get_into_with_cost(&k, &mut out);
                ops.op(8, hit, c.accesses);
            }
        }
    }
    let expiry = table.expiry_stats();
    let slab = OpLedger::of(table.allocator()).slab;
    let mem = table.mem().stats();
    // Cache evictions are counted in the ledger's cache section (always
    // zero for a memory without a cache, as here).
    let mut ledger = OpLedger::default();
    table.mem().emit_costs(&mut ledger);
    let cache = ledger.cache;
    let mut image = vec![0u8; mix.memory as usize];
    table.mem_mut().read(0, &mut image);
    let mut img = Fnv::new();
    img.bytes(&image);
    let print = format!(
        "ops {:016x} expiry {:016x} slab {:016x} mem {:016x} image {:016x} len {} bytes {}",
        ops.0,
        Fnv::of(&fields!(
            expiry.ttl_puts,
            expiry.touches,
            expiry.lazy_expired,
            expiry.expired_overwrites,
            expiry.reaped_entries,
            expiry.reaped_bytes,
            expiry.sweep_passes,
            expiry.sweep_buckets,
        )),
        Fnv::of(&fields!(
            slab.allocs,
            slab.frees,
            slab.failed_allocs,
            slab.dma_syncs,
            slab.entries_synced,
            slab.splits,
            slab.merges,
            slab.merge_passes,
        )),
        Fnv::of(&fields!(
            mem.dma_reads,
            mem.dma_writes,
            mem.dma_read_bytes,
            mem.dma_write_bytes,
            mem.dram_reads,
            mem.dram_writes,
            mem.cache_hits,
            mem.cache_misses,
            cache.evict_clean,
            cache.evict_dirty,
            cache.conflict_fills,
        )),
        img.0,
        table.len(),
        table.stored_bytes(),
    );
    Outcome {
        print,
        expiry,
        longest_get_miss,
        ooms,
        slab_frees: slab.frees,
    }
}

#[test]
fn the_table_reproduces_its_recorded_fingerprints() {
    let got: Vec<(String, String)> = MIXES
        .iter()
        .map(|m| (m.name.to_string(), drive(m).print))
        .collect();
    let recorded: Vec<(String, String)> = PINS
        .iter()
        .map(|(n, f)| (n.to_string(), f.to_string()))
        .collect();
    if got != recorded {
        let mut table = String::new();
        for (name, print) in &got {
            table.push_str(&format!("    (\"{name}\", \"{print}\"),\n"));
        }
        let moved: Vec<&str> = got
            .iter()
            .filter(|g| !recorded.contains(g))
            .map(|(n, _)| n.as_str())
            .collect();
        panic!("fingerprints moved: {moved:?}\ncomputed table:\n{table}");
    }
}

/// The streams must actually reach what the pins claim to cover;
/// otherwise a fingerprint could hold while pinning nothing.
#[test]
fn the_pinned_streams_reach_the_paths_they_name() {
    let outcome = |name: &str| drive(MIXES.iter().find(|m| m.name == name).expect("mix exists"));

    let o = outcome("chains");
    assert!(
        o.longest_get_miss >= 3,
        "a miss walks a chain of 3+ buckets"
    );
    assert!(o.slab_frees > 0);

    let o = outcome("classes");
    assert!(o.longest_get_miss >= 3);
    assert!(o.slab_frees > 0, "values move between classes and inline");

    let o = outcome("ttl");
    let e = o.expiry;
    assert!(e.ttl_puts > 0 && e.touches > 0 && e.expired_overwrites > 0);
    assert!(e.lazy_expired > 0, "probes land on dead entries");
    assert!(
        e.sweep_passes > 0 && e.reaped_entries > e.lazy_expired,
        "the reaper reclaims"
    );

    for name in ["oom_slab", "oom_inline"] {
        let o = outcome(name);
        assert!(o.ooms > 0, "{name}: the slab region runs out");
        let e = o.expiry;
        assert!(
            e.lazy_expired > 0 && e.reaped_entries > e.lazy_expired,
            "{name}"
        );
    }
}

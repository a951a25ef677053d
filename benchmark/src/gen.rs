//! The benchmark's own input generator: xorshift randomness, a Zipf
//! sampler, the four workload mixes, and self-describing values.
//!
//! Nothing here calls into the repo (in particular not `kvd-workloads`),
//! so a product change can never move the inputs: the same `--seed`
//! always yields byte-identical operations.

/// xorshift64* — small, fast, and fully specified here.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeds through one splitmix64 step so nearby seeds (and seed 0)
    /// start from unrelated, non-zero states.
    pub fn new(seed: u64) -> Rng {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (multiply-shift; bias < 2^-32 for our `n`).
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * u64::from(n)) >> 32) as u32
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(θ) over ranks `0..n` by Vose's alias method: one table lookup
/// per sample, so generating load costs the client little CPU.
#[derive(Debug)]
pub struct Zipf {
    prob: Vec<f64>,
    alias: Vec<u32>,
}

impl Zipf {
    pub fn new(n: u32, theta: f64) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|r| f64::from(r).powf(-theta)).collect();
        let total: f64 = weights.iter().sum();
        let mut scaled: Vec<f64> = weights.iter().map(|w| w / total * f64::from(n)).collect();
        let mut prob = vec![1.0; n as usize];
        let mut alias: Vec<u32> = (0..n).collect();
        let (mut small, mut large): (Vec<u32>, Vec<u32>) =
            (0..n).partition(|&i| scaled[i as usize] < 1.0);
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            prob[s as usize] = scaled[s as usize];
            alias[s as usize] = l;
            scaled[l as usize] -= 1.0 - scaled[s as usize];
            if scaled[l as usize] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        Zipf { prob, alias }
    }

    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let i = rng.below(self.prob.len() as u32);
        if rng.unit() < self.prob[i as usize] {
            i
        } else {
            self.alias[i as usize]
        }
    }
}

/// Key popularity of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dist {
    Uniform,
    Zipf(f64),
}

/// One workload: the mix, the key space and the value sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub population: u32,
    /// Percent of operations that are GETs / SETs; the rest are DELETEs.
    pub get_pct: u32,
    pub set_pct: u32,
    pub dist: Dist,
    /// Operations between re-draws of the hot set (0 = fixed hot set).
    pub shift_every: u64,
    /// A SET draws its value length uniformly from these.
    pub value_lens: &'static [u16],
    /// Keys per `get` frame on the TCP path (one op is still one key).
    pub keys_per_frame: usize,
    /// Whether the stores run the adaptive cache plane.
    pub adaptive: bool,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "read_hot_small",
        why: "95% GET / 5% SET, Zipf 0.99, 200k keys, 8 B inline values: the paper's headline case; hash probe, mem hit path, ooo forwarding and per-frame server cost do the work, slab is idle",
        population: 200_000,
        get_pct: 95,
        set_pct: 5,
        dist: Dist::Zipf(0.99),
        shift_every: 0,
        value_lens: &[8],
        keys_per_frame: 1,
        adaptive: false,
    },
    Spec {
        name: "write_churn_slab",
        why: "50% SET / 30% GET / 20% DELETE, uniform, 60k keys, values of 40-480 B: every write crosses slab classes and the working set misses NIC DRAM; a read-path gain that costs writes shows here",
        population: 60_000,
        get_pct: 30,
        set_pct: 50,
        dist: Dist::Uniform,
        shift_every: 0,
        value_lens: &[40, 100, 230, 480],
        keys_per_frame: 1,
        adaptive: false,
    },
    Spec {
        name: "mget_uniform",
        why: "100% GET, uniform, 200k keys, 64 B values, 16 keys per TCP frame: parse and hand-off amortised 16x, replies payload-heavy, PCIe-bound; per-frame server savings should show little here",
        population: 200_000,
        get_pct: 100,
        set_pct: 0,
        dist: Dist::Uniform,
        shift_every: 0,
        value_lens: &[64],
        keys_per_frame: 16,
        adaptive: false,
    },
    Spec {
        name: "hot_shift_adaptive",
        why: "90% GET / 10% SET, Zipf 1.2 with a moving hot set, 200k keys, 64 B values, adaptive cache plane on: the only workload where sketch, admission and retune run",
        population: 200_000,
        get_pct: 90,
        set_pct: 10,
        dist: Dist::Zipf(1.2),
        shift_every: 20_000,
        value_lens: &[64],
        keys_per_frame: 1,
        adaptive: true,
    },
];

pub fn workload(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Get,
    Set,
    Delete,
}

/// One generated operation. `version` and `len` describe the value a SET
/// writes (and are zero otherwise).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub kind: Kind,
    pub key: u32,
    pub version: u32,
    pub len: u16,
}

/// The value every key holds after preload: version 0, a length fixed by
/// the key so the model needs no table for it.
pub fn preload_len(spec: &Spec, key: u32) -> u16 {
    spec.value_lens[key as usize % spec.value_lens.len()]
}

/// A deterministic stream of operations for one writer.
///
/// `class` restricts the keys this stream *writes* to one residue class
/// (`key % modulus == residue`), which is how each TCP connection owns a
/// disjoint slice of the key space and can check read-your-writes there.
pub struct OpGen {
    spec: &'static Spec,
    rng: Rng,
    zipf: Option<std::sync::Arc<Zipf>>,
    /// Last version written per key (SETs number their values).
    versions: Vec<u32>,
    offset: u32,
    issued: u64,
    class: (u32, u32),
}

impl OpGen {
    pub fn new(spec: &'static Spec, seed: u64, zipf: Option<std::sync::Arc<Zipf>>) -> OpGen {
        OpGen::for_class(spec, seed, zipf, 0, 1)
    }

    pub fn for_class(
        spec: &'static Spec,
        seed: u64,
        zipf: Option<std::sync::Arc<Zipf>>,
        residue: u32,
        modulus: u32,
    ) -> OpGen {
        assert!(matches!(spec.dist, Dist::Uniform) || zipf.is_some());
        OpGen {
            spec,
            rng: Rng::new(seed),
            zipf,
            versions: vec![0; spec.population as usize],
            offset: 0,
            issued: 0,
            class: (residue, modulus),
        }
    }

    /// The sampler a spec needs (shared between streams: it is read-only).
    pub fn sampler(spec: &Spec) -> Option<std::sync::Arc<Zipf>> {
        match spec.dist {
            Dist::Uniform => None,
            Dist::Zipf(theta) => Some(std::sync::Arc::new(Zipf::new(spec.population, theta))),
        }
    }

    fn draw_key(&mut self) -> u32 {
        let n = self.spec.population;
        if self.spec.shift_every > 0 && self.issued.is_multiple_of(self.spec.shift_every) {
            self.offset = self.rng.below(n);
        }
        let rank = match &self.zipf {
            Some(z) => z.sample(&mut self.rng),
            None => self.rng.below(n),
        };
        (rank + self.offset) % n
    }

    pub fn next_op(&mut self) -> Op {
        let key = self.draw_key();
        self.issued += 1;
        let roll = self.rng.below(100);
        let kind = if roll < self.spec.get_pct {
            Kind::Get
        } else if roll < self.spec.get_pct + self.spec.set_pct {
            Kind::Set
        } else {
            Kind::Delete
        };
        if kind == Kind::Get {
            return Op {
                kind,
                key,
                version: 0,
                len: 0,
            };
        }
        // Writes move to the nearest key of this stream's class.
        let (residue, modulus) = self.class;
        let mut key = key - key % modulus + residue;
        if key >= self.spec.population {
            key -= modulus;
        }
        if kind == Kind::Delete {
            return Op {
                kind,
                key,
                version: 0,
                len: 0,
            };
        }
        let lens = self.spec.value_lens;
        let len = lens[self.rng.below(lens.len() as u32) as usize];
        let v = &mut self.versions[key as usize];
        *v += 1;
        Op {
            kind,
            key,
            version: *v,
            len,
        }
    }

    pub fn fill(&mut self, n: usize, out: &mut Vec<Op>) {
        out.clear();
        out.extend((0..n).map(|_| self.next_op()));
    }
}

/// FNV-1a over the operations' fields — the determinism fingerprint.
pub fn ops_hash(ops: &[Op]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01B3);
    };
    for op in ops {
        eat(op.kind as u8);
        op.key.to_le_bytes().into_iter().for_each(&mut eat);
        op.version.to_le_bytes().into_iter().for_each(&mut eat);
        op.len.to_le_bytes().into_iter().for_each(&mut eat);
    }
    h
}

// ---------------------------------------------------------------------
// Self-describing values
// ---------------------------------------------------------------------

/// Bytes of `key u32 | writer u8 | version u24`, the least a value holds.
pub const VALUE_HEADER: usize = 8;
/// Versions are stored in 24 bits.
pub const MAX_VERSION: u32 = (1 << 24) - 1;

/// What a value says about itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    pub key: u32,
    pub writer: u8,
    pub version: u32,
    pub len: u16,
}

fn pattern(stamp: &Stamp, i: usize) -> u8 {
    (stamp.key.wrapping_mul(31) ^ stamp.version.wrapping_mul(7)).wrapping_add(i as u32) as u8
}

/// Writes the value for `stamp` into `out` (cleared first): the header,
/// then — room permitting — the length, then a pattern every byte of
/// which depends on key, version and position.
pub fn write_value(stamp: &Stamp, out: &mut Vec<u8>) {
    let len = stamp.len as usize;
    assert!(len >= VALUE_HEADER && stamp.version <= MAX_VERSION);
    out.clear();
    out.extend_from_slice(&stamp.key.to_le_bytes());
    out.push(stamp.writer);
    out.extend_from_slice(&stamp.version.to_le_bytes()[..3]);
    if len >= VALUE_HEADER + 2 {
        out.extend_from_slice(&stamp.len.to_le_bytes());
    }
    for i in out.len()..len {
        out.push(pattern(stamp, i));
    }
}

/// Why a reply's value was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reject {
    TooShort,
    WrongKey,
    WrongLength,
    Corrupt,
}

/// Parses a value and checks that it is one `write_value` could have
/// produced for `key`. Which version it should be is the caller's check.
pub fn read_value(key: u32, bytes: &[u8]) -> Result<Stamp, Reject> {
    if bytes.len() < VALUE_HEADER || bytes.len() > usize::from(u16::MAX) {
        return Err(Reject::TooShort);
    }
    let stamp = Stamp {
        key: u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes")),
        writer: bytes[4],
        version: u32::from_le_bytes([bytes[5], bytes[6], bytes[7], 0]),
        len: bytes.len() as u16,
    };
    if stamp.key != key {
        return Err(Reject::WrongKey);
    }
    let mut at = VALUE_HEADER;
    if bytes.len() >= VALUE_HEADER + 2 {
        if bytes[8..10] != stamp.len.to_le_bytes() {
            return Err(Reject::WrongLength);
        }
        at += 2;
    }
    if (at..bytes.len()).any(|i| bytes[i] != pattern(&stamp, i)) {
        return Err(Reject::Corrupt);
    }
    Ok(stamp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_ops(spec: &'static Spec, seed: u64) -> Vec<Op> {
        let mut g = OpGen::new(spec, seed, OpGen::sampler(spec));
        let mut ops = Vec::new();
        g.fill(1000, &mut ops);
        ops
    }

    /// Same seed → the same first 1 000 operations, pinned by a golden
    /// hash so an edit to the generator cannot pass unnoticed: it would
    /// silently re-base every number the benchmark has ever reported.
    #[test]
    fn generator_is_deterministic_and_pinned() {
        let golden: [u64; 4] = [
            0xB82C_7767_E3F8_EE21,
            0xB1FD_D50D_75A7_36BE,
            0x26B3_F44C_3FC5_3EC0,
            0x563D_EA7F_04B8_60EB,
        ];
        for (spec, want) in WORKLOADS.iter().zip(golden) {
            let a = ops_hash(&first_ops(spec, 0x5EED));
            assert_eq!(a, ops_hash(&first_ops(spec, 0x5EED)), "{}", spec.name);
            assert_ne!(a, ops_hash(&first_ops(spec, 0x5EEE)), "{}", spec.name);
            assert_eq!(
                a, want,
                "{}: generator output changed ({a:#018X})",
                spec.name
            );
        }
    }

    #[test]
    fn zipf_mass_matches_the_distribution() {
        let n = 1000u32;
        let theta = 0.99;
        let z = Zipf::new(n, theta);
        let mut rng = Rng::new(7);
        let draws = 400_000;
        let mut hits = vec![0u32; n as usize];
        for _ in 0..draws {
            hits[z.sample(&mut rng) as usize] += 1;
        }
        let total: f64 = (1..=n).map(|r| f64::from(r).powf(-theta)).sum();
        let mass = |lo: usize, hi: usize| -> (f64, f64) {
            let want: f64 = (lo..hi).map(|r| ((r + 1) as f64).powf(-theta)).sum::<f64>() / total;
            let got = hits[lo..hi].iter().sum::<u32>() as f64 / draws as f64;
            (want, got)
        };
        for (lo, hi) in [(0, 1), (1, 10), (10, 100), (100, 1000)] {
            let (want, got) = mass(lo, hi);
            assert!(
                (want - got).abs() < 0.01,
                "ranks {lo}..{hi}: want {want:.4} got {got:.4}"
            );
        }
    }

    #[test]
    fn writes_stay_in_their_class_and_number_their_versions() {
        let spec = workload("write_churn_slab").unwrap();
        let mut g = OpGen::for_class(spec, 3, None, 1, 2);
        let mut last = vec![0u32; spec.population as usize];
        for _ in 0..20_000 {
            let op = g.next_op();
            assert!(op.key < spec.population);
            if op.kind != Kind::Get {
                assert_eq!(op.key % 2, 1);
            }
            if op.kind == Kind::Set {
                assert_eq!(op.version, last[op.key as usize] + 1);
                last[op.key as usize] = op.version;
                assert!(spec.value_lens.contains(&op.len));
            }
        }
    }

    #[test]
    fn validator_rejects_damage() {
        let stamp = Stamp {
            key: 77,
            writer: 1,
            version: 5,
            len: 64,
        };
        let mut v = Vec::new();
        write_value(&stamp, &mut v);
        assert_eq!(read_value(77, &v), Ok(stamp));
        // Wrong key: the reply belongs to someone else.
        assert_eq!(read_value(78, &v), Err(Reject::WrongKey));
        // A flipped byte anywhere in the pattern.
        for at in [10, 33, 63] {
            let mut bad = v.clone();
            bad[at] ^= 0x40;
            assert_eq!(read_value(77, &bad), Err(Reject::Corrupt), "byte {at}");
        }
        // A truncated value no longer matches its own length field.
        assert_eq!(read_value(77, &v[..40]), Err(Reject::WrongLength));
        assert_eq!(read_value(77, &v[..4]), Err(Reject::TooShort));
        // The 8-byte form carries no pattern but still names its key.
        let small = Stamp {
            key: 9,
            writer: 0,
            version: 2,
            len: 8,
        };
        write_value(&small, &mut v);
        assert_eq!(read_value(9, &v), Ok(small));
        assert_eq!(read_value(8, &v), Err(Reject::WrongKey));
    }
}

//! Pins the first draws of `DetRng` and `ZipfSampler` for fixed seeds.
//!
//! Every simulated number in the workspace is a function of these
//! streams: a generator rewrite that changes one draw moves every `sim_*`
//! figure, pin and golden downstream. These values were recorded from the
//! xoshiro256++ generator (SplitMix64 seeding) and the Hörmann–Derflinger
//! Zipf sampler, and must hold bit for bit through any change to either.

use kvd_sim::{DetRng, ZipfSampler};

/// One stream's first draws through every method, in a fixed order. The
/// trailing `u64` shows how far `chance` and `fill_bytes` advanced it.
fn transcript(rng: &mut DetRng) -> Vec<u64> {
    let mut out = vec![rng.u64(), rng.u64()];
    out.push(rng.u64_below(1000));
    out.push(rng.u64_below(u64::MAX));
    out.push(rng.usize_below(7) as u64);
    out.push(rng.usize_below(1) as u64);
    out.push(rng.f64().to_bits());
    out.push(rng.f64().to_bits());
    for p in [0.0, 0.3, 1.0] {
        out.push(rng.chance(p) as u64);
    }
    let mut buf = [0u8; 13];
    rng.fill_bytes(&mut buf);
    let mut tail = [0u8; 8];
    tail[..5].copy_from_slice(&buf[8..]);
    out.push(u64::from_le_bytes(buf[..8].try_into().unwrap()));
    out.push(u64::from_le_bytes(tail));
    out.push(rng.u64());
    out
}

#[test]
fn first_draws_of_fixed_seeds_are_pinned() {
    let cases: [(&str, DetRng, [u64; 14]); 3] = [
        (
            "seed 1",
            DetRng::seed(1),
            [
                0xcfc5d07f6f03c29b,
                0xbf424132963fe08d,
                100,
                0xbf08119f05cd56d5,
                1,
                0,
                0x3fef9478f2a11e82,
                0x3fe0bfd4b9206c7e,
                0,
                1,
                1,
                0x57efaedd9f6cffb3,
                0x000000d5697640d6,
                0x65033a4eee505049,
            ],
        ),
        (
            "seed 0x51AB",
            DetRng::seed(0x51AB),
            [
                0x689da833fa266946,
                0x3e20562dfa9fb31d,
                35,
                0x0e117428083730ed,
                6,
                0,
                0x3fe1ebf53bc051ca,
                0x3fcaa4837b49aad4,
                0,
                1,
                1,
                0x4c60105219ba45d7,
                0x000000e915780cdc,
                0xcff8c18ae7bdd0ad,
            ],
        ),
        (
            "seed 7 fork 3",
            DetRng::seed(7).fork(3),
            [
                0xb96778d18c13f836,
                0x25f86cb58feece4d,
                516,
                0x016145a3d51b813f,
                0,
                0,
                0x3fd86723e3a7b90a,
                0x3fd76c013c7cbca2,
                0,
                0,
                1,
                0xaabf4b2a3687e048,
                0x00000023a8ae8d71,
                0x4c0fdb6979c826a7,
            ],
        ),
    ];
    for (name, mut rng, want) in cases {
        let got = transcript(&mut rng);
        assert_eq!(got, want, "{name}");
    }
}

#[test]
fn first_zipf_ranks_are_pinned() {
    let cases: [(u64, f64, [u64; 10]); 4] = [
        (
            1000,
            0.0,
            [
                140,
                193,
                35,
                396,
                737,
                286,
                869,
                979,
                14553790721794834938,
                18109331625648998979,
            ],
        ),
        (
            1000,
            0.99,
            [
                1,
                1,
                0,
                11,
                146,
                4,
                388,
                861,
                14553790721794834938,
                11793549298399543749,
            ],
        ),
        (
            1000,
            1.2,
            [
                0,
                0,
                0,
                3,
                38,
                1,
                154,
                708,
                14553790721794834938,
                5630201685527879278,
            ],
        ),
        (1, 0.99, [0, 0, 0, 0, 0, 0, 0, 0, 14553790721794834938, 0]),
    ];
    for (n, s, want) in cases {
        let zipf = ZipfSampler::new(n, s);
        let mut rng = DetRng::seed(11);
        let mut got: Vec<u64> = (0..8).map(|_| zipf.sample(&mut rng)).collect();
        // Rejected proposals spend draws too: pin where the stream ends,
        // and a digest of a longer run, where rejections do happen.
        got.push(rng.u64());
        got.push((0..10_000).fold(0u64, |h, _| {
            h.wrapping_mul(0x100_0000_01B3) ^ zipf.sample(&mut rng)
        }));
        assert_eq!(got, want, "n {n}, s {s}");
    }
}

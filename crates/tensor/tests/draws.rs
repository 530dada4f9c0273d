//! Set-up draws on the pool equal the serial stream bit for bit.
//!
//! `DetRng::skip_normals(k)` must leave the generator exactly where `k`
//! `normal()` calls do, and `Tensor::randn` above one chunk (filled chunk
//! by chunk on the pool, or inline inside a pool job) must return the
//! serial loop's values and leave the caller's `rng` in the serial loop's
//! end state.

use dlion_tensor::draws::CHUNK;
use dlion_tensor::{par, DetRng, Shape, Tensor};

/// What a generator will draw next: the spare (if any) and the next 8
/// normals, then two raw words — equal fingerprints mean equal states for
/// every test here.
fn fingerprint(rng: &DetRng) -> Vec<u64> {
    let mut r = rng.clone();
    let mut out: Vec<u64> = (0..9).map(|_| r.normal().to_bits()).collect();
    out.extend((0..2).map(|_| r.next_u64()));
    out
}

/// A generator at `seed`, holding a Box–Muller spare if `spare`.
fn rng_at(seed: u64, spare: bool) -> DetRng {
    let mut rng = DetRng::seed_from_u64(seed);
    if spare {
        rng.normal();
    }
    rng
}

/// The serial loop `Tensor::randn` ran before it drew on the pool.
fn serial_randn(n: usize, std: f32, rng: &mut DetRng) -> Vec<f32> {
    (0..n)
        .map(|_| rng.normal_ms(0.0, std as f64) as f32)
        .collect()
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// FNV-1a over the values' bits, then the generator's next raw word.
fn digest(xs: &[f32], rng: &mut DetRng) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in xs
        .iter()
        .flat_map(|x| x.to_le_bytes())
        .chain(rng.next_u64().to_le_bytes())
    {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Every `k` up to 64, every `k` within 3 of one and two chunks, and 64
/// seeded picks across `0..=2·CHUNK+3`, ascending. (Every `k` of the range
/// from a fresh generator would cost ~10¹⁰ draws.)
fn skip_lengths() -> Vec<usize> {
    let top = 2 * CHUNK + 3;
    let mut ks: Vec<usize> = (0..=64).collect();
    for edge in [CHUNK, 2 * CHUNK] {
        ks.extend(edge - 3..=(edge + 3).min(top));
    }
    let mut pick = DetRng::seed_from_u64(5);
    ks.extend((0..64).map(|_| pick.index(top + 1)));
    ks.push(top);
    ks.sort_unstable();
    ks.dedup();
    ks
}

#[test]
fn skip_normals_leaves_the_state_k_normal_calls_leave() {
    for spare in [false, true] {
        // `drawn` walks the stream one `normal()` at a time; each `k` is
        // skipped from a fresh copy of the start.
        let start = rng_at(17, spare);
        let mut drawn = start.clone();
        let mut calls = 0;
        for k in skip_lengths() {
            while calls < k {
                drawn.normal();
                calls += 1;
            }
            let mut skipped = start.clone();
            skipped.skip_normals(k);
            assert_eq!(
                fingerprint(&skipped),
                fingerprint(&drawn),
                "k = {k}, entering with a spare: {spare}"
            );
        }
    }
}

/// Sizes around the chunk boundary and an odd size of several chunks.
fn sizes() -> [usize; 5] {
    [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 12_345]
}

fn randn_matches_serial(label: &str) {
    for n in sizes() {
        for spare in [false, true] {
            let mut rng = rng_at(n as u64 ^ 0x5eed, spare);
            let mut reference = rng.clone();
            let t = Tensor::randn(Shape::d1(n), 0.7, &mut rng);
            let want = serial_randn(n, 0.7, &mut reference);
            assert!(
                bits(t.data()) == bits(&want),
                "{label}: n = {n}, spare = {spare}: values differ from the serial stream"
            );
            assert_eq!(
                fingerprint(&rng),
                fingerprint(&reference),
                "{label}: n = {n}, spare = {spare}: the caller's rng ends elsewhere"
            );
        }
    }
}

#[test]
fn randn_equals_the_serial_stream_from_the_test_thread() {
    randn_matches_serial("test thread");
}

#[test]
fn randn_equals_the_serial_stream_inline_inside_a_pool_job() {
    par::spawn(|| randn_matches_serial("inside a job")).join();
}

/// The draws `wire_exchange` makes for seed 1, and the state they leave.
#[test]
fn randn_digest_is_pinned() {
    let mut rng = DetRng::seed_from_u64(1);
    let t = Tensor::randn(Shape::d1(1_310_720), 1.0, &mut rng);
    assert_eq!(digest(t.data(), &mut rng), 0x024e_fcbb_41af_98d1);
}

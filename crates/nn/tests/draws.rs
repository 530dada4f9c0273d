//! The synthetic dataset drawn chunk by chunk on the pool equals the serial
//! stream bit for bit: images, labels, and the caller's `rng` afterwards,
//! from the test thread and inline inside a pool job.

use dlion_nn::Dataset;
use dlion_tensor::{draws, par, DetRng, Shape};

/// The serial loop `Dataset::gaussian_prototypes` ran before it drew on
/// the pool: `(images, labels)`.
#[allow(clippy::too_many_arguments)]
fn serial_prototypes(
    classes: usize,
    modes: usize,
    n: usize,
    pixels: usize,
    signal: f64,
    noise: f64,
    label_noise: f64,
    rng: &mut DetRng,
) -> (Vec<f32>, Vec<usize>) {
    let protos: Vec<Vec<f32>> = (0..classes * modes)
        .map(|_| {
            (0..pixels)
                .map(|_| rng.normal_ms(0.0, signal) as f32)
                .collect()
        })
        .collect();
    let mut data = Vec::with_capacity(n * pixels);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let class = i % classes;
        let mode = rng.index(modes);
        for &pv in &protos[class * modes + mode] {
            data.push(pv + rng.normal_ms(0.0, noise) as f32);
        }
        let label = if label_noise > 0.0 && rng.uniform() < label_noise {
            rng.index(classes)
        } else {
            class
        };
        labels.push(label);
    }
    (data, labels)
}

/// Every image of `ds`, in order.
fn images(ds: &Dataset) -> Vec<f32> {
    let all: Vec<usize> = (0..ds.len()).collect();
    ds.batch(&all).0.into_data()
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// The spare (if any) and the next 8 normals, then a raw word.
fn fingerprint(rng: &DetRng) -> Vec<u64> {
    let mut r = rng.clone();
    let mut out: Vec<u64> = (0..9).map(|_| r.normal().to_bits()).collect();
    out.push(r.next_u64());
    out
}

fn prototypes_match_serial(label: &str) {
    // An odd pixel count (15) and the shipped 1×12×12 images; a high label
    // noise so the label draws interleave often.
    for shape in [Shape::d4(1, 1, 3, 5), Shape::d4(1, 1, 12, 12)] {
        let pixels = shape.numel();
        let chunk = draws::rows_per_chunk(pixels);
        for n in [1, chunk - 1, chunk, chunk + 1, 3 * chunk + 7] {
            for spare in [false, true] {
                let mut rng = DetRng::seed_from_u64(n as u64 * 31 + pixels as u64);
                if spare {
                    rng.normal();
                }
                let mut reference = rng.clone();
                let ds = Dataset::gaussian_prototypes(4, 3, n, shape, 0.6, 1.0, 0.3, &mut rng);
                let (want, want_labels) =
                    serial_prototypes(4, 3, n, pixels, 0.6, 1.0, 0.3, &mut reference);
                let at = format!("{label}: {pixels} px, n = {n}, spare = {spare}");
                assert!(bits(&images(&ds)) == bits(&want), "{at}: images differ");
                assert_eq!(ds.labels(), want_labels, "{at}: labels differ");
                assert_eq!(
                    fingerprint(&rng),
                    fingerprint(&reference),
                    "{at}: the caller's rng ends elsewhere"
                );
            }
        }
    }
}

#[test]
fn gaussian_prototypes_equal_the_serial_stream_from_the_test_thread() {
    prototypes_match_serial("test thread");
}

#[test]
fn gaussian_prototypes_equal_the_serial_stream_inline_inside_a_pool_job() {
    par::spawn(|| prototypes_match_serial("inside a job")).join();
}

/// `sim_paper`'s training set: FNV-1a over the images' bits and the labels.
#[test]
fn synth_vision_digest_is_pinned() {
    let ds = Dataset::synth_vision(26_000, 7);
    let labels = ds.labels().iter().flat_map(|&y| (y as u64).to_le_bytes());
    let bytes = images(&ds)
        .into_iter()
        .flat_map(f32::to_le_bytes)
        .chain(labels);
    let h = bytes.fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    });
    assert_eq!(h, 0x6505_1111_655c_a0f8);
}

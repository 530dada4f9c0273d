//! Incremental training with checkpoints — the workflow the paper's
//! introduction motivates: "DL models then periodically start or resume
//! training process with the collected data" (§1).
//!
//! A model trains on the data a micro-cloud has collected so far, is
//! checkpointed, and later *resumes* when a new batch of edge data arrives —
//! without losing the accumulated knowledge, and measurably better than
//! retraining from scratch on the new data alone.
//!
//! ```text
//! cargo run --release --example incremental_training
//! ```

use dlion::core::messages::{Payload, WireCfg};
use dlion::prelude::*;

fn train(model: &mut Model, ds: &Dataset, shard: &[usize], iters: usize, rng: &mut DetRng) {
    let opt = Sgd::new(0.15);
    for _ in 0..iters {
        opt.step(model, ds, shard, 32, rng);
    }
}

fn main() {
    // "Day 1": the micro-cloud has collected 4000 samples.
    let ds = Dataset::synth_vision(12_000, 7);
    let day1: Vec<usize> = (0..4_000).collect();
    let test: Vec<usize> = (10_000..11_000).collect();
    let mut rng = DetRng::seed_from_u64(1);
    let mut model = ModelSpec::Cipher.build(&ds.sample_shape(), ds.classes(), &mut rng);

    train(&mut model, &ds, &day1, 600, &mut rng);
    let day1_eval = model.evaluate(&ds, &test, 200);
    let day1_acc = day1_eval.accuracy;
    println!("after day-1 training:        accuracy {day1_acc:.3}");

    // Checkpoint (in memory here; any byte sink works): the weights as one
    // checksummed `Weights` frame, the bytes a DKT weight transfer sends.
    let checkpoint = Payload::Weights {
        weights: model.weights(),
        sender_loss: day1_eval.loss,
    }
    .to_wire(&WireCfg::default());
    println!(
        "checkpoint: {} bytes for {} parameters",
        checkpoint.len(),
        model.num_params()
    );

    // "Day 2": 4000 new samples arrive. Resume from the checkpoint...
    let day2: Vec<usize> = (4_000..8_000).collect();
    let mut resumed = ModelSpec::Cipher.build(&ds.sample_shape(), ds.classes(), &mut rng);
    match Payload::from_wire(&checkpoint, &mut Vec::new()).expect("restore") {
        Payload::Weights { weights, .. } => resumed.set_weights(&weights),
        other => panic!("a checkpoint holds weights, not {}", other.kind()),
    }
    train(&mut resumed, &ds, &day2, 600, &mut rng);
    let resumed_acc = resumed.evaluate(&ds, &test, 200).accuracy;

    // ...versus training from scratch on day-2 data only.
    let mut scratch = ModelSpec::Cipher.build(&ds.sample_shape(), ds.classes(), &mut rng);
    train(&mut scratch, &ds, &day2, 600, &mut rng);
    let scratch_acc = scratch.evaluate(&ds, &test, 200).accuracy;

    println!("resumed + day-2 training:    accuracy {resumed_acc:.3}");
    println!("scratch on day-2 data only:  accuracy {scratch_acc:.3}");
    assert!(
        resumed_acc > day1_acc - 0.05,
        "resuming must not lose knowledge"
    );
    println!("\nresuming from the checkpoint retains day-1 knowledge while learning day-2 data.");
}

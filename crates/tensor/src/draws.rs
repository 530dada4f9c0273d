//! A run's large set-up draws on the pool, bit for bit.
//!
//! A synthetic dataset or a large [`crate::Tensor::randn`] is one long
//! Gaussian stream from one [`DetRng`]. It is cut into fixed chunks (of
//! [`CHUNK`] draws, or of whole rows for a dataset) whose start states a
//! serial walk records — [`DetRng::skip_normals`] costs two `next_u64` per
//! pair, no `ln`/`sin`/`cos` — and then the chunks are filled on the pool,
//! each in place inside the one output buffer. Every value equals the
//! serial stream's, and the caller's `rng` ends where the serial loop
//! leaves it, whatever ran the chunks: pool threads, the caller, or the
//! caller alone when it is itself a pool job (an experiment cell), where
//! `par_map` runs every chunk inline.

use crate::par;
use crate::rng::DetRng;
use std::sync::{Mutex, PoisonError};

/// Normal draws per chunk. A smaller stream is drawn inline by its caller.
pub const CHUNK: usize = 1 << 16;

/// Rows of `row_len` draws per chunk: whole rows, about [`CHUNK`] draws.
pub fn rows_per_chunk(row_len: usize) -> usize {
    (CHUNK / row_len.max(1)).max(1)
}

/// `n` draws of `N(0, std²)` as `f32`, the serial loop's values and end
/// state, chunk by chunk on the pool.
pub(crate) fn normals(n: usize, std: f32, rng: &mut DetRng) -> Vec<f32> {
    let mut out = vec![0.0f32; n];
    let starts = (0..n)
        .step_by(CHUNK)
        .map(|at| {
            let start = rng.clone();
            rng.skip_normals(CHUNK.min(n - at));
            start
        })
        .collect();
    fill_chunks(&mut out, CHUNK, starts, |_, mut rng, chunk| {
        for v in chunk {
            *v = rng.normal_ms(0.0, std as f64) as f32;
        }
    });
    out
}

/// Fill `out` in place, `chunk_len` floats at a time (the last chunk may be
/// shorter), on the pool: `fill(i, starts[i], chunk)` writes chunk `i` from
/// its recorded start state. There must be one start per chunk.
pub fn fill_chunks<F>(out: &mut [f32], chunk_len: usize, starts: Vec<DetRng>, fill: F)
where
    F: Fn(usize, DetRng, &mut [f32]) + Sync,
{
    assert_eq!(
        starts.len(),
        out.len().div_ceil(chunk_len),
        "one start state per chunk"
    );
    // Each chunk is locked once, by the job that fills it: the lock only
    // hands a disjoint `&mut` slice across the pool.
    let chunks: Vec<(usize, DetRng, Mutex<&mut [f32]>)> = starts
        .into_iter()
        .zip(out.chunks_mut(chunk_len))
        .enumerate()
        .map(|(i, (start, data))| (i, start, Mutex::new(data)))
        .collect();
    par::par_map(&chunks, |(i, start, data)| {
        let mut data = data.lock().unwrap_or_else(PoisonError::into_inner);
        fill(*i, start.clone(), &mut data);
    });
}

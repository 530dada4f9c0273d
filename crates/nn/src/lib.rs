//! # dlion-nn
//!
//! The deep-learning stack the DLion reproduction trains with: layers with
//! hand-written backprop, sequential models, the two evaluation models from
//! the paper (§5.1.1) — *CipherNet* (3 conv + 2 fully-connected layers) and
//! a MobileNet-style depthwise-separable network (*MicroMobileNet*) — plus
//! synthetic datasets standing in for CIFAR10/ImageNet (see DESIGN.md §1
//! for the substitution argument) and a plain SGD optimizer.
//!
//! The crate exposes exactly the surface DLion's worker needs:
//!
//! * [`Model::forward_backward_scratch`] — one gradient computation over a
//!   minibatch (Eq. 6 of the paper: mean gradient over the local batch),
//!   every buffer drawn from the worker's arena,
//! * [`Model::apply_sparse_update`] / [`Model::apply_dense_update`] — the
//!   weighted model update (Eq. 7),
//! * [`Model::weights`] / [`Model::merge_weights`] — direct knowledge
//!   transfer's weight pull and λ-merge (§3.4),
//! * [`Dataset`] sharding across workers.

pub mod dataset;
pub mod layer;
pub mod metrics;
pub mod model;
pub mod models;
pub mod momentum;
pub mod serialize;
pub mod sgd;

pub use dataset::{Dataset, ShardPlan};
pub use layer::{Conv2d, Dense, DepthwiseConv2d, Flatten, Layer, MaxPool2, Relu};
pub use model::{EvalResult, Model};
pub use models::{cipher_net, micro_mobilenet, ModelSpec};
pub use sgd::Sgd;

//! # dc-core — prefix computation and sorting in the dual-cube
//!
//! Reproduction of *Prefix Computation and Sorting in Dual-Cube* (Li,
//! Peng & Chu, ICPP 2008): the paper's two algorithms, the baselines they
//! are measured against, and the extensions it lists as future work — all
//! running on the cycle-accurate 1-port simulator of [`dc_simulator`] over
//! the topologies of [`dc_topology`].
//!
//! | Module | Paper artefact |
//! |---|---|
//! | [`prefix::hypercube`] | Algorithm 1, `Cube_prefix` |
//! | [`prefix::dualcube`] | **Algorithm 2, `D_prefix`** — Theorem 1: `2n+1` comm, `2n` comp |
//! | [`sort::hypercube`] | Section 5, bitonic sort on `Q_m` |
//! | [`sort::dualcube`] | **Algorithm 3, `D_sort`** — Theorem 2: ≤ `6n²` comm, ≤ `2n²` comp |
//! | [`emulate`] | Technique 2: generic hypercube emulation, ≤ 3× overhead (Section 7) |
//! | [`prefix::large`], [`sort::large`] | future work 1: inputs larger than the network |
//! | [`collectives`] | future work 3: broadcast / reduce / all-reduce in `2n` steps |
//! | [`theory`] | the theorems' closed forms, for comparing measured vs stated |
//!
//! ## Quick start
//!
//! ```
//! use dc_core::prefix::{dualcube::{d_prefix, Step5Mode}, PrefixKind};
//! use dc_core::ops::Sum;
//! use dc_core::run::Recording;
//! use dc_topology::DualCube;
//!
//! let d = DualCube::new(3);
//! let input: Vec<Sum> = (1..=32).map(Sum).collect();
//! let run = d_prefix(&d, &input, PrefixKind::Inclusive,
//!                    Step5Mode::PaperFaithful, Recording::Off);
//! assert_eq!(run.prefixes[31].0, (1..=32).sum::<i64>());
//! assert_eq!(run.metrics.comm_steps, 7);  // Theorem 1: 2n+1
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod apps;
pub mod collectives;
pub mod emulate;
pub mod emulate_mc;
pub mod fault;
pub mod lanes;
pub mod model;
pub mod ops;
pub mod prefix;
pub mod run;
pub mod sort;
pub mod theory;

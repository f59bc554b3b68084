//! # prkb-bench
//!
//! The experiment harness regenerating every table and figure of the PRKB
//! paper's evaluation (§8). Each experiment lives in its own module and is
//! driven by the `repro` binary (`cargo run -p prkb-bench --bin repro --release -- <exp>`).
//!
//! Scaling: the paper runs 10–20M-tuple datasets on a dedicated testbed.
//! By default every experiment runs at a reduced scale that finishes on a
//! laptop; set `PRKB_SCALE=paper` for paper-sized runs (see
//! [`scale::Scale`]). EXPERIMENTS.md records both the paper's numbers and
//! ours, with the shape comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod exp_ablations;
pub mod exp_checkpoint;
pub mod exp_fig11_fig12;
pub mod exp_fig13;
pub mod exp_fig8;
pub mod exp_fig9_fig10;
pub mod exp_layers;
pub mod exp_server_conns;
pub mod exp_shard_commit;
pub mod exp_table2;
pub mod exp_table3;
pub mod exp_table4;
pub mod harness;
pub mod json;
pub mod scale;
pub mod trajectory;

pub use scale::Scale;
pub use trajectory::{BenchFile, BenchRow};

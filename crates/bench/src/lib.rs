#![warn(missing_docs)]
//! # sharebackup-bench
//!
//! Shared harness code for the per-figure/per-table binaries in `src/bin/`.
//! Each binary regenerates one table or figure of the paper; see DESIGN.md
//! for the experiment index and EXPERIMENTS.md for recorded results.

pub mod args;
pub mod campaign;
pub mod fig1;
pub mod parallel;
pub mod racks;
pub mod trace;

pub use args::{Args, ArgsError};
pub use parallel::parallel_map_indexed;
pub use racks::RackMap;
pub use trace::{indexed_traces, traced, write_trace_files};

//! End-to-end and per-layer benchmark of the ShareBackup simulation stack.
//!
//! A run executes trials of one workload back to back until its time is
//! up and prints one JSON line of metrics. Untraced runs call the layers
//! bare and report end-to-end metrics; traced runs repeat every trial
//! with host-time attribution ([`timed::Timed`] plus a recording
//! `Tracer`), check that tracing changed no output bit, and report
//! per-layer metrics; [`report`] defines every metric.
//!
//! From the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig1c|chaos|packet> --seed 42 --seconds 25 --trace 0
//! ```
//!
//! A traced run (`--trace 1`) also writes its layer report to
//! `perfbench/out/<workload>-seed<seed>.json`.

pub mod chaos;
pub mod check;
pub mod cli;
pub mod fig1c;
pub mod layers;
pub mod packet;
pub mod report;
pub mod timed;

use check::{Digest, Failures};
use layers::Layers;

/// The seed whose per-trial digests are recorded in `golden.txt`.
pub const DEFAULT_SEED: u64 = 42;

/// What one trial of a workload reports.
#[derive(Clone, Debug)]
pub struct Trial {
    /// Host seconds from the start of the trial to its first simulated
    /// event: topology builds, trace or schedule generation, worlds.
    pub setup_s: f64,
    /// Host seconds inside the simulators.
    pub sim_s: f64,
    /// Input flows simulated, counted once per simulation.
    pub flows: u64,
    /// Input payload simulated, counted once per simulation.
    pub payload_bytes: u64,
    /// Digest of every simulated output.
    pub digest: Digest,
    /// Output checks that failed.
    pub failures: Failures,
    /// Per-layer sums (traced trials; setup timings always).
    pub layers: Layers,
}

/// A benchmark workload: a seeded sequence of independent trials.
pub trait Workload {
    /// `Some(p)`: a run cycles through trials `0..p` (at least once), so
    /// every run times the same trials. `None`: a run takes trials
    /// `0, 1, 2, ...`, a fresh sample from the seed's sequence.
    fn pool(&self) -> Option<usize> {
        None
    }

    /// Run trial `index`. Traced trials attribute host time to layers;
    /// untraced ones call the layers bare.
    fn trial(&mut self, index: usize, traced: bool) -> Trial;
}

/// The workloads by name.
pub const WORKLOADS: [&str; 3] = ["fig1c", "chaos", "packet"];

/// The workload named `name` over `seed`.
pub fn workload(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    match name {
        "fig1c" => Some(Box::new(fig1c::Fig1c::paper(seed))),
        "chaos" => Some(Box::new(chaos::Chaos::paper(seed))),
        "packet" => Some(Box::new(packet::Packet::paper(seed))),
        _ => None,
    }
}

/// The digests recorded for trial `index` of `workload` at
/// [`DEFAULT_SEED`].
pub fn golden(workload: &str, index: usize) -> Option<&'static str> {
    include_str!("../golden.txt").lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let (w, i, hex) = (f.next()?, f.next()?, f.next()?);
        (w == workload && i.parse() == Ok(index)).then_some(hex)
    })
}

//! Output checks: bit-exact digests and simulation invariants.
//!
//! Every check records a failure message instead of panicking, so a run
//! with a broken program still finishes and reports `failed > 0`.

use std::fmt::{self, Write};
use std::panic::{self, AssertUnwindSafe};

use sharebackup_core::ControllerStats;
use sharebackup_flowsim::{Environment, FlowSpec, SimOutcome};

/// FNV-1a over the `{:?}` rendering of values, so two runs agree only when
/// every float agrees bit for bit.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Write for Digest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

impl Digest {
    /// Fold the `{:?}` of `v` into the digest.
    pub fn debug(&mut self, v: &impl fmt::Debug) {
        // Writing into a hasher cannot fail.
        let _ = write!(self, "{v:?};");
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Failed checks of one trial.
#[derive(Clone, Debug, Default)]
pub struct Failures(pub Vec<String>);

impl Failures {
    /// Record `msg` unless `ok`.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.0.push(msg());
        }
    }

    /// Check a flow simulation's outcome against its inputs: every
    /// completed flow delivered all its bytes, and no link carried more
    /// than its capacity over the run.
    pub fn flow_outcome(
        &mut self,
        what: &str,
        env: &impl Environment,
        flows: &[FlowSpec],
        out: &SimOutcome,
    ) {
        let short = flows
            .iter()
            .zip(&out.flows)
            .filter(|(s, o)| o.completed.is_some() && o.delivered != s.bytes)
            .count();
        self.check(short == 0, || {
            format!("{what}: {short} completed flows short of their bytes")
        });
        let span = out.finished_at.as_secs_f64();
        let over = out
            .link_bits
            .iter()
            .filter(|&(&l, &bits)| bits > env.capacity(l) * span * (1.0 + 1e-9))
            .count();
        self.check(over == 0, || {
            format!("{what}: {over} links carried more than capacity")
        });
    }

    /// `ControllerStats::assert_consistent`, with its panic caught.
    pub fn controller_stats(&mut self, what: &str, stats: &ControllerStats) {
        let held = panic::catch_unwind(AssertUnwindSafe(|| stats.assert_consistent()));
        self.check(held.is_ok(), || {
            format!("{what}: controller counter algebra broken")
        });
    }

    /// Compare a digest with the one recorded for this trial, if any.
    pub fn golden(&mut self, what: &str, digest: &Digest, recorded: Option<&str>) {
        if let Some(want) = recorded {
            let got = digest.hex();
            self.check(got == want, || {
                format!("{what}: digest {got} != recorded {want}")
            });
        }
    }
}

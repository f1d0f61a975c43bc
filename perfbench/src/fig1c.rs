//! `fig1c`: the paper's Fig. 1(c) study at `fig1c_cct` scale.
//!
//! The trials are the first [`POOL`] of `fig1c_cct --k 16 --seed 42`, the
//! run timed as the headline number: trial `i` replays the trace of
//! `Fig1Setup::paper(16, 42).with_load(6.0)` against the `i`-th failure
//! of the `"fig1c-failures"` stream of the workload's seed, node and link
//! alternating. At seed 42 a trial is exactly `fig1c_cct`'s. The traces
//! stay those of seed 42 because their cost is heavy-tailed (0.3-6 s per
//! trial): with per-seed traces a run's figures moved 40% or more from one
//! seed to the next. A run cycles through the pool at least
//! [`crate::report::MIN_PASSES`] times, so each trial's time is a median.
//! Five flow simulations per trial: fat-tree and F10, each without and
//! with the failure, and ShareBackup under its controller.

use std::time::Instant;

use sharebackup_bench::fig1::{slowdowns, AbstractFailure, CctRun, Fig1Setup, Fig1cTrial};
use sharebackup_core::scenario::{
    sharebackup_timeline, F10World, FatTreeWorld, RecoveryMode, ShareBackupWorld, TopoEvent,
};
use sharebackup_core::{Controller, ControllerConfig};
use sharebackup_flowsim::SimOutcome;
use sharebackup_sim::SimRng;
use sharebackup_topo::{F10Topology, FatTree, ShareBackup, ShareBackupConfig};
use sharebackup_workload::CoflowTrace;

use crate::check::{Digest, Failures};
use crate::layers::{simulate, timed, Layers};
use crate::{Trial, Workload};

/// Seed of the replayed traces: that of the headline `fig1c_cct` run.
pub const TRACE_SEED: u64 = 42;
/// Trials in the pool a run cycles through.
pub const POOL: usize = 4;

/// The workload over one seed.
pub struct Fig1c {
    setup: Fig1Setup,
    rng: SimRng,
    failures: Vec<AbstractFailure>,
}

impl Fig1c {
    /// The benchmark's configuration for `seed`.
    pub fn paper(seed: u64) -> Fig1c {
        Fig1c::new(Fig1Setup::paper(16, TRACE_SEED).with_load(6.0), seed)
    }

    /// Traces of `setup` (any Fig. 1 configuration; tests use small ones)
    /// against failures drawn from `failure_seed`.
    pub fn new(setup: Fig1Setup, failure_seed: u64) -> Fig1c {
        Fig1c {
            setup,
            rng: SimRng::seed_from_u64(failure_seed).child("fig1c-failures"),
            failures: Vec::new(),
        }
    }

    /// The failure of trial `trial`, drawn in order from the shared stream.
    pub fn failure(&mut self, trial: usize) -> AbstractFailure {
        while self.failures.len() <= trial {
            let k = self.setup.k;
            let f = if self.failures.len().is_multiple_of(2) {
                AbstractFailure::sample_node(&mut self.rng, k)
            } else {
                AbstractFailure::sample_link(&mut self.rng, k)
            };
            self.failures.push(f);
        }
        self.failures[trial]
    }

    /// Run trial `index` and also return its slowdowns, as
    /// `sharebackup_bench::fig1::run_fig1c_trial` reports them.
    pub fn run(&mut self, index: usize, traced: bool) -> (Trial, Fig1cTrial) {
        let failure = self.failure(index);
        let setup = self.setup;
        let cfg = setup.ft_config();
        let mut layers = Layers::default();
        let t0 = Instant::now();
        let ft = timed(&mut layers, "topo.build_s", || FatTree::build(cfg));
        let trace = timed(&mut layers, "workload.trace_gen_s", || {
            setup.trace(&ft, index)
        });
        let ft_fail = timed(&mut layers, "topo.build_s", || FatTree::build(cfg));
        let f10 = timed(&mut layers, "topo.build_s", || F10Topology::build(cfg));
        let f10_fail = timed(&mut layers, "topo.build_s", || F10Topology::build(cfg));
        let sb = timed(&mut layers, "topo.build_s", || {
            ShareBackup::build(ShareBackupConfig::for_fattree(cfg, setup.n))
        });

        let epochs = [setup.fail_at, setup.fail_at + setup.outage];
        let ev = failure.to_fattree(&ft_fail);
        let mut ft_base = FatTreeWorld::new(ft, RecoveryMode::GlobalOptimal, vec![]);
        let mut ft_fail =
            FatTreeWorld::new(ft_fail, RecoveryMode::GlobalOptimal, vec![ev, repair(ev)]);
        let ev = failure.to_f10(&f10_fail);
        let mut f10_base = F10World::new(f10, vec![]);
        let mut f10_fail = F10World::new(f10_fail, vec![ev, repair(ev)]);
        let mut sb_world =
            ShareBackupWorld::new(Controller::new(sb, ControllerConfig::default()), vec![]);
        let ev = failure.to_sharebackup(&sb_world.controller.sb);
        let (events, sb_epochs) = sharebackup_timeline(&sb_world, &[(setup.fail_at, ev)]);
        sb_world.events = events;
        let setup_s = t0.elapsed().as_secs_f64();

        let specs = &trace.specs;
        let mut tl = traced.then_some(&mut layers);
        let (o_ft_base, w0) = simulate(&mut ft_base, specs, &[], tl.as_deref_mut());
        let (o_ft_fail, w1) = simulate(&mut ft_fail, specs, &epochs, tl.as_deref_mut());
        let (o_f10_base, w2) = simulate(&mut f10_base, specs, &[], tl.as_deref_mut());
        let (o_f10_fail, w3) = simulate(&mut f10_fail, specs, &epochs, tl.as_deref_mut());
        let (o_sb, w4) = simulate(&mut sb_world, specs, &sb_epochs, tl.as_deref_mut());
        let sim_s = w0 + w1 + w2 + w3 + w4;

        let base_ft = ccts(&trace, &o_ft_base);
        let sd_ft = slowdowns(&base_ft, &ccts(&trace, &o_ft_fail));
        let sd_f10 = slowdowns(&ccts(&trace, &o_f10_base), &ccts(&trace, &o_f10_fail));
        let sd_sb = slowdowns(&base_ft, &ccts(&trace, &o_sb));

        let mut failures = Failures::default();
        failures.flow_outcome("fat-tree base", &ft_base, specs, &o_ft_base);
        failures.flow_outcome("fat-tree failure", &ft_fail, specs, &o_ft_fail);
        failures.flow_outcome("F10 base", &f10_base, specs, &o_f10_base);
        failures.flow_outcome("F10 failure", &f10_fail, specs, &o_f10_fail);
        failures.flow_outcome("ShareBackup", &sb_world, specs, &o_sb);
        let stats = sb_world.controller.stats;
        failures.controller_stats("ShareBackup", &stats);
        if !failure.strands_hosts() {
            let max = sd_sb.0.iter().copied().fold(0.0, f64::max);
            failures.check(sd_sb.1 == 0 && max <= 1.0 + 1e-9, || {
                format!(
                    "ShareBackup under {failure:?}: {} stranded, max slowdown {max}",
                    sd_sb.1
                )
            });
        }
        let mut digest = Digest::default();
        for out in [&o_ft_base, &o_ft_fail, &o_f10_base, &o_f10_fail, &o_sb] {
            digest.debug(&out.flows);
        }
        digest.debug(&(&sd_ft, &sd_f10, &sd_sb));

        if let Some(l) = tl {
            l.add("core.recoveries", sb_world.recoveries.len() as f64);
            l.add("core.fallbacks", stats.fallbacks as f64);
            l.add("core.control_retries", stats.control_retries as f64);
        }
        let flows = 5 * specs.len() as u64;
        let payload_bytes = 5 * specs.iter().map(|s| s.bytes).sum::<u64>();
        let trial = Trial {
            setup_s,
            sim_s,
            flows,
            payload_bytes,
            digest,
            failures,
            layers,
        };
        let slowdowns = Fig1cTrial {
            ft: sd_ft,
            f10: sd_f10,
            sb: sd_sb,
            trace: None,
        };
        (trial, slowdowns)
    }
}

/// The repair event undoing a topology failure.
fn repair(ev: TopoEvent) -> TopoEvent {
    match ev {
        TopoEvent::FailNode(n) => TopoEvent::RepairNode(n),
        TopoEvent::FailLink(l) => TopoEvent::RepairLink(l),
        other => other,
    }
}

fn ccts(trace: &CoflowTrace, out: &SimOutcome) -> CctRun {
    CctRun {
        cct: trace
            .coflows
            .iter()
            .map(|cf| cf.cct(&trace.specs, out).map(|d| d.as_secs_f64()))
            .collect(),
    }
}

impl Workload for Fig1c {
    fn pool(&self) -> Option<usize> {
        Some(POOL)
    }

    fn trial(&mut self, index: usize, traced: bool) -> Trial {
        self.run(index, traced).0
    }
}

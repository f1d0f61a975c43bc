//! `chaos`: ShareBackup riding out a hostile failure schedule.
//!
//! k = 8, n = 1, a 600 s horizon with a wave of 1 Gbit host-to-host flows
//! every 30 s. Poisson failures (10 s mean, 70% nodes), bursts (20 s
//! mean), two flapping links and controller crashes (60 s mean, 20 s
//! dwell); every machinery chaos rate at 0.1; a 3-replica failover plane
//! with 0.2 control loss and a 0.1 crash rate; `DegradedMode::Reroute`
//! with exhausted slots retried on repair. Backup pools run dry, so many
//! flows ride the global-reroute fallback and every epoch re-routes every
//! live flow.

use std::time::Instant;

use sharebackup_core::failover::{FailoverConfig, FailoverPlane};
use sharebackup_core::scenario::{
    map_chaos_schedule, sharebackup_timeline, SbEvent, ShareBackupWorld,
};
use sharebackup_core::{ChaosConfig, Controller, ControllerConfig};
use sharebackup_flowsim::FlowSpec;
use sharebackup_routing::{DegradedMode, FlowKey};
use sharebackup_sim::{Duration, SimRng, Time};
use sharebackup_topo::{FatTree, FatTreeConfig, NodeId, ShareBackup, ShareBackupConfig};
use sharebackup_workload::{controller_crash_process, ChaosProfile, FailureInjector};

use crate::check::{Digest, Failures};
use crate::layers::{simulate, timed, Layers};
use crate::{Trial, Workload};

/// Bytes per flow: 1 Gbit.
const FLOW_BYTES: u64 = 125_000_000;
/// Controller replicas in the failover plane.
const REPLICAS: usize = 3;

/// The workload over one seed, at any scale (tests use small ones).
#[derive(Clone, Copy, Debug)]
pub struct Chaos {
    /// Fat-tree parameter.
    pub k: usize,
    /// Simulated horizon, seconds.
    pub horizon_secs: u64,
    /// A wave of flows starts this often, seconds.
    pub wave_secs: u64,
    /// Base seed; trial `i` uses the `"chaos-{i}"` child stream.
    pub seed: u64,
}

impl Chaos {
    /// The benchmark's configuration for `seed`.
    pub fn paper(seed: u64) -> Chaos {
        Chaos {
            k: 8,
            horizon_secs: 600,
            wave_secs: 30,
            seed,
        }
    }

    /// Build the world of trial `index`, its epoch times and its flows.
    /// Unwrapped callers (tests) drive the result with `FlowSim::run`.
    pub fn build(
        &self,
        index: usize,
        layers: &mut Layers,
    ) -> (ShareBackupWorld, Vec<Time>, Vec<FlowSpec>) {
        let rng = SimRng::seed_from_u64(self.seed).child(&format!("chaos-{index}"));
        let (sb, probe) = timed(layers, "topo.build_s", || {
            (
                ShareBackup::build(ShareBackupConfig::new(self.k, 1)),
                FatTree::build(FatTreeConfig::new(self.k)),
            )
        });
        let cfg = ControllerConfig {
            retry_exhausted_on_repair: true,
            ..ControllerConfig::default()
        };
        let machinery = ChaosConfig {
            doa_rate: 0.1,
            reconfig_failure_rate: 0.1,
            false_conviction_rate: 0.1,
            false_exoneration_rate: 0.1,
            ..ChaosConfig::off()
        };
        let controller = Controller::with_chaos(sb, cfg, machinery, rng.child("machinery"));
        let control = ChaosConfig {
            control_loss_rate: 0.2,
            controller_crash_rate: 0.1,
            ..ChaosConfig::off()
        };
        let fcfg = FailoverConfig {
            replicas: REPLICAS,
            ..FailoverConfig::default()
        };
        let plane = FailoverPlane::with_chaos(fcfg, control, rng.child("control-chaos"));
        let mut world = ShareBackupWorld::new(controller, vec![])
            .with_degraded_mode(DegradedMode::Reroute)
            .with_failover(plane);

        let (epochs, flows) = timed(layers, "workload.schedule_s", || {
            let horizon = Time::from_secs(self.horizon_secs);
            let profile = ChaosProfile {
                poisson_interarrival: Some(Duration::from_secs(10)),
                poisson_node_fraction: 0.7,
                burst_interarrival: Some(Duration::from_secs(20)),
                flapping_links: 2,
                controller_crash_interarrival: Some(Duration::from_secs(60)),
                controller_crash_dwell: Duration::from_secs(20),
                ..ChaosProfile::quiet()
            };
            let schedule_rng = rng.child("schedule");
            let injector = FailureInjector::new(&probe.net);
            let data = injector.chaos_process(&schedule_rng, &probe.net, horizon, &profile);
            let mut failures = map_chaos_schedule(&world.controller.sb, &probe.net, &data);
            for ev in controller_crash_process(&schedule_rng, horizon, REPLICAS, &profile) {
                failures.push((ev.at, SbEvent::ControllerCrash(ev.replica)));
                failures.push((ev.restored_at(), SbEvent::ControllerRestore(ev.replica)));
            }
            failures.sort_by_key(|&(t, _)| t);
            let (events, epochs) = sharebackup_timeline(&world, &failures);
            world.events = events;
            (epochs, self.traffic(probe.hosts()))
        });
        (world, epochs, flows)
    }

    /// Waves of host-to-host flows over the horizon: each wave, every host
    /// sends one flow to a partner that rotates across waves.
    fn traffic(&self, hosts: &[NodeId]) -> Vec<FlowSpec> {
        let h = hosts.len();
        let waves = self.horizon_secs / self.wave_secs;
        let mut flows = Vec::new();
        for w in 0..waves {
            let w = usize::try_from(w).expect("wave count fits usize");
            let offset = 1 + (w * (h / 4 + 1)) % (h - 1);
            for i in 0..h {
                flows.push(FlowSpec {
                    key: FlowKey::new(hosts[i], hosts[(i + offset) % h], (w * h + i) as u64),
                    bytes: FLOW_BYTES,
                    arrival: Time::from_secs(self.wave_secs * w as u64),
                });
            }
        }
        flows
    }
}

impl Workload for Chaos {
    fn trial(&mut self, index: usize, traced: bool) -> Trial {
        let mut layers = Layers::default();
        let t0 = Instant::now();
        let (mut world, epochs, flows) = self.build(index, &mut layers);
        let setup_s = t0.elapsed().as_secs_f64();
        let mut tl = traced.then_some(&mut layers);
        let (out, sim_s) = simulate(&mut world, &flows, &epochs, tl.as_deref_mut());

        let stats = world.controller.stats;
        let mut failures = Failures::default();
        failures.flow_outcome("chaos", &world, &flows, &out);
        failures.controller_stats("chaos", &stats);
        let mut digest = Digest::default();
        digest.debug(&out.flows);
        digest.debug(&stats);
        if let Some(l) = tl {
            let pending = world
                .failover
                .as_ref()
                .map_or(0, FailoverPlane::pending_count);
            l.add("core.recoveries", world.recoveries.len() as f64);
            l.add("core.fallbacks", stats.fallbacks as f64);
            l.add("core.control_retries", stats.control_retries as f64);
            l.add("core.pending_end", pending as f64);
        }
        Trial {
            setup_s,
            sim_s,
            flows: flows.len() as u64,
            payload_bytes: flows.iter().map(|f| f.bytes).sum(),
            digest,
            failures,
            layers,
        }
    }
}

//! [`Environment`] implementations for the three compared systems.
//!
//! The Fig. 1-style experiments run the same trace through three worlds:
//!
//! * [`FatTreeWorld`] — plain fat-tree; on failure, global rerouting
//!   (hash-based or load-aware "optimal") over the surviving paths.
//! * [`F10World`] — the AB fat-tree with F10's local rerouting.
//!
//!   Both are a [`RerouteWorld`]: the same failure bookkeeping over a
//!   [`FatTree`], differing only in the [`Rerouter`].
//! * [`ShareBackupWorld`] — the slot fat-tree under the recovery
//!   [`Controller`]: failures briefly down a slot, the controller swaps in
//!   a backup after the modeled detection+recovery latency, and flows
//!   resume **on their original paths** — no bandwidth loss, no dilation.
//!
//! Failure timelines are expressed as epoch events; the scenario builder
//! helpers produce the matched `(events, epoch_times)` pair the
//! [`sharebackup_flowsim::FlowSim`] consumes.

use sharebackup_flowsim::Environment;
use sharebackup_routing::{
    ecmp_path, DegradedMode, DegradedTracker, F10Router, FlowKey, GlobalReroute,
};
use sharebackup_sim::{Duration, Time};
use sharebackup_topo::{
    F10Topology, FatTree, LinkEnd, LinkId, Network, NodeId, PhysId, ShareBackup,
};
use sharebackup_workload::{FailureEvent, FailureKind};

use crate::controller::{Controller, Recovery};
use crate::failover::{CompletedRecovery, FailoverPlane, FailureReport};

/// How a fat-tree world reacts to failures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RecoveryMode {
    /// No rerouting: flows on broken paths stall (lower bound).
    None,
    /// Hash-based rerouting over surviving shortest paths.
    GlobalHash,
    /// Load-aware global assignment over surviving paths ("global optimal
    /// rerouting", the paper's fat-tree baseline).
    GlobalOptimal,
}

/// Topology mutations applied at epochs.
#[derive(Clone, Copy, Debug)]
pub enum TopoEvent {
    /// A switch dies.
    FailNode(NodeId),
    /// A link dies.
    FailLink(LinkId),
    /// A switch is repaired.
    RepairNode(NodeId),
    /// A link is repaired.
    RepairLink(LinkId),
}

impl TopoEvent {
    /// The repair that undoes this failure.
    ///
    /// # Panics
    /// Panics if `self` is already a repair.
    pub fn repair(self) -> TopoEvent {
        match self {
            TopoEvent::FailNode(n) => TopoEvent::RepairNode(n),
            TopoEvent::FailLink(l) => TopoEvent::RepairLink(l),
            repair => panic!("{repair:?} is not a failure"),
        }
    }
}

/// How a [`RerouteWorld`] routes while something is failed. While nothing
/// is, every flow takes its static ECMP path.
pub trait Rerouter {
    /// Route `flow` over the damaged tree; `None` = unroutable for now.
    fn reroute(&self, ft: &FatTree, flow: &FlowKey) -> Option<Vec<NodeId>>;

    /// Route every live flow at an epoch. Default: one at a time.
    fn reroute_all(&self, ft: &FatTree, flows: &[FlowKey]) -> Vec<Option<Vec<NodeId>>> {
        flows.iter().map(|f| self.reroute(ft, f)).collect()
    }
}

impl Rerouter for RecoveryMode {
    fn reroute(&self, ft: &FatTree, flow: &FlowKey) -> Option<Vec<NodeId>> {
        match self {
            RecoveryMode::None => {
                let p = ecmp_path(ft, flow);
                ft.net.path_usable(&p).then_some(p)
            }
            RecoveryMode::GlobalHash | RecoveryMode::GlobalOptimal => GlobalReroute::route(ft, flow),
        }
    }

    fn reroute_all(&self, ft: &FatTree, flows: &[FlowKey]) -> Vec<Option<Vec<NodeId>>> {
        match self {
            RecoveryMode::GlobalOptimal => GlobalReroute::route_all(ft, flows),
            _ => flows.iter().map(|f| self.reroute(ft, f)).collect(),
        }
    }
}

impl Rerouter for F10Router {
    fn reroute(&self, ft: &FatTree, flow: &FlowKey) -> Option<Vec<NodeId>> {
        F10Router::route(ft, flow)
    }
}

/// A fat-tree of either striping whose epoch [`TopoEvent`]s fail and
/// repair it, recovering by rerouting with `R`.
pub struct RerouteWorld<R> {
    /// The topology (failure state lives in `ft.net`).
    pub ft: FatTree,
    /// How flows are routed while something is failed.
    pub router: R,
    /// Event applied at epoch `i`.
    pub events: Vec<TopoEvent>,
}

/// Plain fat-tree with rerouting-based recovery.
pub type FatTreeWorld = RerouteWorld<RecoveryMode>;

/// F10 AB fat-tree with local rerouting.
pub type F10World = RerouteWorld<F10Router>;

impl FatTreeWorld {
    /// A world over `ft` with the given recovery mode and epoch events.
    pub fn new(ft: FatTree, mode: RecoveryMode, events: Vec<TopoEvent>) -> FatTreeWorld {
        RerouteWorld {
            ft,
            router: mode,
            events,
        }
    }
}

impl F10World {
    /// A world over `f10` with the given epoch events.
    pub fn new(f10: F10Topology, events: Vec<TopoEvent>) -> F10World {
        RerouteWorld {
            ft: f10.into(),
            router: F10Router,
            events,
        }
    }
}

impl<R: Rerouter> Environment for RerouteWorld<R> {
    fn capacity(&self, l: LinkId) -> f64 {
        self.ft.net.link(l).capacity_bps
    }
    fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.ft.net.link_between(a, b)
    }
    fn route(&mut self, flow: &FlowKey) -> Option<Vec<NodeId>> {
        if self.ft.net.all_up() {
            return Some(ecmp_path(&self.ft, flow));
        }
        self.router.reroute(&self.ft, flow)
    }
    fn route_all(&mut self, flows: &[FlowKey]) -> Vec<Option<Vec<NodeId>>> {
        if self.ft.net.all_up() {
            flows.iter().map(|f| self.route(f)).collect()
        } else {
            self.router.reroute_all(&self.ft, flows)
        }
    }
    fn on_epoch(&mut self, index: usize, _now: Time) {
        let net = &mut self.ft.net;
        match self.events[index] {
            TopoEvent::FailNode(n) => net.set_node_up(n, false),
            TopoEvent::FailLink(l) => net.set_link_up(l, false),
            TopoEvent::RepairNode(n) => net.set_node_up(n, true),
            TopoEvent::RepairLink(l) => net.set_link_up(l, true),
        }
    }
}

/// Failure injections for a ShareBackup world, phrased against physical
/// devices (the controller reacts at the following recovery epoch).
#[derive(Clone, Copy, Debug)]
pub enum SbEvent {
    /// A physical switch dies.
    NodeFail(PhysId),
    /// A link between two switch interfaces dies: ground truth is that
    /// `faulty.0`'s interface `faulty.1` broke; `other` is the far end.
    LinkFail {
        /// The actually-broken interface.
        faulty: (PhysId, usize),
        /// The innocent far end (also replaced, then exonerated).
        other: (PhysId, usize),
    },
    /// A host↔edge link dies. `switch_side` selects the ground truth: the
    /// edge switch's host-facing interface (replacement fixes it) or the
    /// host's NIC (the switch gets exonerated and the host trouble-shot,
    /// §4.2).
    HostLinkFail {
        /// The affected host.
        host: NodeId,
        /// Whether the switch-side interface is the broken one.
        switch_side: bool,
    },
    /// A keep-alive loss: the controller receives a failure report about a
    /// switch that is actually *healthy* (chaos). Ground truth is left
    /// untouched — only the report fires, and the controller counts it as
    /// spurious after evicting the innocent switch.
    SpuriousReport(PhysId),
    /// The controller reacts to everything injected since the last
    /// `Recover` (scheduled one recovery latency after the failure epoch).
    Recover,
    /// Complete due repairs.
    PollRepairs,
    /// A controller replica crashes (only meaningful for worlds carrying a
    /// [`FailoverPlane`]; a no-op otherwise). Crashing the primary opens a
    /// blackout during which submitted failures stay journaled and the
    /// data plane rides [`DegradedMode`].
    ControllerCrash(usize),
    /// A crashed controller replica comes back (plane worlds only).
    ControllerRestore(usize),
}

impl SbEvent {
    /// Break this failure's ground truth in `sb`. A spurious report leaves
    /// the (healthy) switch alone; recovery and control events are no-ops.
    pub fn inject(self, sb: &mut ShareBackup) {
        match self {
            SbEvent::NodeFail(p) => sb.set_phys_healthy(p, false),
            SbEvent::LinkFail { faulty, .. } => sb.set_iface_broken(faulty.0, faulty.1, true),
            SbEvent::HostLinkFail {
                host,
                switch_side: true,
            } => {
                // The host-facing interface of its edge slot's occupant breaks.
                let (slot, iface) = sb.host_edge(host);
                sb.set_iface_broken(sb.occupant(slot), iface, true);
            }
            SbEvent::HostLinkFail { host, .. } => sb.set_host_nic_broken(host, true),
            _ => {}
        }
    }

    /// The failure report this event sends the controller, if it is a
    /// failure (or a spurious report of one).
    pub fn report(self) -> Option<FailureReport> {
        match self {
            SbEvent::NodeFail(p) | SbEvent::SpuriousReport(p) => Some(FailureReport::Node(p)),
            SbEvent::LinkFail { faulty, other } => Some(FailureReport::Link { faulty, other }),
            SbEvent::HostLinkFail { host, .. } => Some(FailureReport::HostLink(host)),
            _ => None,
        }
    }
}

/// The ShareBackup system under its controller.
pub struct ShareBackupWorld {
    /// The controller (owns the network).
    pub controller: Controller,
    /// Event applied at epoch `i`.
    pub events: Vec<SbEvent>,
    pending: Vec<SbEvent>,
    /// Recoveries performed, for inspection by the harness.
    pub recoveries: Vec<Recovery>,
    /// Policy for flows whose static path crosses an unrecovered slot:
    /// stall (the paper's behavior, default) or fall back to global
    /// rerouting with per-flow accounting.
    pub degraded_mode: DegradedMode,
    /// Which flows ran degraded and for how long ([`DegradedMode::Reroute`]
    /// only). Call [`DegradedTracker::finalize`] with the simulation end
    /// time before reading totals.
    pub tracker: DegradedTracker,
    /// Optional replicated control plane. When present, failure reports
    /// travel through [`FailoverPlane::submit`] — the primary can crash
    /// mid-recovery and an elected successor re-drives the journaled work —
    /// instead of invoking the controller handlers directly. When `None`
    /// the world behaves exactly as before the control plane existed.
    pub failover: Option<FailoverPlane>,
    /// Recoveries completed through the plane, with report/completion
    /// timestamps (plane worlds only; direct-path recoveries land in
    /// [`ShareBackupWorld::recoveries`] without timing).
    pub failover_log: Vec<CompletedRecovery>,
    now: Time,
}

impl ShareBackupWorld {
    /// A world driven by `controller` with the given epoch events. The
    /// degraded mode defaults to [`DegradedMode::Stall`] — exactly the
    /// pre-chaos behavior.
    pub fn new(controller: Controller, events: Vec<SbEvent>) -> ShareBackupWorld {
        ShareBackupWorld {
            controller,
            events,
            pending: Vec::new(),
            recoveries: Vec::new(),
            degraded_mode: DegradedMode::Stall,
            tracker: DegradedTracker::new(),
            failover: None,
            failover_log: Vec::new(),
            now: Time::ZERO,
        }
    }

    /// Select the degraded-mode policy (builder style).
    pub fn with_degraded_mode(mut self, mode: DegradedMode) -> ShareBackupWorld {
        self.degraded_mode = mode;
        self
    }

    /// Route failure reports through a replicated control plane (builder
    /// style). See [`FailoverPlane`].
    pub fn with_failover(mut self, plane: FailoverPlane) -> ShareBackupWorld {
        self.failover = Some(plane);
        self
    }

    /// Poll the plane (if any) for journaled work that became driveable —
    /// the controller returned from a blackout, or a deferred retry came
    /// due — and collect completions. Cheap no-op when the journal is
    /// empty or no plane is attached.
    fn drive_failover(&mut self, now: Time) {
        if let Some(plane) = self.failover.as_mut() {
            plane.poll(&mut self.controller, now);
            for done in plane.take_completed() {
                self.recoveries.push(done.recovery.clone());
                self.failover_log.push(done);
            }
        }
    }

    /// The deterministic recovery latency of this deployment — scenario
    /// builders use it to place the `Recover` epoch.
    pub fn recovery_latency(&self) -> sharebackup_sim::Duration {
        self.controller
            .cfg
            .latency
            .total(crate::latency::RecoveryScheme::ShareBackup(
                self.controller.sb.cfg.tech,
            ))
    }

    fn sb(&self) -> &ShareBackup {
        &self.controller.sb
    }
}

impl Environment for ShareBackupWorld {
    fn capacity(&self, l: LinkId) -> f64 {
        self.sb().slots.net.link(l).capacity_bps
    }
    fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.sb().slots.net.link_between(a, b)
    }
    fn route(&mut self, flow: &FlowKey) -> Option<Vec<NodeId>> {
        // A flow whose endpoints sit in different components has neither a
        // usable static path nor a fallback, so both modes answer `None`
        // without building a path (and without touching the tracker).
        if !self.sb().slots.net.connected(flow.src, flow.dst) {
            return None;
        }
        // ShareBackup never reroutes: the static ECMP path, usable or not.
        // During the (sub-3ms) recovery window the path is down and the
        // flow stalls; after recovery the *same* path works again.
        let p = ecmp_path(&self.sb().slots, flow);
        if self.sb().slots.net.path_usable(&p) {
            self.tracker.mark_normal(flow.id, self.now);
            return Some(p);
        }
        match self.degraded_mode {
            // Stall until the slot heals (pre-chaos behavior).
            DegradedMode::Stall => None,
            // Graceful degradation: reroute exactly the affected flows
            // over the surviving topology, with explicit accounting.
            DegradedMode::Reroute => {
                let fallback = GlobalReroute::route(&self.controller.sb.slots, flow)?;
                if self.tracker.mark_degraded(flow.id, self.now) {
                    self.controller.stats.degraded_flows += 1;
                    self.controller
                        .tracer
                        .instant(self.now, "chaos", "flow-degraded");
                }
                Some(fallback)
            }
        }
    }
    fn on_advance(&mut self, now: Time) {
        // Keep the clock current so degraded spells opened from `route`
        // (which carries no timestamp) are stamped with the real instant,
        // not the last epoch's.
        self.now = now;
        // Journaled recoveries resume as soon as the engine's clock passes
        // the blackout end / retry deadline, not only at explicit epochs.
        self.drive_failover(now);
    }
    fn on_epoch(&mut self, index: usize, now: Time) {
        self.now = now;
        match self.events[index] {
            ev @ (SbEvent::NodeFail(_)
            | SbEvent::LinkFail { .. }
            | SbEvent::HostLinkFail { .. }
            | SbEvent::SpuriousReport(_)) => {
                ev.inject(&mut self.controller.sb);
                self.pending.push(ev);
            }
            SbEvent::Recover => {
                let pending = std::mem::take(&mut self.pending);
                for report in pending.into_iter().filter_map(SbEvent::report) {
                    match self.failover.as_mut() {
                        // Control-plane path: reports enter the journal and
                        // complete when the (possibly crashed / lossy) plane
                        // gets them through.
                        Some(plane) => plane.submit(&mut self.controller, report, now),
                        None => {
                            let r = report.drive(&mut self.controller, now);
                            self.recoveries.push(r);
                        }
                    }
                }
                self.drive_failover(now);
            }
            SbEvent::PollRepairs => {
                self.controller.poll_repairs(now);
                self.drive_failover(now);
            }
            SbEvent::ControllerCrash(id) => {
                if let Some(plane) = self.failover.as_mut() {
                    // Out-of-range ids are a schedule bug, not a data-plane
                    // event — surface them loudly.
                    plane
                        .crash_replica(&mut self.controller, id, now)
                        // lint:allow(unwrap) — scenario schedules name real replicas
                        .expect("crash event names a real replica");
                }
            }
            SbEvent::ControllerRestore(id) => {
                if let Some(plane) = self.failover.as_mut() {
                    plane
                        .restore_replica(&mut self.controller, id, now)
                        // lint:allow(unwrap) — scenario schedules name real replicas
                        .expect("restore event names a real replica");
                }
                self.drive_failover(now);
            }
        }
    }
}

/// Map the failure of a fat-tree switch or link onto the physical event the
/// controller sees. `net` is `sb`'s slot network or a plain [`FatTree`]
/// probe built with the same `k` (chaos schedules are sampled against a
/// probe because the injector speaks [`NodeId`]/[`LinkId`], not slots);
/// either way its ids name the same positions as `sb`'s slots. A node
/// failure on a host is no slot failure: `None`.
///
/// A link's lower end is the faulty one (the host-facing edge interface of
/// a host link, the upward interface of a switch link), matching the Fig. 1
/// mapping; [`ShareBackup::link_ends`] names the interfaces.
pub fn sb_event(sb: &ShareBackup, net: &Network, failure: FailureKind) -> Option<SbEvent> {
    let l = match failure {
        FailureKind::Node(n) => return Some(SbEvent::NodeFail(sb.occupant(sb.node_slot(n)?))),
        FailureKind::Link(l) => net.link(l),
    };
    let (lower, (upper, iface)) = sb.link_ends(sb.slots.net.link_between(l.a, l.b)?);
    Some(match lower {
        LinkEnd::Host(host) => SbEvent::HostLinkFail {
            host,
            switch_side: true,
        },
        LinkEnd::Iface(slot, faulty) => SbEvent::LinkFail {
            faulty: (sb.occupant(slot), faulty),
            other: (sb.occupant(upper), iface),
        },
    })
}

/// Translate an injector-produced chaos schedule (against a plain fat-tree
/// probe network) into the physical [`SbEvent`]s the controller sees.
/// Events are phrased against the *initial* occupancy — later events can
/// therefore name switches that have since been benched or repaired (a
/// stale report), which the controller must tolerate; that is part of the
/// chaos surface. Node failures landing on non-slot nodes (hosts) are
/// dropped.
pub fn map_chaos_schedule(
    sb: &ShareBackup,
    net: &Network,
    events: &[FailureEvent],
) -> Vec<(Time, SbEvent)> {
    events
        .iter()
        .filter_map(|ev| Some((ev.at, sb_event(sb, net, ev.kind)?)))
        .collect()
}

/// Build the matched `(events, epoch_times)` pair for a set of ShareBackup
/// failure injections: each failure epoch is followed by a `Recover` epoch
/// one recovery latency later, and by `PollRepairs` epochs when the
/// switch/host repair timers come due (so convicted switches rejoin the
/// pool and trouble-shot hosts come back within the simulation).
pub fn sharebackup_timeline(
    world: &ShareBackupWorld,
    failures: &[(Time, SbEvent)],
) -> (Vec<SbEvent>, Vec<Time>) {
    let lat = world.recovery_latency();
    let cfg = &world.controller.cfg;
    let mut pairs: Vec<(Time, SbEvent)> = Vec::with_capacity(failures.len() * 4);
    let eps = Duration::from_millis(1);
    for &(t, ev) in failures {
        pairs.push((t, ev));
        match ev {
            // Control-plane events recover nothing themselves; schedule a
            // poll for just after the plane becomes available again so
            // journaled recoveries resume even in flowless runs (where no
            // `on_advance` ticks past the blackout).
            SbEvent::ControllerCrash(_) => {
                if let Some(plane) = &world.failover {
                    pairs.push((t + plane.cfg.blackout() + eps, SbEvent::PollRepairs));
                }
                continue;
            }
            SbEvent::ControllerRestore(_) => {
                if let Some(plane) = &world.failover {
                    pairs.push((t + plane.cfg.election_time + eps, SbEvent::PollRepairs));
                }
                continue;
            }
            _ => {}
        }
        pairs.push((t + lat, SbEvent::Recover));
        // Repairs are scheduled relative to the Recover instant; poll just
        // after each possible due time.
        pairs.push((t + lat + cfg.switch_repair_time + eps, SbEvent::PollRepairs));
        pairs.push((t + lat + cfg.host_repair_time + eps, SbEvent::PollRepairs));
    }
    pairs.sort_by_key(|&(t, _)| t);
    let times = pairs.iter().map(|&(t, _)| t).collect();
    let events = pairs.into_iter().map(|(_, e)| e).collect();
    (events, times)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::ControllerConfig;
    use sharebackup_flowsim::{FlowSim, FlowSpec};
    use sharebackup_topo::{FatTreeConfig, GroupId, HostAddr, ShareBackupConfig};

    fn flows_ft(ft: &FatTree, n: u64, bytes: u64) -> Vec<FlowSpec> {
        (0..n)
            .map(|id| FlowSpec {
                key: FlowKey::new(
                    ft.host(HostAddr { pod: 0, edge: 0, host: (id % 2) as usize }),
                    ft.host(HostAddr { pod: 2, edge: 1, host: (id % 2) as usize }),
                    id,
                ),
                bytes,
                arrival: Time::ZERO,
            })
            .collect()
    }

    #[test]
    fn fat_tree_world_baseline_and_failure() {
        // Healthy run.
        let ft = FatTree::build(FatTreeConfig::new(4));
        let flows = flows_ft(&ft, 4, 125_000_000); // 1 Gbit each
        let mut world = FatTreeWorld::new(ft, RecoveryMode::GlobalOptimal, vec![]);
        let base = FlowSim::new().run(&mut world, &flows, &[]);
        assert!(base.flows.iter().all(|f| f.completed.is_some()));

        // Same run with a core failing at t=0.01s: flows finish but later.
        let ft = FatTree::build(FatTreeConfig::new(4));
        let core = ft.core(0);
        let mut world = FatTreeWorld::new(
            ft,
            RecoveryMode::GlobalOptimal,
            vec![TopoEvent::FailNode(core)],
        );
        let out = FlowSim::new().run(&mut world, &flows, &[Time::from_millis(10)]);
        assert!(out.flows.iter().all(|f| f.completed.is_some()));
        let t_base = base.flows.iter().filter_map(|f| f.completed).max().expect("flows ran");
        let t_fail = out.flows.iter().filter_map(|f| f.completed).max().expect("flows ran");
        // Global optimal rerouting *rebalances all flows* at the failure
        // epoch, so it can even beat the hash-ECMP baseline despite the
        // lost capacity; only gross speedups would indicate a bug.
        assert!(
            t_fail.as_secs_f64() >= t_base.as_secs_f64() * 0.5,
            "implausible speedup under failure: {t_fail:?} vs {t_base:?}"
        );
    }

    #[test]
    fn f10_world_routes_through_detours() {
        let f10 = F10Topology::build(FatTreeConfig::new(4));
        let src = f10.host(HostAddr { pod: 0, edge: 0, host: 0 });
        let dst = f10.host(HostAddr { pod: 1, edge: 1, host: 0 });
        let flows: Vec<FlowSpec> = (0..2)
            .map(|id| FlowSpec {
                key: FlowKey::new(src, dst, id),
                bytes: 1_250_000,
                arrival: Time::ZERO,
            })
            .collect();
        // Fail one core early.
        let core = f10.core(0);
        let mut world = F10World::new(f10, vec![TopoEvent::FailNode(core)]);
        let out = FlowSim::new().run(&mut world, &flows, &[Time::from_millis(1)]);
        assert!(out.flows.iter().all(|f| f.completed.is_some()));
    }

    #[test]
    fn sharebackup_world_restores_original_path() {
        let sb = ShareBackup::build(ShareBackupConfig::new(4, 1));
        let controller = Controller::new(sb, ControllerConfig::default());
        let mut world = ShareBackupWorld::new(controller, vec![]);

        let src = world.sb().slots.host(HostAddr { pod: 0, edge: 0, host: 0 });
        let dst = world.sb().slots.host(HostAddr { pod: 2, edge: 1, host: 0 });
        let flow = FlowKey::new(src, dst, 7);
        let original = world.route(&flow).expect("healthy route");
        // Fail the aggregation slot on the flow's path.
        let agg_node = original[2];
        let slot = world.sb().node_slot(agg_node).expect("agg slot");
        let victim = world.sb().occupant(slot);

        let failures = vec![(Time::from_millis(10), SbEvent::NodeFail(victim))];
        let (events, times) = sharebackup_timeline(&world, &failures);
        world.events = events;

        let flows = vec![FlowSpec {
            key: flow,
            bytes: 125_000_000,
            arrival: Time::ZERO,
        }];
        let out = FlowSim::new().run(&mut world, &flows, &times);
        assert!(out.flows[0].completed.is_some());
        // The flow stalled briefly but came back on the SAME path.
        assert!(out.flows[0].ever_stalled);
        let after = world.route(&flow).expect("route after recovery");
        assert_eq!(after, original, "no path change after recovery");
        assert_eq!(world.recoveries.len(), 1);
        assert!(world.recoveries[0].fully_recovered());
        // The stall cost ~2ms on a 100ms transfer: completion within 5% of
        // the no-failure time (0.1s at 10G... 1Gbit at 10G = 0.1s).
        let t = out.flows[0].completed.expect("done");
        assert!(t < Time::from_millis(110), "{t:?}");
    }

    #[test]
    fn sharebackup_link_failure_timeline() {
        let sb = ShareBackup::build(ShareBackupConfig::new(6, 1));
        let controller = Controller::new(sb, ControllerConfig::default());
        let mut world = ShareBackupWorld::new(controller, vec![]);
        let edge_phys = world.sb().occupant(GroupId::edge(0).slot(0));
        let agg_phys = world.sb().occupant(GroupId::agg(0).slot(0));
        // Edge(0,0) up-port 0 ↔ agg(0,0) down-port 0 (m=0, k=6 → iface 3).
        let failures = vec![(
            Time::from_millis(5),
            SbEvent::LinkFail {
                faulty: (edge_phys, 3),
                other: (agg_phys, 0),
            },
        )];
        let (events, times) = sharebackup_timeline(&world, &failures);
        world.events = events;
        let src = world.sb().slots.host(HostAddr { pod: 0, edge: 0, host: 0 });
        let dst = world.sb().slots.host(HostAddr { pod: 1, edge: 0, host: 0 });
        let flows: Vec<FlowSpec> = (0..4)
            .map(|id| FlowSpec {
                key: FlowKey::new(src, dst, id),
                bytes: 12_500_000,
                arrival: Time::ZERO,
            })
            .collect();
        let out = FlowSim::new().run(&mut world, &flows, &times);
        assert!(out.flows.iter().all(|f| f.completed.is_some()));
        // Diagnosis exonerated the agg side, convicted the edge side.
        assert_eq!(world.controller.stats.exonerations, 1);
        assert_eq!(world.controller.stats.convictions, 1);
    }

    #[test]
    fn timeline_builder_interleaves_and_sorts() {
        let sb = ShareBackup::build(ShareBackupConfig::new(4, 1));
        let world = ShareBackupWorld::new(
            Controller::new(sb, ControllerConfig::default()),
            vec![],
        );
        let p = world.sb().occupant(GroupId::edge(0).slot(0));
        let q = world.sb().occupant(GroupId::edge(1).slot(0));
        let failures = vec![
            (Time::from_secs(2), SbEvent::NodeFail(q)),
            (Time::from_secs(1), SbEvent::NodeFail(p)),
        ];
        let (events, times) = sharebackup_timeline(&world, &failures);
        // Per failure: inject + Recover + 2 PollRepairs.
        assert_eq!(events.len(), 8);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert!(matches!(events[0], SbEvent::NodeFail(_)));
        assert!(matches!(events[1], SbEvent::Recover));
        let lat = world.recovery_latency();
        assert_eq!(times[1], Time::from_secs(1) + lat);
        let polls = events
            .iter()
            .filter(|e| matches!(e, SbEvent::PollRepairs))
            .count();
        assert_eq!(polls, 4);
    }

    #[test]
    fn degraded_reroute_restores_connectivity_where_stall_does_not() {
        use sharebackup_routing::DegradedMode;
        use sharebackup_sim::Duration;

        // Exhaust agg pod-0's pool (n=1): first failure eats the spare,
        // second leaves its slot unrecovered.
        let build = || {
            let sb = ShareBackup::build(ShareBackupConfig::new(4, 1));
            let controller = Controller::new(sb, ControllerConfig::default());
            ShareBackupWorld::new(controller, vec![])
        };
        let exhaust = |world: &mut ShareBackupWorld| {
            let g = GroupId::agg(0);
            let v0 = world.controller.sb.occupant(g.slot(0));
            world.controller.sb.set_phys_healthy(v0, false);
            assert!(world
                .controller
                .handle_node_failure(v0, Time::from_millis(10))
                .fully_recovered());
            let v1 = world.controller.sb.occupant(g.slot(1));
            world.controller.sb.set_phys_healthy(v1, false);
            let r = world
                .controller
                .handle_node_failure(v1, Time::from_millis(20));
            assert!(!r.fully_recovered(), "pool exhausted");
            g.slot(1)
        };

        // A flow whose static ECMP path crosses the dead agg slot.
        let pick_flow = |world: &ShareBackupWorld, dead: sharebackup_topo::SlotId| {
            let src = world.sb().slots.host(HostAddr { pod: 0, edge: 0, host: 0 });
            let dst = world.sb().slots.host(HostAddr { pod: 2, edge: 1, host: 0 });
            let dead_node = world.sb().slot_node(dead);
            (0..64)
                .map(|id| FlowKey::new(src, dst, id))
                .find(|f| ecmp_path(&world.sb().slots, f).contains(&dead_node))
                .expect("some flow hashes through the dead agg")
        };

        // Stall mode: the affected flow gets no route.
        let mut stall = build();
        let dead = exhaust(&mut stall);
        let flow = pick_flow(&stall, dead);
        assert_eq!(stall.route(&flow), None, "stalled (pre-chaos behavior)");
        assert_eq!(stall.controller.stats.degraded_flows, 0);

        // Reroute mode: the same flow is routed around the dead slot and
        // the degradation is accounted.
        let mut reroute = build().with_degraded_mode(DegradedMode::Reroute);
        let dead = exhaust(&mut reroute);
        let flow = pick_flow(&reroute, dead);
        reroute.now = Time::from_millis(25);
        let p = reroute.route(&flow).expect("degraded fallback route");
        let dead_node = reroute.sb().slot_node(dead);
        assert!(!p.contains(&dead_node), "fallback avoids the dead slot");
        assert!(reroute.sb().slots.net.path_usable(&p));
        assert_eq!(reroute.controller.stats.degraded_flows, 1);
        assert!(reroute.tracker.contains(flow.id));
        // Routing again does not double-count the flow.
        assert!(reroute.route(&flow).is_some());
        assert_eq!(reroute.controller.stats.degraded_flows, 1);

        // After the victims' repairs, the flow returns to its static path
        // and the degraded spell closes.
        let due = reroute.controller.next_repair_due().expect("repairs pending");
        reroute.controller.poll_repairs(due + Duration::from_secs(1));
        reroute.now = due + Duration::from_secs(1);
        let back = reroute.route(&flow).expect("healed");
        assert_eq!(back, ecmp_path(&reroute.sb().slots, &flow));
        reroute.tracker.finalize(reroute.now);
        assert!(reroute.tracker.total_degraded_time() > Duration::ZERO);
    }

    #[test]
    fn no_reroute_mode_stalls_until_repair() {
        let ft = FatTree::build(FatTreeConfig::new(4));
        let src = ft.host(HostAddr { pod: 0, edge: 0, host: 0 });
        let dst = ft.host(HostAddr { pod: 1, edge: 0, host: 0 });
        let flow = FlowKey::new(src, dst, 0);
        let path = ecmp_path(&ft, &flow);
        let core = path[3];
        let flows = vec![FlowSpec {
            key: flow,
            bytes: 125_000_000, // 0.1 s at 10G
            arrival: Time::ZERO,
        }];
        let mut world = FatTreeWorld::new(
            ft,
            RecoveryMode::None,
            vec![TopoEvent::FailNode(core), TopoEvent::RepairNode(core)],
        );
        let out = FlowSim::new().run(
            &mut world,
            &flows,
            &[Time::from_millis(10), Time::from_secs(60)],
        );
        // Stalled from 10ms to 60s, then finishes the remainder.
        let t = out.flows[0].completed.expect("finishes after repair");
        assert!(t > Time::from_secs(60));
        assert!(out.flows[0].ever_stalled);
    }

    #[test]
    fn repeated_repair_does_not_hide_a_dead_switch() {
        // A repair of an element that is already up must not count as one
        // failure fewer: the world would take every flow back to its static
        // path while edge(1,0) is still dead, a silent blackhole.
        let ft = FatTree::build(FatTreeConfig::new(4));
        let (core, edge) = (ft.core(0), ft.edge(1, 0));
        let src = ft.host(HostAddr { pod: 0, edge: 0, host: 0 });
        let dst = ft.host(HostAddr { pod: 1, edge: 0, host: 0 });
        let events = vec![
            TopoEvent::FailNode(core),
            TopoEvent::FailNode(edge),
            TopoEvent::RepairNode(core),
            TopoEvent::RepairNode(core),
        ];
        let mut world = FatTreeWorld::new(ft, RecoveryMode::GlobalOptimal, events);
        for i in 0..4 {
            world.on_epoch(i, Time::from_millis(i as u64));
        }
        assert!(!world.ft.net.all_up());
        assert_eq!(world.route(&FlowKey::new(src, dst, 0)), None);
        let flows: Vec<FlowKey> = (0..8).map(|id| FlowKey::new(src, dst, id)).collect();
        assert!(world.route_all(&flows).iter().all(Option::is_none));
    }

    #[test]
    fn broken_destination_nic_is_unroutable_in_both_modes() {
        use sharebackup_routing::DegradedMode;

        for mode in [DegradedMode::Stall, DegradedMode::Reroute] {
            let sb = ShareBackup::build(ShareBackupConfig::new(4, 1));
            let controller = Controller::new(sb, ControllerConfig::default());
            let mut world = ShareBackupWorld::new(controller, vec![]).with_degraded_mode(mode);
            let src = world.sb().slots.host(HostAddr { pod: 0, edge: 0, host: 0 });
            let dst = world.sb().slots.host(HostAddr { pod: 2, edge: 1, host: 0 });
            SbEvent::HostLinkFail {
                host: dst,
                switch_side: false,
            }
            .inject(&mut world.controller.sb);
            let flow = FlowKey::new(src, dst, 3);
            assert_eq!(world.route(&flow), None, "{mode:?}");
            assert_eq!(world.controller.stats.degraded_flows, 0, "{mode:?}");
            assert!(!world.tracker.contains(flow.id), "{mode:?}");
        }
    }

    #[test]
    fn recovery_completed_in_on_advance_is_seen_by_the_next_route() {
        // The primary is down when the report arrives, so the recovery is
        // journaled and completes only when `on_advance` passes the
        // blackout: no epoch lies in between.
        use crate::failover::{FailoverConfig, FailoverPlane};

        let sb = ShareBackup::build(ShareBackupConfig::new(4, 1));
        let controller = Controller::new(sb, ControllerConfig::default());
        let plane = FailoverPlane::new(FailoverConfig::default());
        let blackout = plane.cfg.blackout();
        let mut world = ShareBackupWorld::new(controller, vec![]).with_failover(plane);
        let src = world.sb().slots.host(HostAddr { pod: 0, edge: 0, host: 0 });
        let dst = world.sb().slots.host(HostAddr { pod: 2, edge: 1, host: 0 });
        let flow = FlowKey::new(src, dst, 7);
        // Not `route`: the first connectivity answer must come after the
        // failure, so that a labelling not cleared by the recovery would
        // still say "cut off" below.
        let original = ecmp_path(&world.sb().slots, &flow);
        // The destination's edge switch: its death cuts the host off.
        let victim = world
            .sb()
            .occupant(world.sb().node_slot(original[5]).expect("edge slot"));
        world.events = vec![
            SbEvent::ControllerCrash(0),
            SbEvent::NodeFail(victim),
            SbEvent::Recover,
        ];
        for i in 0..3 {
            world.on_epoch(i, Time::from_millis(1 + i as u64));
        }
        assert!(world.failover_log.is_empty(), "journaled during the blackout");
        assert_eq!(world.route(&flow), None, "destination cut off");

        world.on_advance(Time::from_millis(3) + blackout + Duration::from_secs(1));
        assert_eq!(world.failover_log.len(), 1, "recovered in on_advance");
        assert_eq!(world.route(&flow), Some(original));
    }

    #[test]
    fn inert_failover_plane_leaves_the_scenario_unchanged() {
        // The control plane is opt-in: a healthy, chaos-free plane must
        // reproduce the direct-dispatch world exactly — same recoveries,
        // same flow completion instants.
        use crate::failover::{FailoverConfig, FailoverPlane};

        let run = |with_plane: bool| {
            let sb = ShareBackup::build(ShareBackupConfig::new(4, 1));
            let controller = Controller::new(sb, ControllerConfig::default());
            let mut world = ShareBackupWorld::new(controller, vec![]);
            if with_plane {
                world = world.with_failover(FailoverPlane::new(FailoverConfig::default()));
            }
            let src = world.sb().slots.host(HostAddr { pod: 0, edge: 0, host: 0 });
            let dst = world.sb().slots.host(HostAddr { pod: 2, edge: 1, host: 0 });
            let flow = FlowKey::new(src, dst, 7);
            let original = world.route(&flow).expect("healthy route");
            let victim = world
                .sb()
                .occupant(world.sb().node_slot(original[2]).expect("agg slot"));
            let failures = vec![(Time::from_millis(10), SbEvent::NodeFail(victim))];
            let (events, times) = sharebackup_timeline(&world, &failures);
            world.events = events;
            let flows = vec![FlowSpec {
                key: flow,
                bytes: 125_000_000,
                arrival: Time::ZERO,
            }];
            let out = FlowSim::new().run(&mut world, &flows, &times);
            (out.flows[0].completed, world.recoveries.clone())
        };

        let (direct_done, direct_rec) = run(false);
        let (plane_done, plane_rec) = run(true);
        assert_eq!(direct_done, plane_done, "completion instants must match");
        assert_eq!(direct_rec.len(), plane_rec.len());
        for (a, b) in direct_rec.iter().zip(&plane_rec) {
            assert_eq!(a.latency, b.latency, "inert plane adds no latency");
            assert_eq!(a.fully_recovered(), b.fully_recovered());
        }
    }

    #[test]
    fn controller_crash_blacks_out_recovery_until_the_successor_takes_over() {
        // The primary crashes just before the failure report arrives: the
        // report stays journaled through detection + election, the flow
        // stalls for the whole blackout, and the elected successor
        // completes the recovery on the original path.
        use crate::failover::{FailoverConfig, FailoverPlane};

        let sb = ShareBackup::build(ShareBackupConfig::new(4, 1));
        let controller = Controller::new(sb, ControllerConfig::default());
        let plane = FailoverPlane::new(FailoverConfig::default());
        let blackout = plane.cfg.blackout();
        let mut world = ShareBackupWorld::new(controller, vec![]).with_failover(plane);

        let src = world.sb().slots.host(HostAddr { pod: 0, edge: 0, host: 0 });
        let dst = world.sb().slots.host(HostAddr { pod: 2, edge: 1, host: 0 });
        let flow = FlowKey::new(src, dst, 7);
        let original = world.route(&flow).expect("healthy route");
        let victim = world
            .sb()
            .occupant(world.sb().node_slot(original[2]).expect("agg slot"));

        let crash_at = Time::from_millis(11);
        let failures = vec![
            (Time::from_millis(10), SbEvent::NodeFail(victim)),
            (crash_at, SbEvent::ControllerCrash(0)),
        ];
        let (events, times) = sharebackup_timeline(&world, &failures);
        world.events = events;

        let flows = vec![FlowSpec {
            key: flow,
            bytes: 125_000_000, // 0.1 s at 10G
            arrival: Time::ZERO,
        }];
        let out = FlowSim::new().run(&mut world, &flows, &times);

        let t = out.flows[0].completed.expect("finishes after failover");
        assert!(out.flows[0].ever_stalled, "stalled through the blackout");
        // Stall spans the blackout: the transfer needs 100 ms of service
        // plus the ~53 ms outage minus the 10 ms served before the crash.
        assert!(t > Time::ZERO + blackout, "{t:?}");

        assert_eq!(world.failover_log.len(), 1, "recovery resumed exactly once");
        let done = &world.failover_log[0];
        assert!(done.recovery.fully_recovered());
        assert!(
            done.completed_at >= crash_at + blackout,
            "completion {} can't precede the blackout end {}",
            done.completed_at,
            crash_at + blackout
        );
        assert_eq!(world.controller.stats.controller_crashes, 1);
        assert_eq!(world.controller.stats.elections, 1);
        let after = world.route(&flow).expect("route after recovery");
        assert_eq!(after, original, "recovery restores the original path");
    }
}

//! The ShareBackup physical architecture (paper §3).
//!
//! A ShareBackup network is a fat-tree whose switch positions are **slots**:
//! logical fat-tree identities (E_{i,j}, A_{i,j}, C_j) that the data plane and
//! routing tables see. Each slot is *occupied* by one **physical switch**.
//! Physical switches belong to **failure groups** — the k/2 edge (or agg)
//! switches of a pod, or the k/2 core switches with index ≡ u (mod k/2) —
//! and every group owns `n` extra physical switches as shared backups.
//!
//! Between adjacent layers sit **circuit switches** (3 sets of k/2 per pod):
//!
//! * `CS_{1,i,m}` — between pod *i*'s hosts and edge switches; host *m* of
//!   every edge connects here (straight-through wiring).
//! * `CS_{2,i,m}` — between pod *i*'s edge and aggregation switches, with the
//!   *rotational* wiring `edge j ↔ agg (j+m) mod k/2` so the pod's full
//!   bipartite edge↔agg connectivity emerges across the k/2 switches.
//! * `CS_{3,i,u}` — between pod *i*'s aggregation switches and core group
//!   *u* (cores `j·k/2+u`), straight-through `agg j ↔ core-slot j`.
//!
//! Every member of a failure group — backup switches included — is cabled to
//! the same set of circuit switches with the same wiring pattern, so *any*
//! member can take over *any* slot of the group by circuit reconfiguration
//! alone. That is the paper's sharable-backup building block (Fig. 3a).
//!
//! Circuit switches of the same layer within a pod are chained into a ring
//! through 2 side ports; the offline failure-diagnosis procedure (paper §4.2,
//! Fig. 4) uses the ring to connect a suspect interface to up to three test
//! interfaces without touching the live network.
//!
//! # Where the wiring is decided
//!
//! Two statements in this module decide the whole physical layer, and
//! nothing outside it repeats them:
//!
//! * the `attach` calls in [`ShareBackup::build`] — the cabling: which
//!   circuit-switch port every switch interface, host NIC and side port is
//!   cabled to, recorded as they are made in the index behind
//!   [`ShareBackup::iface_attachment`];
//! * [`ShareBackup::peer`] — the interface numbering and the CS2 rotation:
//!   the far end of every interface of every slot.
//!
//! Everything else is derived from those two: the default circuits, the
//! circuits a replacement sets up, the slot network's link state, the
//! diagnosis partners, and the queries callers use instead of interface
//! arithmetic ([`ShareBackup::link_ends`], [`ShareBackup::host_edge`],
//! [`ShareBackup::slot_circuit_switches`], [`ShareBackup::iface_on`]).

use std::collections::BTreeMap;

use crate::circuit::{Attachment, CircuitSwitch, CircuitTech, CsPort};
use crate::fattree::{FatTree, FatTreeConfig, HostAddr};
use crate::graph::NodeKind;
use crate::ids::{GroupId, GroupKind, LinkId, NodeId, PhysId, SlotId};

/// Parameters of a ShareBackup network.
///
/// Backup counts may be *non-uniform* across layers (paper §6: "we can
/// have more backup on critical devices and less backup on unimportant
/// ones") — e.g. extra edge backups, since an edge failure strands hosts
/// that no rerouting can save.
#[derive(Clone, Copy, Debug)]
pub struct ShareBackupConfig {
    /// The underlying fat-tree parameters.
    pub ft: FatTreeConfig,
    /// Backup switches per *edge* failure group.
    pub n_edge: usize,
    /// Backup switches per *aggregation* failure group.
    pub n_agg: usize,
    /// Backup switches per *core* failure group.
    pub n_core: usize,
    /// Circuit-switch implementation technology.
    pub tech: CircuitTech,
}

impl ShareBackupConfig {
    /// ShareBackup over a full-bisection 10 Gbps fat-tree with `n` backups
    /// per group (uniform — the paper's baseline design) and electrical
    /// crosspoint circuit switches.
    pub fn new(k: usize, n: usize) -> ShareBackupConfig {
        ShareBackupConfig {
            ft: FatTreeConfig::new(k),
            n_edge: n,
            n_agg: n,
            n_core: n,
            tech: CircuitTech::Crosspoint,
        }
    }

    /// ShareBackup over an existing fat-tree configuration with uniform
    /// `n` backups per group.
    pub fn for_fattree(ft: FatTreeConfig, n: usize) -> ShareBackupConfig {
        ShareBackupConfig {
            ft,
            n_edge: n,
            n_agg: n,
            n_core: n,
            tech: CircuitTech::Crosspoint,
        }
    }

    /// Use a different circuit technology.
    pub fn with_tech(mut self, tech: CircuitTech) -> ShareBackupConfig {
        self.tech = tech;
        self
    }

    /// Non-uniform backup pools per layer (paper §6 extension).
    pub fn with_backups(mut self, edge: usize, agg: usize, core: usize) -> ShareBackupConfig {
        self.n_edge = edge;
        self.n_agg = agg;
        self.n_core = core;
        self
    }

    /// Backups of the groups protecting `kind`.
    pub fn n_for(&self, kind: GroupKind) -> usize {
        match kind {
            GroupKind::Edge => self.n_edge,
            GroupKind::Agg => self.n_agg,
            GroupKind::Core => self.n_core,
        }
    }

    /// Members of a `kind` failure group: k/2 active + its backups.
    pub fn group_size_for(&self, kind: GroupKind) -> usize {
        self.ft.k / 2 + self.n_for(kind)
    }
}

/// A physical packet switch: the unit that fails, is diagnosed and repaired.
#[derive(Clone, Debug)]
pub struct PhysSwitch {
    /// The failure group this switch is wired into (fixed at build time).
    pub group: GroupId,
    /// Member index within the group's circuit-switch wiring, `[0, k/2+n)`.
    pub member: usize,
    /// Whether the switch itself is operational.
    pub healthy: bool,
    /// Per-interface ground-truth fault state (`true` = broken), indexed by
    /// interface; [`ShareBackup::peer`] says what each interface faces.
    pub iface_broken: Vec<bool>,
}

/// Which circuit switch, identified by layer and position.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum CsId {
    /// `CS_{1,pod,m}`: hosts ↔ edge layer.
    HostEdge {
        /// Pod index.
        pod: usize,
        /// Set index m in `[0, k/2)`.
        m: usize,
    },
    /// `CS_{2,pod,m}`: edge ↔ aggregation layer.
    EdgeAgg {
        /// Pod index.
        pod: usize,
        /// Set index m in `[0, k/2)`.
        m: usize,
    },
    /// `CS_{3,pod,u}`: aggregation ↔ core group u.
    AggCore {
        /// Pod index.
        pod: usize,
        /// Core-group residue u in `[0, k/2)`.
        u: usize,
    },
}

impl CsId {
    /// Ring position (m or u) of a circuit switch within its pod's layer.
    fn ring_index(self) -> usize {
        match self {
            CsId::HostEdge { m, .. } | CsId::EdgeAgg { m, .. } => m,
            CsId::AggCore { u, .. } => u,
        }
    }

    /// The circuit switch at ring position `r` of the same pod and layer.
    fn at_ring_index(self, r: usize) -> CsId {
        match self {
            CsId::HostEdge { pod, .. } => CsId::HostEdge { pod, m: r },
            CsId::EdgeAgg { pod, .. } => CsId::EdgeAgg { pod, m: r },
            CsId::AggCore { pod, .. } => CsId::AggCore { pod, u: r },
        }
    }
}

/// Every failure group in canonical order: each pod's edge and agg groups,
/// then the core groups.
fn group_order(k: usize) -> Vec<GroupId> {
    let mut ids: Vec<GroupId> =
        (0..k).flat_map(|pod| [GroupId::edge(pod), GroupId::agg(pod)]).collect();
    ids.extend((0..k / 2).map(GroupId::core));
    ids
}

/// The CS2 rotation (Fig. 3a): through `CS_{2,pod,m}`, edge `e` of a pod
/// reaches agg `(e + m) mod k/2` of the same pod.
pub fn cs2_agg(k: usize, e: usize, m: usize) -> usize {
    (e + m) % (k / 2)
}

/// One end of a slot-network link.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LinkEnd {
    /// A host's NIC.
    Host(NodeId),
    /// Interface `.1` of whichever switch occupies slot `.0`.
    Iface(SlotId, usize),
}

/// Result of one slot-replacement operation (paper §4.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplaceReport {
    /// Circuit switches that received a reconfiguration request.
    pub circuit_switches_touched: usize,
    /// Individual circuit set-up/tear-down operations performed.
    pub circuit_ops: u32,
}

/// One offline-diagnosis circuit configuration (paper §4.2, Fig. 4): connect
/// the suspect interface to `partner` through `side_hops` side-port hops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DiagConfig {
    /// The interface the suspect interface is tested against.
    pub partner: (PhysId, usize),
    /// Side-port hops between circuit switches used by this configuration.
    pub side_hops: usize,
}

/// A built ShareBackup network: slots (a fat-tree), physical switches,
/// occupancy, and the circuit-switch fabric.
#[derive(Clone, Debug)]
pub struct ShareBackup {
    /// The configuration.
    pub cfg: ShareBackupConfig,
    /// The slot-level fat-tree: what routing and the data plane see. Node and
    /// link up/down state is kept in sync with physical ground truth by
    /// [`ShareBackup::refresh_state`].
    pub slots: FatTree,
    phys: Vec<PhysSwitch>,
    /// Group → member-index-ordered physical switches.
    groups: BTreeMap<GroupId, Vec<PhysId>>,
    /// Occupant of each slot, by [`ShareBackup::slot_index`].
    occupancy: Vec<PhysId>,
    /// Slot of each physical switch, by id (`None` = spare).
    slot_of_phys: Vec<Option<SlotId>>,
    /// Slot of each slot-network node, by id (`None` = host).
    node_slot: Vec<Option<SlotId>>,
    /// Every circuit switch, in [`ShareBackup::circuit_switch_ids`] order.
    cs: Vec<CircuitSwitch>,
    /// Where interface `i` of switch `p` is cabled, at `[p·k + i]`.
    iface_port: Vec<(CsId, CsPort)>,
    /// Where each host's NIC is cabled, by global host index.
    host_port: Vec<(CsId, CsPort)>,
    /// Each slot-network link's ends by link id: the lower end (a host or a
    /// lower-layer interface), then the upper interface.
    links: Vec<(LinkEnd, (SlotId, usize))>,
    /// Host NICs with ground-truth faults.
    host_nic_broken: BTreeMap<NodeId, bool>,
}

impl ShareBackup {
    /// Build a ShareBackup network with all slots occupied by members
    /// `0..k/2` of each group and members `k/2..k/2+n` as spares.
    pub fn build(cfg: ShareBackupConfig) -> ShareBackup {
        let k = cfg.ft.k;
        let half = k / 2;
        let slots = FatTree::build(cfg.ft);

        // --- Physical switch registry, group by group: members 0..k/2
        // occupy the group's slots, the rest are its spares. ---
        let mut phys = Vec::new();
        let mut groups = BTreeMap::new();
        let mut occupancy = Vec::new();
        let mut slot_of_phys = Vec::new();
        for g in group_order(k) {
            let members: Vec<PhysId> = (0..cfg.group_size_for(g.kind))
                .map(|member| {
                    let id = PhysId::from_index(phys.len());
                    phys.push(PhysSwitch {
                        group: g,
                        member,
                        healthy: true,
                        iface_broken: vec![false; k], // every packet switch has k interfaces
                    });
                    slot_of_phys.push((member < half).then(|| g.slot(member)));
                    id
                })
                .collect();
            occupancy.extend_from_slice(&members[..half]);
            groups.insert(g, members);
        }

        let unwired = (CsId::HostEdge { pod: 0, m: 0 }, CsPort(0));
        let mut sb = ShareBackup {
            cfg,
            iface_port: vec![unwired; phys.len() * k],
            host_port: vec![unwired; slots.hosts().len()],
            links: Vec::new(),
            node_slot: vec![None; slots.net.node_count()],
            slots,
            phys,
            groups,
            occupancy,
            slot_of_phys,
            cs: Vec::with_capacity(3 * k * half),
            host_nic_broken: BTreeMap::new(),
        };

        // --- The cabling: every circuit-switch port, attached once. ---
        for pod in 0..k {
            for m in 0..half {
                // CS_{1,pod,m}: edge members' iface m | host m of every edge.
                let id = CsId::HostEdge { pod, m };
                let south = sb.add_circuit_switch(id, half);
                sb.attach_group(id, 0, GroupId::edge(pod), m);
                for j in 0..half {
                    let host = HostAddr { pod, edge: j, host: m };
                    let (port, node) = (CsPort(south + j), sb.slots.host(host));
                    sb.circuit_switch_mut(id).attach(port, Attachment::Host(node));
                    sb.host_port[host.to_index(k)] = (id, port);
                }
                // CS_{2,pod,m}: edge members' iface k/2+m | agg members' iface m.
                let id = CsId::EdgeAgg { pod, m };
                let south = sb.add_circuit_switch(id, sb.cfg.group_size_for(GroupKind::Agg));
                sb.attach_group(id, 0, GroupId::edge(pod), half + m);
                sb.attach_group(id, south, GroupId::agg(pod), m);
                // CS_{3,pod,u} with u = m: agg members' iface k/2+u | core
                // group u's members' iface pod.
                let id = CsId::AggCore { pod, u: m };
                let south = sb.add_circuit_switch(id, sb.cfg.group_size_for(GroupKind::Core));
                sb.attach_group(id, 0, GroupId::agg(pod), half + m);
                sb.attach_group(id, south, GroupId::core(m), pod);
            }
        }

        // --- Node → slot map, and the slot-network links, each met at its
        // upper end, with their default circuits. ---
        let unset = (LinkEnd::Host(NodeId(0)), (GroupId::edge(0).slot(0), 0));
        let mut links = vec![unset; sb.slots.net.link_count()];
        for g in group_order(k) {
            for j in 0..half {
                let slot = g.slot(j);
                let node = sb.slot_node(slot);
                sb.node_slot[node.index()] = Some(slot);
                for iface in 0..k {
                    let lower = sb.peer(slot, iface);
                    let lower_node = match lower {
                        LinkEnd::Host(h) => h,
                        LinkEnd::Iface(s, _) if s.group.kind < g.kind => sb.slot_node(s),
                        LinkEnd::Iface(..) => continue,
                    };
                    let l = sb
                        .slots
                        .net
                        .link_between(lower_node, sb.slot_node(slot))
                        // Slot-network links are created for every fat-tree
                        // edge at build time; absence is a builder bug.
                        // lint:allow(unwrap) — build-time structural invariant
                        .expect("slot link must exist");
                    let upper = LinkEnd::Iface(slot, iface);
                    let (id, a) = sb.port(upper);
                    let (_, b) = sb.port(lower);
                    sb.circuit_switch_mut(id).connect(a, b);
                    links[l.index()] = (lower, (slot, iface));
                }
            }
        }
        sb.links = links;
        sb.refresh_state();
        sb
    }

    /// Add circuit switch `id` with room for its north group's members on
    /// ports `[0, G)`, the two side ports `G` and `G+1` that chain it into
    /// its pod layer's ring, and `south` ports from `G+2`. Returns `G+2`.
    fn add_circuit_switch(&mut self, id: CsId, south: usize) -> usize {
        let half = self.half();
        let (prev, next) = self.side_ports(id);
        let mut cs = CircuitSwitch::new(self.cfg.tech, next.0 + 1 + south);
        let r = id.ring_index();
        cs.attach(prev, Attachment::Side { cs: (r + half - 1) % half, port: next });
        cs.attach(next, Attachment::Side { cs: (r + 1) % half, port: prev });
        debug_assert_eq!(self.cs.len(), self.cs_index(id));
        self.cs.push(cs);
        next.0 + 1
    }

    /// Cable interface `iface` of every member `w` of group `g` to port
    /// `first + w` of circuit switch `id`.
    fn attach_group(&mut self, id: CsId, first: usize, g: GroupId, iface: usize) {
        let k = self.k();
        let at = self.cs_index(id);
        for (w, &p) in self.groups[&g].iter().enumerate() {
            let port = CsPort(first + w);
            self.cs[at].attach(port, Attachment::Switch { switch: p, port: iface });
            self.iface_port[p.index() * k + iface] = (id, port);
        }
    }

    /// The far end of interface `iface` of whichever switch occupies `slot`
    /// — the one statement of the interface numbering and the CS2 rotation:
    ///
    /// * edge j of pod i: iface m < k/2 faces host m (via `CS_{1,i,m}`);
    ///   iface k/2+m faces agg (j+m) mod k/2's iface m (via `CS_{2,i,m}`);
    /// * agg j of pod i: iface m < k/2 is the far end of that rotation;
    ///   iface k/2+u faces core group u's slot j, iface i (via `CS_{3,i,u}`);
    /// * core group u, slot j: iface i faces agg j of pod i.
    ///
    /// Every member of a group is cabled alike, so the answer depends on
    /// the slot only, never on which member occupies it.
    pub fn peer(&self, slot: SlotId, iface: usize) -> LinkEnd {
        let half = self.half();
        let j = slot.slot;
        match (slot.group.kind, slot.group.index) {
            (GroupKind::Edge, pod) if iface < half => {
                LinkEnd::Host(self.slots.host(HostAddr { pod, edge: j, host: iface }))
            }
            (GroupKind::Edge, pod) => {
                let m = iface - half;
                LinkEnd::Iface(GroupId::agg(pod).slot(cs2_agg(self.k(), j, m)), m)
            }
            // The inverse rotation: the edge e with cs2_agg(e, iface) = j.
            (GroupKind::Agg, pod) if iface < half => {
                LinkEnd::Iface(GroupId::edge(pod).slot((j + half - iface) % half), half + iface)
            }
            (GroupKind::Agg, pod) => LinkEnd::Iface(GroupId::core(iface - half).slot(j), pod),
            (GroupKind::Core, u) => LinkEnd::Iface(GroupId::agg(iface).slot(j), half + u),
        }
    }

    /// The circuit switch and port a link end is cabled to.
    fn port(&self, end: LinkEnd) -> (CsId, CsPort) {
        match end {
            LinkEnd::Host(h) => self.host_port[self.slots.net.node(h).index],
            LinkEnd::Iface(slot, iface) => self.iface_attachment(self.occupant(slot), iface),
        }
    }

    // ------------------------------------------------------------------
    // Lookup helpers.
    // ------------------------------------------------------------------

    /// Fat-tree parameter k.
    pub fn k(&self) -> usize {
        self.cfg.ft.k
    }

    fn half(&self) -> usize {
        self.cfg.ft.k / 2
    }

    /// Number of circuit switches in the network (`3·k·k/2 = 3k²/2`).
    pub fn circuit_switch_count(&self) -> usize {
        self.cs.len()
    }

    /// Position of `id` in [`ShareBackup::circuit_switch_ids`] order.
    fn cs_index(&self, id: CsId) -> usize {
        let (pod, layer) = match id {
            CsId::HostEdge { pod, .. } => (pod, 0),
            CsId::EdgeAgg { pod, .. } => (pod, 1),
            CsId::AggCore { pod, .. } => (pod, 2),
        };
        3 * (pod * self.half() + id.ring_index()) + layer
    }

    /// Access a circuit switch.
    pub fn circuit_switch(&self, id: CsId) -> &CircuitSwitch {
        &self.cs[self.cs_index(id)]
    }

    fn circuit_switch_mut(&mut self, id: CsId) -> &mut CircuitSwitch {
        let at = self.cs_index(id);
        &mut self.cs[at]
    }

    /// All circuit-switch ids.
    pub fn circuit_switch_ids(&self) -> Vec<CsId> {
        let k = self.k();
        let half = self.half();
        let mut ids = Vec::with_capacity(3 * k * half);
        for pod in 0..k {
            for m in 0..half {
                ids.push(CsId::HostEdge { pod, m });
                ids.push(CsId::EdgeAgg { pod, m });
                ids.push(CsId::AggCore { pod, u: m });
            }
        }
        ids
    }

    /// The physical switch registry entry for `p`.
    pub fn phys(&self, p: PhysId) -> &PhysSwitch {
        &self.phys[p.0 as usize]
    }

    /// Number of physical packet switches (excluding hosts).
    pub fn phys_count(&self) -> usize {
        self.phys.len()
    }

    /// Member switches of a failure group, in member-index order.
    pub fn group_members(&self, g: GroupId) -> &[PhysId] {
        &self.groups[&g]
    }

    /// All failure groups, in a canonical deterministic order.
    pub fn group_ids(&self) -> Vec<GroupId> {
        group_order(self.k())
    }

    /// Dense index of `slot`: group by group in [`ShareBackup::group_ids`]
    /// order, k/2 slots each.
    fn slot_index(&self, slot: SlotId) -> usize {
        let group = match slot.group.kind {
            GroupKind::Edge => 2 * slot.group.index,
            GroupKind::Agg => 2 * slot.group.index + 1,
            GroupKind::Core => 2 * self.k() + slot.group.index,
        };
        group * self.half() + slot.slot
    }

    /// The physical switch currently occupying `slot`.
    pub fn occupant(&self, slot: SlotId) -> PhysId {
        self.occupancy[self.slot_index(slot)]
    }

    /// The slot occupied by `p`, if any (`None` = spare).
    pub fn slot_of(&self, p: PhysId) -> Option<SlotId> {
        self.slot_of_phys[p.index()]
    }

    /// Healthy, non-occupying members of a group — the available backups.
    pub fn spares(&self, g: GroupId) -> Vec<PhysId> {
        self.groups[&g]
            .iter()
            .copied()
            .filter(|p| self.slot_of(*p).is_none() && self.phys(*p).healthy)
            .collect()
    }

    /// The slot-network node for a slot. Core group u's slot j is the core
    /// that agg j of every pod reaches on uplink u (the slot tree's standard
    /// striping is the same in all pods, so pod 0 stands for any).
    pub fn slot_node(&self, slot: SlotId) -> NodeId {
        match slot.group.kind {
            GroupKind::Edge => self.slots.edge(slot.group.index, slot.slot),
            GroupKind::Agg => self.slots.agg(slot.group.index, slot.slot),
            GroupKind::Core => self
                .slots
                .core(self.slots.core_of(0, slot.slot, slot.group.index)),
        }
    }

    /// The slot a slot-network switch node corresponds to.
    pub fn node_slot(&self, n: NodeId) -> Option<SlotId> {
        self.node_slot[n.index()]
    }

    /// The two ends of slot-network link `l`: the lower end (a host NIC,
    /// or the upward-facing interface of an edge or agg slot), then the
    /// upper end's `(slot, interface)`.
    pub fn link_ends(&self, l: LinkId) -> (LinkEnd, (SlotId, usize)) {
        self.links[l.index()]
    }

    /// The edge slot `host` hangs off, and the interface of that slot's
    /// switch that faces the host.
    pub fn host_edge(&self, host: NodeId) -> (SlotId, usize) {
        self.link_ends(self.slots.net.incident(host)[0]).1
    }

    /// The circuit switches replacing `slot`'s occupant reconfigures: one
    /// per interface, in [`ShareBackup::circuit_switch_ids`] order.
    pub fn slot_circuit_switches(&self, slot: SlotId) -> Vec<CsId> {
        let p = self.occupant(slot);
        let mut ids: Vec<CsId> = (0..self.k()).map(|i| self.iface_attachment(p, i).0).collect();
        ids.sort_unstable_by_key(|&id| self.cs_index(id));
        ids
    }

    // ------------------------------------------------------------------
    // Ground-truth fault state.
    // ------------------------------------------------------------------

    /// Mark a physical switch healthy/failed and propagate to the slot net.
    pub fn set_phys_healthy(&mut self, p: PhysId, healthy: bool) {
        self.phys[p.0 as usize].healthy = healthy;
        if healthy {
            // A repaired switch comes back with all interfaces working.
            for b in self.phys[p.0 as usize].iface_broken.iter_mut() {
                *b = false;
            }
        }
        self.refresh_state();
    }

    /// Break or repair one interface of a physical switch.
    pub fn set_iface_broken(&mut self, p: PhysId, iface: usize, broken: bool) {
        self.phys[p.0 as usize].iface_broken[iface] = broken;
        self.refresh_state();
    }

    /// Whether an interface is broken (ground truth; diagnosis discovers it).
    pub fn iface_broken(&self, p: PhysId, iface: usize) -> bool {
        self.phys[p.0 as usize].iface_broken[iface]
    }

    /// Break or repair a host NIC.
    pub fn set_host_nic_broken(&mut self, host: NodeId, broken: bool) {
        assert_eq!(self.slots.net.node(host).kind, NodeKind::Host);
        self.host_nic_broken.insert(host, broken);
        self.refresh_state();
    }

    /// Mark a circuit switch up/down and propagate to the slot network.
    pub fn set_circuit_switch_up(&mut self, id: CsId, up: bool) {
        self.circuit_switch_mut(id).set_up(up);
        self.refresh_state();
    }

    // ------------------------------------------------------------------
    // Replacement: the paper's recovery primitive.
    // ------------------------------------------------------------------

    /// Install `replacement` into `slot`, evicting the current occupant,
    /// which becomes a spare (and future backup once repaired — paper §4.2's
    /// role swap). Reconfigures every circuit switch that realizes the
    /// slot's links.
    ///
    /// # Panics
    /// Panics if `replacement` is not a member of the slot's failure group or
    /// already occupies a slot.
    pub fn replace(&mut self, slot: SlotId, replacement: PhysId) -> ReplaceReport {
        assert_eq!(
            self.phys(replacement).group,
            slot.group,
            "replacement from a different failure group"
        );
        assert!(
            self.slot_of(replacement).is_none(),
            "{replacement:?} already occupies a slot"
        );
        let at = self.slot_index(slot);
        self.slot_of_phys[self.occupancy[at].index()] = None;
        self.occupancy[at] = replacement;
        self.slot_of_phys[replacement.index()] = Some(slot);
        let report = self.reconnect_slot(slot);
        self.refresh_state();
        report
    }

    /// (Re)establish the circuits that realize `slot`'s links: connect each
    /// interface of the current occupant to its peer's port. Returns how
    /// many circuit switches were touched and how many circuit operations
    /// were needed.
    fn reconnect_slot(&mut self, slot: SlotId) -> ReplaceReport {
        let mut ops = 0;
        let k = self.k();
        for iface in 0..k {
            let (id, a) = self.port(LinkEnd::Iface(slot, iface));
            let (_, b) = self.port(self.peer(slot, iface));
            ops += self.circuit_switch_mut(id).connect(a, b);
        }
        ReplaceReport {
            circuit_switches_touched: k,
            circuit_ops: ops,
        }
    }

    // ------------------------------------------------------------------
    // Slot-network state derivation.
    // ------------------------------------------------------------------

    /// Recompute the slot network's node/link up state from physical ground
    /// truth: occupant health, broken interfaces, host NICs, and circuit
    /// switch health.
    pub fn refresh_state(&mut self) {
        // Slot nodes: up iff occupant healthy.
        for (p, slot) in self.slot_of_phys.iter().enumerate() {
            if let Some(slot) = *slot {
                let node = self.slot_node(slot);
                self.slots.net.set_node_up(node, self.phys[p].healthy);
            }
        }
        // Links: up iff the circuit switch is up and both ends are healthy.
        let links_up: Vec<bool> = self
            .links
            .iter()
            .map(|&(lower, (slot, iface))| {
                let p = self.occupant(slot);
                let lower_ok = match lower {
                    LinkEnd::Host(h) => !self.host_nic_broken.get(&h).copied().unwrap_or(false),
                    LinkEnd::Iface(s, i) => !self.iface_broken(self.occupant(s), i),
                };
                lower_ok
                    && !self.iface_broken(p, iface)
                    && self.circuit_switch(self.iface_attachment(p, iface).0).is_up()
            })
            .collect();
        for (i, up) in links_up.into_iter().enumerate() {
            self.slots.net.set_link_up(LinkId::from_index(i), up);
        }
        // Every reconfiguration and fault-state change funnels through here,
        // so this one hook re-verifies the structure after each transition.
        #[cfg(feature = "strict-invariants")]
        self.check_invariants();
    }

    /// Derive (endpoint, endpoint) logical links by walking circuit-switch
    /// matchings — used by tests to prove the circuit layer realizes exactly
    /// the fat-tree. Endpoints are slot-network node ids.
    pub fn derived_links(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::new();
        for id in self.circuit_switch_ids() {
            let cs = self.circuit_switch(id);
            for (a, b) in cs.circuits() {
                let na = self.endpoint_node(cs.attachment(a));
                let nb = self.endpoint_node(cs.attachment(b));
                if let (Some(na), Some(nb)) = (na, nb) {
                    out.push(if na <= nb { (na, nb) } else { (nb, na) });
                }
            }
        }
        out.sort();
        out
    }

    fn endpoint_node(&self, att: Attachment) -> Option<NodeId> {
        match att {
            Attachment::Host(h) => Some(h),
            Attachment::Switch { switch, .. } => self.slot_of(switch).map(|s| self.slot_node(s)),
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Structural invariants.
    // ------------------------------------------------------------------

    /// Assert the architecture's structural invariants: slot-occupancy
    /// bijectivity, crossbar matching validity, and circuit realization of
    /// the slot fat-tree. Cheap relative to a reconfiguration, but O(network)
    /// — under the `strict-invariants` feature it runs automatically after
    /// every [`ShareBackup::refresh_state`]; callers (tests, the controller)
    /// may also invoke it directly at any quiescent point.
    ///
    /// # Panics
    /// Panics with a description of the violated invariant.
    pub fn check_invariants(&self) {
        self.check_occupancy();
        self.check_matchings();
        self.check_circuit_realization();
    }

    /// Occupancy bijectivity: every slot has exactly one occupant, every
    /// physical switch occupies at most one slot (in its own group), and
    /// spares never exceed the group's backup pool.
    fn check_occupancy(&self) {
        let half = self.half();
        for g in self.group_ids() {
            let members = self.group_members(g);
            let mut occupying = 0;
            for &p in members {
                if let Some(slot) = self.slot_of(p) {
                    assert_eq!(slot.group, g, "{p:?} occupies a slot outside {g:?}");
                    assert_eq!(
                        self.occupant(slot),
                        p,
                        "occupancy maps disagree about {slot:?}"
                    );
                    occupying += 1;
                }
            }
            assert_eq!(occupying, half, "every slot of {g:?} must be occupied");
            let spares = self.spares(g).len();
            assert!(
                spares <= members.len() - half,
                "{g:?} reports {spares} spares with only {} backups",
                members.len() - half
            );
        }
        // Global view: the two occupancy maps are inverse bijections.
        for g in self.group_ids() {
            for slot in (0..half).map(|j| g.slot(j)) {
                assert_eq!(
                    self.slot_of(self.occupant(slot)),
                    Some(slot),
                    "slot_of_phys is not the inverse of occupancy at {slot:?}"
                );
            }
        }
    }

    /// Every circuit switch holds a valid (symmetric, self-loop-free)
    /// partial matching.
    fn check_matchings(&self) {
        for id in self.circuit_switch_ids() {
            self.circuit_switch(id).check_matching();
        }
    }

    /// The circuit layer realizes exactly the slot fat-tree's links: walking
    /// every crossbar circuit between attachments yields the slot network's
    /// edge set, no more and no less.
    fn check_circuit_realization(&self) {
        let mut expected: Vec<(NodeId, NodeId)> = self
            .slots
            .net
            .link_ids()
            .map(|l| {
                let link = self.slots.net.link(l);
                if link.a <= link.b {
                    (link.a, link.b)
                } else {
                    (link.b, link.a)
                }
            })
            .collect();
        expected.sort();
        assert_eq!(
            self.derived_links(),
            expected,
            "circuit layer does not realize the slot fat-tree"
        );
    }

    // ------------------------------------------------------------------
    // Offline diagnosis support (paper §4.2, Fig. 4).
    // ------------------------------------------------------------------

    /// The up-to-three circuit configurations through which the suspect
    /// interface `(p, iface)` can be tested: against a spare switch's
    /// matching interface on the same circuit switch (0 side hops), and
    /// against the suspect switch's *own* neighboring interfaces through one
    /// side-port hop in each ring direction.
    ///
    /// Host-facing edge interfaces cannot be diagnosed this way if the test
    /// would involve a host (hosts are actively in use — paper §4.2); the
    /// returned configurations only ever involve offline switches.
    pub fn diagnosis_configs(&self, p: PhysId, iface: usize) -> Vec<DiagConfig> {
        let mut configs = Vec::new();
        // Partner 1: a spare member of the group on the other side of the
        // same circuit switch, on the interface the peer uses (crossbar can
        // connect north↔south directly). Every member of a group is cabled
        // alike, so slot 0 of the suspect's group stands for the suspect.
        if let LinkEnd::Iface(far, far_iface) = self.peer(self.phys(p).group.slot(0), iface) {
            if let Some(&partner) = self.spares(far.group).first() {
                configs.push(DiagConfig {
                    partner: (partner, far_iface),
                    side_hops: 0,
                });
            }
        }
        // Partners 2 and 3: the suspect switch's own interface on the ring
        // neighbors of this circuit switch (Fig. 4's chained configurations).
        // A core switch has no interface on its ring neighbors, which carry
        // other core groups.
        let (cs, _) = self.iface_attachment(p, iface);
        for (_, neighbor, _) in self.ring_neighbors(cs) {
            if let Some(other) = self.iface_on(p, neighbor) {
                configs.push(DiagConfig {
                    partner: (p, other),
                    side_hops: 1,
                });
            }
            if configs.len() >= 3 {
                break;
            }
        }
        configs.truncate(3);
        configs
    }

    /// The circuit switch and port where interface `iface` of `p` attaches.
    pub fn iface_attachment(&self, p: PhysId, iface: usize) -> (CsId, CsPort) {
        self.iface_port[p.index() * self.k() + iface]
    }

    /// The interface of `p` cabled to circuit switch `cs`, if any.
    pub fn iface_on(&self, p: PhysId, cs: CsId) -> Option<usize> {
        (0..self.k()).find(|&i| self.iface_attachment(p, i).0 == cs)
    }

    /// Side-port indices (toward ring-previous, toward ring-next) of a
    /// circuit switch: right after its north group's ports.
    fn side_ports(&self, cs: CsId) -> (CsPort, CsPort) {
        let north = match cs {
            CsId::HostEdge { .. } | CsId::EdgeAgg { .. } => {
                self.cfg.group_size_for(GroupKind::Edge)
            }
            CsId::AggCore { .. } => self.cfg.group_size_for(GroupKind::Agg),
        };
        (CsPort(north), CsPort(north + 1))
    }

    /// The ring-previous and ring-next neighbors of `cs`, as read off its
    /// side-port cables: `(own side port, neighbor, neighbor's side port)`.
    fn ring_neighbors(&self, cs: CsId) -> [(CsPort, CsId, CsPort); 2] {
        let (prev, next) = self.side_ports(cs);
        [prev, next].map(|port| match self.circuit_switch(cs).attachment(port) {
            Attachment::Side { cs: r, port: far } => (port, cs.at_ring_index(r), far),
            other => unreachable!("side port {port:?} of {cs:?} holds {other:?}"),
        })
    }

    /// Physically execute one offline-diagnosis test (paper §4.2, Fig. 4):
    /// set up the test circuit(s) on the real circuit switches — directly
    /// for a same-crossbar partner, through the side-port ring for a
    /// neighbor-crossbar partner — evaluate connectivity against ground
    /// truth, then tear the test circuits down.
    ///
    /// Returns `None` if the test cannot run without disturbing the live
    /// network (a port involved still carries a production circuit — the
    /// paper's rule that diagnosis only involves offline switches), or
    /// `Some(connectivity)` otherwise.
    pub fn run_diagnosis_test(
        &mut self,
        suspect: PhysId,
        iface: usize,
        cfg: DiagConfig,
    ) -> Option<bool> {
        let (cs_a, port_a) = self.iface_attachment(suspect, iface);
        let (cs_b, port_b) = self.iface_attachment(cfg.partner.0, cfg.partner.1);
        // Never touch ports that carry live circuits.
        if self.circuit_switch(cs_a).mate(port_a).is_some()
            || self.circuit_switch(cs_b).mate(port_b).is_some()
        {
            return None;
        }
        let healthy = self.phys(suspect).healthy
            && !self.iface_broken(suspect, iface)
            && self.phys(cfg.partner.0).healthy
            && !self.iface_broken(cfg.partner.0, cfg.partner.1);

        let connectivity = if cs_a == cs_b {
            // One crossbar: direct circuit.
            let cs = self.circuit_switch_mut(cs_a);
            cs.connect(port_a, port_b);
            let ok = self.circuit_switch(cs_a).is_up() && healthy;
            self.circuit_switch_mut(cs_a).disconnect(port_a);
            ok
        } else {
            // Ring neighbors: route through the side-port pair facing each
            // other. With a ring of size k/2, +1 and -1 can coincide (k=4);
            // the ring-next cable is then the one used.
            let [prev, next] = self.ring_neighbors(cs_a);
            let Some((sa, _, sb)) = [next, prev].into_iter().find(|&(_, n, _)| n == cs_b) else {
                return None; // not adjacent on the ring
            };
            if self.circuit_switch(cs_a).mate(sa).is_some()
                || self.circuit_switch(cs_b).mate(sb).is_some()
            {
                return None; // side ports busy with another diagnosis
            }
            self.circuit_switch_mut(cs_a).connect(port_a, sa);
            self.circuit_switch_mut(cs_b).connect(sb, port_b);
            let ok = self.circuit_switch(cs_a).is_up()
                && self.circuit_switch(cs_b).is_up()
                && healthy;
            self.circuit_switch_mut(cs_a).disconnect(port_a);
            self.circuit_switch_mut(cs_b).disconnect(port_b);
            ok
        };
        Some(connectivity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(k: usize, n: usize) -> ShareBackup {
        ShareBackup::build(ShareBackupConfig::new(k, n))
    }

    #[test]
    fn inventory_matches_paper_formulas() {
        let k = 6;
        let n = 1;
        let sb = build(k, n);
        // 5/2·k failure groups (2k pod groups + k/2 core groups).
        assert_eq!(sb.group_ids().len(), 5 * k / 2);
        // Physical switches: (k/2+n) per group.
        assert_eq!(sb.phys_count(), (5 * k / 2) * (k / 2 + n));
        // Circuit switches: 3 sets of k/2 per pod = 3k²/2.
        assert_eq!(sb.circuit_switch_count(), 3 * k * k / 2);
        // Spares: n per group.
        for g in sb.group_ids() {
            assert_eq!(sb.spares(g).len(), n);
        }
    }

    #[test]
    fn circuit_layer_realizes_exactly_the_fat_tree() {
        let sb = build(4, 1);
        let mut expected: Vec<(NodeId, NodeId)> = sb
            .slots
            .net
            .link_ids()
            .map(|l| {
                let link = sb.slots.net.link(l);
                if link.a <= link.b {
                    (link.a, link.b)
                } else {
                    (link.b, link.a)
                }
            })
            .collect();
        expected.sort();
        assert_eq!(sb.derived_links(), expected);
    }

    #[test]
    fn replacement_preserves_fat_tree_connectivity() {
        let mut sb = build(4, 1);
        for g in sb.group_ids() {
            let slot = g.slot(1);
            let spare = sb.spares(g)[0];
            let report = sb.replace(slot, spare);
            assert!(report.circuit_ops > 0);
            assert_eq!(sb.occupant(slot), spare);
        }
        // After replacing a slot in every group, the circuit layer must
        // still realize exactly the fat-tree.
        let mut expected: Vec<(NodeId, NodeId)> = sb
            .slots
            .net
            .link_ids()
            .map(|l| {
                let link = sb.slots.net.link(l);
                if link.a <= link.b {
                    (link.a, link.b)
                } else {
                    (link.b, link.a)
                }
            })
            .collect();
        expected.sort();
        assert_eq!(sb.derived_links(), expected);
    }

    #[test]
    fn replacement_touches_expected_circuit_switch_counts() {
        let mut sb = build(6, 1);
        let half = 3;
        // Edge slot: k/2 CS1 + k/2 CS2 = k circuit switches.
        let g = GroupId::edge(0);
        let spare = sb.spares(g)[0];
        let r = sb.replace(g.slot(0), spare);
        assert_eq!(r.circuit_switches_touched, 2 * half);
        // Core slot: one CS3 per pod = k circuit switches.
        let g = GroupId::core(1);
        let spare = sb.spares(g)[0];
        let r = sb.replace(g.slot(0), spare);
        assert_eq!(r.circuit_switches_touched, 6);
    }

    #[test]
    fn failed_switch_takes_slot_down_and_replacement_restores_it() {
        let mut sb = build(4, 1);
        let slot = GroupId::agg(2).slot(0);
        let victim = sb.occupant(slot);
        let node = sb.slot_node(slot);
        sb.set_phys_healthy(victim, false);
        assert!(!sb.slots.net.node(node).up);
        let spare = sb.spares(slot.group)[0];
        sb.replace(slot, spare);
        assert!(sb.slots.net.node(node).up);
        // Old occupant is now a spare-position switch, but unhealthy.
        assert_eq!(sb.slot_of(victim), None);
        assert!(sb.spares(slot.group).is_empty());
        // Repair it: it becomes an available backup (role swap, §4.2).
        sb.set_phys_healthy(victim, true);
        assert_eq!(sb.spares(slot.group), vec![victim]);
    }

    #[test]
    fn broken_interface_downs_one_link_only() {
        let mut sb = build(4, 1);
        let slot = GroupId::edge(0).slot(0);
        let occ = sb.occupant(slot);
        let k_half = 2;
        // Break edge up-port 0 (to CS2[0] → agg slot (0+0)%2 = 0).
        sb.set_iface_broken(occ, k_half, true);
        let e = sb.slots.edge(0, 0);
        let a0 = sb.slots.agg(0, 0);
        let a1 = sb.slots.agg(0, 1);
        let l0 = sb.slots.net.link_between(e, a0).expect("link");
        let l1 = sb.slots.net.link_between(e, a1).expect("link");
        assert!(!sb.slots.net.link_usable(l0));
        assert!(sb.slots.net.link_usable(l1));
        // Replacing the switch fixes the link (new occupant, fresh iface).
        let spare = sb.spares(slot.group)[0];
        sb.replace(slot, spare);
        let l0 = sb.slots.net.link_between(e, a0).expect("link");
        assert!(sb.slots.net.link_usable(l0));
    }

    #[test]
    fn circuit_switch_failure_downs_its_links() {
        let mut sb = build(4, 1);
        sb.set_circuit_switch_up(CsId::HostEdge { pod: 0, m: 1 }, false);
        // Host 1 of every edge in pod 0 loses its link.
        for j in 0..2 {
            let host = sb.slots.host(HostAddr { pod: 0, edge: j, host: 1 });
            let edge = sb.slots.edge(0, j);
            let l = sb.slots.net.link_between(host, edge).expect("link");
            assert!(!sb.slots.net.link_usable(l));
        }
        // Hosts with index 0 are unaffected.
        let host = sb.slots.host(HostAddr { pod: 0, edge: 0, host: 0 });
        let edge = sb.slots.edge(0, 0);
        let l = sb.slots.net.link_between(host, edge).expect("link");
        assert!(sb.slots.net.link_usable(l));
    }

    #[test]
    fn host_nic_failure_downs_host_link() {
        let mut sb = build(4, 1);
        let host = sb.slots.host(HostAddr { pod: 1, edge: 0, host: 0 });
        sb.set_host_nic_broken(host, true);
        let edge = sb.slots.edge(1, 0);
        let l = sb.slots.net.link_between(host, edge).expect("link");
        assert!(!sb.slots.net.link_usable(l));
        sb.set_host_nic_broken(host, false);
        assert!(sb.slots.net.link_usable(l));
    }

    #[test]
    fn diagnosis_configs_cover_three_tests() {
        let sb = build(6, 1);
        // Agg up-interface: spare core partner + two own-iface ring tests.
        let agg = sb.occupant(GroupId::agg(0).slot(0));
        let configs = sb.diagnosis_configs(agg, 3); // up-port u=0
        assert_eq!(configs.len(), 3);
        assert_eq!(configs.iter().filter(|c| c.side_hops == 0).count(), 1);
        assert_eq!(configs.iter().filter(|c| c.side_hops == 1).count(), 2);
        // The side-hop partners are the suspect's own other up-interfaces.
        for c in configs.iter().filter(|c| c.side_hops == 1) {
            assert_eq!(c.partner.0, agg);
            assert!(c.partner.1 >= 3, "must be another up-port");
        }
    }

    #[test]
    fn diagnosis_for_host_facing_iface_avoids_hosts() {
        let sb = build(6, 1);
        let edge = sb.occupant(GroupId::edge(0).slot(0));
        // Down-port (host side): only ring self-tests, no host partners.
        let configs = sb.diagnosis_configs(edge, 0);
        assert_eq!(configs.len(), 2);
        assert!(configs.iter().all(|c| c.partner.0 == edge));
    }

    #[test]
    fn core_diagnosis_uses_spare_agg_partner() {
        let sb = build(6, 1);
        let core = sb.occupant(GroupId::core(0).slot(0));
        let configs = sb.diagnosis_configs(core, 2); // pod-2 interface
        assert_eq!(configs.len(), 1);
        let (partner, iface) = configs[0].partner;
        assert_eq!(sb.phys(partner).group, GroupId::agg(2));
        assert_eq!(iface, 3); // agg up-port u=0 at k=6
    }

    #[test]
    fn non_uniform_backup_pools() {
        // §6 extension: more backups on critical (edge) groups, fewer on
        // cores. Everything — inventory, replacement, circuit realization —
        // must still hold.
        let cfg = ShareBackupConfig::new(6, 1).with_backups(2, 1, 0);
        let mut sb = ShareBackup::build(cfg);
        assert_eq!(sb.group_members(GroupId::edge(0)).len(), 5);
        assert_eq!(sb.group_members(GroupId::agg(0)).len(), 4);
        assert_eq!(sb.group_members(GroupId::core(0)).len(), 3);
        assert_eq!(sb.spares(GroupId::edge(0)).len(), 2);
        assert_eq!(sb.spares(GroupId::core(0)).len(), 0);
        // Two successive edge replacements succeed (two backups).
        for _ in 0..2 {
            let slot = GroupId::edge(0).slot(0);
            let spare = sb.spares(GroupId::edge(0))[0];
            sb.replace(slot, spare);
        }
        // Agg replacement also succeeds.
        let spare = sb.spares(GroupId::agg(3))[0];
        sb.replace(GroupId::agg(3).slot(2), spare);
        // The circuit layer still realizes exactly the fat-tree.
        let mut expected: Vec<(NodeId, NodeId)> = sb
            .slots
            .net
            .link_ids()
            .map(|l| {
                let link = sb.slots.net.link(l);
                if link.a <= link.b {
                    (link.a, link.b)
                } else {
                    (link.b, link.a)
                }
            })
            .collect();
        expected.sort();
        assert_eq!(sb.derived_links(), expected);
    }

    #[test]
    fn zero_backup_layer_has_no_spares_to_offer() {
        let cfg = ShareBackupConfig::new(4, 1).with_backups(1, 1, 0);
        let sb = ShareBackup::build(cfg);
        assert!(sb.spares(GroupId::core(0)).is_empty());
        assert_eq!(sb.spares(GroupId::edge(2)).len(), 1);
    }

    #[test]
    #[should_panic(expected = "different failure group")]
    fn cross_group_replacement_rejected() {
        let mut sb = build(4, 1);
        let spare = sb.spares(GroupId::edge(0))[0];
        sb.replace(GroupId::agg(0).slot(0), spare);
    }

    #[test]
    fn replace_with_no_slot_change_is_stable() {
        // Replacing back and forth returns to an equivalent configuration.
        let mut sb = build(4, 2);
        let slot = GroupId::edge(1).slot(1);
        let first = sb.occupant(slot);
        let spare = sb.spares(slot.group)[0];
        sb.replace(slot, spare);
        sb.replace(slot, first);
        assert_eq!(sb.occupant(slot), first);
        let mut expected: Vec<(NodeId, NodeId)> = sb
            .slots
            .net
            .link_ids()
            .map(|l| {
                let link = sb.slots.net.link(l);
                if link.a <= link.b {
                    (link.a, link.b)
                } else {
                    (link.b, link.a)
                }
            })
            .collect();
        expected.sort();
        assert_eq!(sb.derived_links(), expected);
    }
}

//! The k-ary fat-tree of Al-Fares et al. (SIGCOMM'08).
//!
//! A fat-tree with parameter `k` has `k` pods; each pod holds `k/2` edge and
//! `k/2` aggregation switches; `(k/2)²` core switches join the pods; each edge
//! switch serves `k/2` hosts, for `k³/4` hosts total.
//!
//! Which core each aggregation uplink reaches (the *striping*) is decided
//! here and nowhere else: [`FatTree::core_of`] and [`FatTree::agg_for_core`].
//! The standard tree stripes every pod consecutively (type A). F10's AB
//! fat-tree ([`crate::F10Topology`]) has the same nodes and links and
//! differs only in that odd pods use the transposed striping (type B).
//!
//! The paper's §2.2 failure study maps a 150-rack 10:1-oversubscribed
//! production trace onto a k=16 fat-tree with the same oversubscription at
//! the edge, so the builder takes an oversubscription factor: uplinks carry
//! `host_link_bps / oversubscription` each, making the edge layer's
//! down:up capacity ratio equal to `oversubscription`.

use crate::graph::{Network, NodeKind};
use crate::ids::NodeId;

/// Parameters of a fat-tree instance.
#[derive(Clone, Copy, Debug)]
pub struct FatTreeConfig {
    /// Switch port count and pod count. Must be even and ≥ 4.
    pub k: usize,
    /// Capacity of host-to-edge links, bits per second.
    pub host_link_bps: f64,
    /// Edge oversubscription ratio (1.0 = full bisection).
    pub oversubscription: f64,
}

impl FatTreeConfig {
    /// A full-bisection 10 Gbps fat-tree of the given `k`.
    pub fn new(k: usize) -> FatTreeConfig {
        FatTreeConfig {
            k,
            host_link_bps: 10e9,
            oversubscription: 1.0,
        }
    }

    /// Set the edge oversubscription ratio (paper §2.2 uses 10:1).
    pub fn with_oversubscription(mut self, ratio: f64) -> FatTreeConfig {
        self.oversubscription = ratio;
        self
    }

    /// Set the host link capacity in bits per second.
    pub fn with_host_link_bps(mut self, bps: f64) -> FatTreeConfig {
        self.host_link_bps = bps;
        self
    }

    /// Capacity of switch-to-switch links under this configuration.
    pub fn uplink_bps(&self) -> f64 {
        self.host_link_bps / self.oversubscription
    }

    /// Number of hosts, `k³/4`.
    pub fn host_count(&self) -> usize {
        self.k * self.k * self.k / 4
    }

    /// Number of core switches, `(k/2)²`.
    pub fn core_count(&self) -> usize {
        (self.k / 2) * (self.k / 2)
    }
}

/// A host's position: pod, edge switch within the pod, port on that edge.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct HostAddr {
    /// Pod index in `[0, k)`.
    pub pod: usize,
    /// Edge switch index within the pod, `[0, k/2)`.
    pub edge: usize,
    /// Host index under that edge switch, `[0, k/2)`.
    pub host: usize,
}

impl HostAddr {
    /// Global host index: `pod·k²/4 + edge·k/2 + host`.
    pub fn to_index(self, k: usize) -> usize {
        self.pod * (k * k / 4) + self.edge * (k / 2) + self.host
    }

    /// Inverse of [`HostAddr::to_index`].
    pub fn from_index(index: usize, k: usize) -> HostAddr {
        let per_pod = k * k / 4;
        let per_edge = k / 2;
        HostAddr {
            pod: index / per_pod,
            edge: (index % per_pod) / per_edge,
            host: index % per_edge,
        }
    }
}

/// The striping type of a pod: which core each aggregation uplink reaches.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PodType {
    /// Consecutive striping: agg `a` → cores `a·k/2 + m`.
    A,
    /// Transposed striping: agg `a` → cores `m·k/2 + a`.
    B,
}

/// The agg→core striping of a whole tree.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Striping {
    /// Every pod is type A: the fat-tree of Al-Fares et al.
    Standard,
    /// F10's AB fat-tree: even pods are type A, odd pods type B.
    AB,
}

/// A built fat-tree: the graph plus layer indexes for O(1) lookup.
#[derive(Clone, Debug)]
pub struct FatTree {
    /// The configuration this tree was built from.
    pub cfg: FatTreeConfig,
    /// The underlying graph.
    pub net: Network,
    hosts: Vec<NodeId>,
    edges: Vec<Vec<NodeId>>,
    aggs: Vec<Vec<NodeId>>,
    cores: Vec<NodeId>,
    striping: Striping,
}

impl FatTree {
    /// Build a fat-tree with the standard striping.
    ///
    /// # Panics
    /// Panics if `k` is odd or less than 4.
    pub fn build(cfg: FatTreeConfig) -> FatTree {
        FatTree::build_striped(cfg, Striping::Standard)
    }

    /// Build a fat-tree with the given agg→core striping. Node and link
    /// order do not depend on the striping.
    ///
    /// # Panics
    /// Panics if `k` is odd or less than 4.
    #[allow(clippy::needless_range_loop)] // indices double as addresses
    pub(crate) fn build_striped(cfg: FatTreeConfig, striping: Striping) -> FatTree {
        assert!(cfg.k >= 4 && cfg.k.is_multiple_of(2), "k must be even and >= 4");
        let k = cfg.k;
        let half = k / 2;
        let mut net = Network::new();

        let cores: Vec<NodeId> = (0..cfg.core_count())
            .map(|j| net.add_node(NodeKind::Core, None, j))
            .collect();
        let mut edges = Vec::with_capacity(k);
        let mut aggs = Vec::with_capacity(k);
        let mut hosts = Vec::with_capacity(cfg.host_count());
        for pod in 0..k {
            edges.push(
                (0..half)
                    .map(|j| net.add_node(NodeKind::Edge, Some(pod), j))
                    .collect::<Vec<_>>(),
            );
            aggs.push(
                (0..half)
                    .map(|j| net.add_node(NodeKind::Agg, Some(pod), j))
                    .collect::<Vec<_>>(),
            );
            for e in 0..half {
                for h in 0..half {
                    let addr = HostAddr {
                        pod,
                        edge: e,
                        host: h,
                    };
                    let id = net.add_node(NodeKind::Host, Some(pod), addr.to_index(k));
                    hosts.push(id);
                }
            }
        }

        let mut ft = FatTree {
            cfg,
            net,
            hosts,
            edges,
            aggs,
            cores,
            striping,
        };
        let uplink = cfg.uplink_bps();
        for pod in 0..k {
            // Host <-> edge.
            for e in 0..half {
                for h in 0..half {
                    let idx = HostAddr {
                        pod,
                        edge: e,
                        host: h,
                    }
                    .to_index(k);
                    ft.net.add_link(ft.hosts[idx], ft.edges[pod][e], cfg.host_link_bps);
                }
            }
            // Edge <-> agg: full bipartite within the pod.
            for e in 0..half {
                for a in 0..half {
                    ft.net.add_link(ft.edges[pod][e], ft.aggs[pod][a], uplink);
                }
            }
            // Agg a's m-th uplink <-> core `core_of(pod, a, m)`.
            for a in 0..half {
                for m in 0..half {
                    let core = ft.cores[ft.core_of(pod, a, m)];
                    ft.net.add_link(ft.aggs[pod][a], core, uplink);
                }
            }
        }
        ft
    }

    /// Fat-tree parameter `k`.
    pub fn k(&self) -> usize {
        self.cfg.k
    }

    /// Node id of the host at `addr`.
    pub fn host(&self, addr: HostAddr) -> NodeId {
        self.hosts[addr.to_index(self.cfg.k)]
    }

    /// All host node ids, in global-index order.
    pub fn hosts(&self) -> &[NodeId] {
        &self.hosts
    }

    /// Edge switch E_{pod,j}.
    pub fn edge(&self, pod: usize, j: usize) -> NodeId {
        self.edges[pod][j]
    }

    /// Aggregation switch A_{pod,j}.
    pub fn agg(&self, pod: usize, j: usize) -> NodeId {
        self.aggs[pod][j]
    }

    /// Core switch C_j (global index).
    pub fn core(&self, j: usize) -> NodeId {
        self.cores[j]
    }

    /// All core switch ids in index order.
    pub fn cores(&self) -> &[NodeId] {
        &self.cores
    }

    /// The address of a host node.
    ///
    /// # Panics
    /// Panics if `n` is not a host.
    pub fn addr_of(&self, n: NodeId) -> HostAddr {
        let node = self.net.node(n);
        assert_eq!(node.kind, NodeKind::Host, "{n:?} is not a host");
        HostAddr::from_index(node.index, self.cfg.k)
    }

    /// Striping type of `pod`. Every pod of a standard tree is type A; an
    /// AB tree (F10) alternates A (even pods) and B (odd pods).
    pub fn pod_type(&self, pod: usize) -> PodType {
        if self.striping == Striping::AB && !pod.is_multiple_of(2) {
            PodType::B
        } else {
            PodType::A
        }
    }

    /// Global index of the core that aggregation switch `a` of `pod`
    /// reaches on its `m`-th uplink: `a·k/2 + m` in a type-A pod,
    /// `m·k/2 + a` in a type-B pod.
    pub fn core_of(&self, pod: usize, a: usize, m: usize) -> usize {
        let half = self.cfg.k / 2;
        match self.pod_type(pod) {
            PodType::A => a * half + m,
            PodType::B => m * half + a,
        }
    }

    /// In-pod index of the aggregation switch that core `c` connects to in
    /// `pod`. Every core reaches exactly one agg per pod.
    pub fn agg_for_core(&self, pod: usize, c: usize) -> usize {
        let half = self.cfg.k / 2;
        match self.pod_type(pod) {
            PodType::A => c / half,
            PodType::B => c % half,
        }
    }

    /// All equal-cost shortest paths between two hosts, as node sequences
    /// including both endpoints (ignores failure state — callers filter with
    /// [`Network::path_usable`]): [`FatTree::host_path`] for every index
    /// below [`FatTree::host_path_count`].
    ///
    /// * Same edge switch: 1 path of 2 hops.
    /// * Same pod, different edge: k/2 paths of 4 hops.
    /// * Different pods: (k/2)² paths of 6 hops.
    pub fn host_paths(&self, src: NodeId, dst: NodeId) -> Vec<Vec<NodeId>> {
        (0..self.host_path_count(src, dst))
            .map(|i| self.host_path(src, dst, i))
            .collect()
    }

    /// Number of equal-cost shortest paths between two hosts.
    ///
    /// # Panics
    /// Panics if `src == dst` or either is not a host.
    pub fn host_path_count(&self, src: NodeId, dst: NodeId) -> usize {
        let (s, d) = (self.addr_of(src), self.addr_of(dst));
        assert!(src != dst, "src == dst");
        self.path_count_between(s, d)
    }

    /// [`FatTree::host_path_count`] for two distinct host addresses.
    fn path_count_between(&self, s: HostAddr, d: HostAddr) -> usize {
        let half = self.cfg.k / 2;
        if s.pod != d.pod {
            half * half
        } else if s.edge != d.edge {
            half
        } else {
            1
        }
    }

    /// The `i`-th equal-cost shortest path between two hosts, in
    /// [`FatTree::host_paths`] order: within a pod, `i` is the agg index;
    /// across pods, the source agg is `a = i / (k/2)` and its uplink
    /// `m = i % (k/2)`.
    ///
    /// # Panics
    /// Panics if `src == dst`, either is not a host, or
    /// `i >= host_path_count(src, dst)`.
    pub fn host_path(&self, src: NodeId, dst: NodeId, i: usize) -> Vec<NodeId> {
        let (s, d) = (self.addr_of(src), self.addr_of(dst));
        assert!(src != dst, "src == dst");
        let count = self.path_count_between(s, d);
        assert!(i < count, "path index {i} out of {count}");
        let half = self.cfg.k / 2;
        let se = self.edges[s.pod][s.edge];
        let de = self.edges[d.pod][d.edge];
        if count == 1 {
            return vec![src, se, dst];
        }
        if s.pod == d.pod {
            return vec![src, se, self.aggs[s.pod][i], de, dst];
        }
        let (a, m) = (i / half, i % half);
        let c = self.core_of(s.pod, a, m);
        vec![
            src,
            se,
            self.aggs[s.pod][a],
            self.cores[c],
            self.aggs[d.pod][self.agg_for_core(d.pod, c)],
            de,
            dst,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_match_formulas() {
        for k in [4, 6, 8, 16] {
            let ft = FatTree::build(FatTreeConfig::new(k));
            let half = k / 2;
            assert_eq!(ft.hosts().len(), k * k * k / 4, "hosts for k={k}");
            assert_eq!(ft.cores().len(), half * half, "cores for k={k}");
            // Links: hosts k³/4 + edge-agg k·(k/2)² + agg-core k·(k/2)².
            let expect = k * k * k / 4 + 2 * k * half * half;
            assert_eq!(ft.net.link_count(), expect, "links for k={k}");
            // Switch degrees: every switch has exactly k links.
            for pod in 0..k {
                for j in 0..half {
                    assert_eq!(ft.net.incident(ft.edge(pod, j)).len(), k);
                    assert_eq!(ft.net.incident(ft.agg(pod, j)).len(), k);
                }
            }
            for j in 0..half * half {
                assert_eq!(ft.net.incident(ft.core(j)).len(), k);
            }
        }
    }

    #[test]
    fn host_addr_round_trip() {
        let k = 8;
        for idx in 0..(k * k * k / 4) {
            let addr = HostAddr::from_index(idx, k);
            assert_eq!(addr.to_index(k), idx);
            assert!(addr.pod < k && addr.edge < k / 2 && addr.host < k / 2);
        }
    }

    #[test]
    fn paths_have_expected_multiplicity_and_length() {
        let ft = FatTree::build(FatTreeConfig::new(6));
        let same_edge = ft.host_paths(
            ft.host(HostAddr { pod: 0, edge: 0, host: 0 }),
            ft.host(HostAddr { pod: 0, edge: 0, host: 1 }),
        );
        assert_eq!(same_edge.len(), 1);
        assert_eq!(same_edge[0].len(), 3);

        let same_pod = ft.host_paths(
            ft.host(HostAddr { pod: 0, edge: 0, host: 0 }),
            ft.host(HostAddr { pod: 0, edge: 2, host: 1 }),
        );
        assert_eq!(same_pod.len(), 3);
        assert!(same_pod.iter().all(|p| p.len() == 5));

        let cross_pod = ft.host_paths(
            ft.host(HostAddr { pod: 0, edge: 0, host: 0 }),
            ft.host(HostAddr { pod: 3, edge: 2, host: 1 }),
        );
        assert_eq!(cross_pod.len(), 9);
        assert!(cross_pod.iter().all(|p| p.len() == 7));
    }

    #[test]
    fn all_enumerated_paths_are_usable() {
        let ft = FatTree::build(FatTreeConfig::new(4));
        let hosts = ft.hosts();
        for (i, &src) in hosts.iter().enumerate() {
            for &dst in &hosts[i + 1..] {
                for path in ft.host_paths(src, dst) {
                    assert!(ft.net.path_usable(&path), "unusable path {path:?}");
                }
            }
        }
    }

    #[test]
    fn path_index_names_agg_then_uplink() {
        let ft = FatTree::build(FatTreeConfig::new(6));
        let src = ft.host(HostAddr { pod: 1, edge: 0, host: 2 });
        let dst = ft.host(HostAddr { pod: 4, edge: 2, host: 0 });
        assert_eq!(ft.host_path_count(src, dst), 9);
        for i in 0..9 {
            let (a, m) = (i / 3, i % 3);
            let p = ft.host_path(src, dst, i);
            assert_eq!(p[2], ft.agg(1, a));
            assert_eq!(p[3], ft.core(ft.core_of(1, a, m)));
        }
        let sibling = ft.host(HostAddr { pod: 1, edge: 2, host: 0 });
        assert_eq!(ft.host_path_count(src, sibling), 3);
        assert_eq!(ft.host_path(src, sibling, 2)[2], ft.agg(1, 2));
        let neighbor = ft.host(HostAddr { pod: 1, edge: 0, host: 0 });
        assert_eq!(ft.host_path_count(src, neighbor), 1);
    }

    #[test]
    #[should_panic(expected = "path index 3 out of 3")]
    fn path_index_out_of_range_panics() {
        let ft = FatTree::build(FatTreeConfig::new(6));
        let src = ft.host(HostAddr { pod: 1, edge: 0, host: 2 });
        let dst = ft.host(HostAddr { pod: 1, edge: 2, host: 0 });
        ft.host_path(src, dst, 3);
    }

    #[test]
    fn bfs_distance_matches_enumerated_paths() {
        let ft = FatTree::build(FatTreeConfig::new(4));
        let a = ft.host(HostAddr { pod: 0, edge: 0, host: 0 });
        let b = ft.host(HostAddr { pod: 1, edge: 1, host: 1 });
        assert_eq!(ft.net.distance(a, b), Some(6));
        let c = ft.host(HostAddr { pod: 0, edge: 1, host: 0 });
        assert_eq!(ft.net.distance(a, c), Some(4));
    }

    #[test]
    fn oversubscription_scales_uplinks_only() {
        let cfg = FatTreeConfig::new(8).with_oversubscription(10.0);
        let ft = FatTree::build(cfg);
        let host = ft.host(HostAddr { pod: 0, edge: 0, host: 0 });
        let edge = ft.edge(0, 0);
        let agg = ft.agg(0, 0);
        let hl = ft.net.link_between(host, edge).expect("host link");
        let ul = ft.net.link_between(edge, agg).expect("uplink");
        assert_eq!(ft.net.link(hl).capacity_bps, 10e9);
        assert_eq!(ft.net.link(ul).capacity_bps, 1e9);
    }

    #[test]
    fn core_wiring_is_strided_by_agg_index() {
        let ft = FatTree::build(FatTreeConfig::new(6));
        // Agg a in every pod connects to the same cores a·k/2+m.
        for pod in 0..6 {
            assert_eq!(ft.pod_type(pod), PodType::A);
            for a in 0..3 {
                for m in 0..3 {
                    assert_eq!(ft.core_of(pod, a, m), a * 3 + m);
                    let core = ft.core(ft.core_of(pod, a, m));
                    assert!(
                        ft.net.link_between(ft.agg(pod, a), core).is_some(),
                        "agg({pod},{a}) should reach core {}",
                        a * 3 + m
                    );
                }
            }
        }
    }

    fn ab_tree(k: usize) -> crate::F10Topology {
        crate::F10Topology::build(FatTreeConfig::new(k))
    }

    #[test]
    fn counts_match_fattree() {
        let f10 = ab_tree(8);
        assert_eq!(f10.hosts().len(), 128);
        assert_eq!(f10.cores().len(), 16);
        assert_eq!(f10.net.link_count(), 128 + 2 * 8 * 16);
    }

    #[test]
    fn ab_striping_differs() {
        let f10 = ab_tree(8);
        assert_eq!(f10.pod_type(0), PodType::A);
        assert_eq!(f10.pod_type(1), PodType::B);
        let cores_of_agg = |pod, a| (0..4).map(|m| f10.core_of(pod, a, m)).collect::<Vec<_>>();
        assert_eq!(cores_of_agg(0, 1), vec![4, 5, 6, 7]); // consecutive
        assert_eq!(cores_of_agg(1, 1), vec![1, 5, 9, 13]); // strided
    }

    #[test]
    fn every_core_reaches_one_agg_per_pod() {
        let f10 = ab_tree(6);
        for pod in 0..6 {
            for c in 0..9 {
                let a = f10.agg_for_core(pod, c);
                assert!(
                    f10.net.link_between(f10.agg(pod, a), f10.core(c)).is_some(),
                    "core {c} should reach agg({pod},{a})"
                );
            }
        }
    }

    #[test]
    fn core_degree_is_k() {
        let f10 = ab_tree(6);
        for j in 0..9 {
            assert_eq!(f10.net.incident(f10.core(j)).len(), 6);
        }
    }

    #[test]
    fn cross_pod_paths_valid_and_complete() {
        let f10 = ab_tree(4);
        let a = f10.host(HostAddr { pod: 0, edge: 0, host: 0 });
        let b = f10.host(HostAddr { pod: 1, edge: 1, host: 0 });
        let paths = f10.host_paths(a, b);
        assert_eq!(paths.len(), 4);
        for p in &paths {
            assert_eq!(p.len(), 7);
            assert!(f10.net.path_usable(p), "unusable path {p:?}");
        }
        // Paths must use distinct cores.
        let mut cores: Vec<NodeId> = paths.iter().map(|p| p[3]).collect();
        cores.sort();
        cores.dedup();
        assert_eq!(cores.len(), 4);
    }

    #[test]
    fn f10_detour_property_holds() {
        // The property local rerouting relies on: for a core c and a type-A
        // target pod, some type-B pod contains an agg connected to both c and
        // an alternate core c' that enters the target pod at a different agg.
        let f10 = ab_tree(6);
        let target_pod = 0; // type A
        for c in 0..9 {
            let blocked_agg = f10.agg_for_core(target_pod, c);
            let mut found = false;
            'search: for b_pod in (0..6).filter(|p| f10.pod_type(*p) == PodType::B) {
                let via = f10.agg_for_core(b_pod, c);
                for m in 0..3 {
                    let c2 = f10.core_of(b_pod, via, m);
                    if c2 != c && f10.agg_for_core(target_pod, c2) != blocked_agg {
                        found = true;
                        break 'search;
                    }
                }
            }
            assert!(found, "no 3-hop detour for core {c} into pod {target_pod}");
        }
    }

    #[test]
    #[should_panic(expected = "k must be even")]
    fn odd_k_rejected() {
        FatTree::build(FatTreeConfig::new(5));
    }
}

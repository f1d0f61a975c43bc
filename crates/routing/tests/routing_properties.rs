//! Property-based tests of the routing crate: ECMP validity, table-driven
//! forwarding, rerouting correctness, F10 local recovery, and
//! impersonation equivalence over random inputs.

use proptest::prelude::*;

use sharebackup_routing::{
    ecmp_path, impersonation::GroupTables, F10Router, FlowKey,
    GlobalReroute, TwoLevelTables,
};
use sharebackup_topo::{F10Topology, FatTree, FatTreeConfig, HostAddr, NodeKind};

fn ks() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![4usize, 6, 8])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ecmp_paths_are_valid_and_stable(k in ks(), id in 0u64..10_000, h1 in 0usize..64, h2 in 0usize..64) {
        let ft = FatTree::build(FatTreeConfig::new(k));
        let count = ft.hosts().len();
        let src = ft.hosts()[h1 % count];
        let dst = ft.hosts()[h2 % count];
        prop_assume!(src != dst);
        let flow = FlowKey::new(src, dst, id);
        let p1 = ecmp_path(&ft, &flow);
        let p2 = ecmp_path(&ft, &flow);
        prop_assert_eq!(&p1, &p2, "ECMP must be stable");
        prop_assert!(ft.net.path_usable(&p1));
        prop_assert_eq!(*p1.first().expect("nonempty"), src);
        prop_assert_eq!(*p1.last().expect("nonempty"), dst);
    }

    #[test]
    fn table_forwarding_matches_path_shape(k in ks(), h1 in 0usize..64, h2 in 0usize..64) {
        let ft = FatTree::build(FatTreeConfig::new(k));
        let tables = TwoLevelTables::build(k);
        let count = ft.hosts().len();
        let src = ft.hosts()[h1 % count];
        let dst = ft.hosts()[h2 % count];
        prop_assume!(src != dst);
        let p = tables.forward_path(&ft, src, dst);
        prop_assert!(ft.net.path_usable(&p));
        let s = ft.addr_of(src);
        let d = ft.addr_of(dst);
        let expected_len = if s.pod == d.pod && s.edge == d.edge {
            3
        } else if s.pod == d.pod {
            5
        } else {
            7
        };
        prop_assert_eq!(p.len(), expected_len);
    }

    #[test]
    fn reroute_avoids_any_single_core_or_agg_failure(
        k in ks(), id in 0u64..1000, which in any::<bool>(), idx in 0usize..64
    ) {
        let mut ft = FatTree::build(FatTreeConfig::new(k));
        let half = k / 2;
        let src = ft.host(HostAddr { pod: 0, edge: 0, host: 0 });
        let dst = ft.host(HostAddr { pod: 1, edge: 1, host: 1 });
        let victim = if which {
            ft.core(idx % (half * half))
        } else {
            ft.agg(idx % k, (idx / k) % half)
        };
        ft.net.set_node_up(victim, false);
        let flow = FlowKey::new(src, dst, id);
        let p = GlobalReroute::route(&ft, &flow).expect("single fabric failure is survivable");
        prop_assert!(!p.contains(&victim));
        prop_assert!(ft.net.path_usable(&p));
        prop_assert_eq!(p.len(), 7, "rerouting keeps shortest length");
    }

    #[test]
    fn f10_survives_any_single_fabric_failure(
        k in ks(), id in 0u64..1000, idx in 0usize..256
    ) {
        let mut f10 = F10Topology::build(FatTreeConfig::new(k));
        let src = f10.host(HostAddr { pod: 0, edge: 0, host: 0 });
        let dst = f10.host(HostAddr { pod: 1, edge: 1, host: 1 });
        // Fail a random non-edge switch (edge failures strand hosts).
        let victims: Vec<_> = f10
            .net
            .node_ids()
            .filter(|&n| {
                matches!(f10.net.node(n).kind, NodeKind::Agg | NodeKind::Core)
            })
            .collect();
        let victim = victims[idx % victims.len()];
        f10.net.set_node_up(victim, false);
        let flow = FlowKey::new(src, dst, id);
        let p = F10Router::route(&f10, &flow).expect("local recovery exists");
        prop_assert!(!p.contains(&victim));
        prop_assert!(f10.net.path_usable(&p));
        // Local rerouting never dilates by more than the 3-hop detour.
        prop_assert!(p.len() <= 9);
    }

    #[test]
    fn impersonation_equivalence_random_k(k in ks()) {
        let gt = GroupTables::build(k);
        let half = k / 2;
        for pod in 0..k {
            let merged = gt.edge_group(pod);
            for vlan in 0..half {
                for dpod in 0..k {
                    for dh in 0..half {
                        let dst = HostAddr { pod: dpod, edge: (dh + 1) % half, host: dh };
                        let want = gt.tables.edge_next(pod, vlan, dst);
                        prop_assert_eq!(merged.lookup(Some(vlan), dst), want);
                    }
                }
            }
        }
    }

    #[test]
    fn flow_hash_is_uniformish(k in ks(), base in 0u64..1_000_000) {
        let ft = FatTree::build(FatTreeConfig::new(k));
        let src = ft.host(HostAddr { pod: 0, edge: 0, host: 0 });
        let dst = ft.host(HostAddr { pod: 1, edge: 0, host: 0 });
        let half = k / 2;
        let buckets = half * half;
        let mut counts = vec![0usize; buckets];
        let trials = 64 * buckets as u64;
        for id in base..base + trials {
            counts[FlowKey::new(src, dst, id).pick(buckets)] += 1;
        }
        // Chebyshev-ish sanity: no bucket further than 60% from the mean.
        let mean = 64.0;
        for (b, &c) in counts.iter().enumerate() {
            prop_assert!(
                (c as f64 - mean).abs() < mean * 0.6,
                "bucket {b}: {c} vs mean {mean}"
            );
        }
    }
}

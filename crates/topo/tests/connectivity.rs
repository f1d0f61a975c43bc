//! Exhaustive check of [`Network::connected`] and [`Network::all_up`] on a
//! k=4 fat-tree: every set of at most two failed elements (nodes of any
//! kind and links), each failed and then repaired on the same network, so
//! every query also runs right after a state change.

use sharebackup_topo::{FatTree, FatTreeConfig, LinkId, Network, NodeId};

#[derive(Clone, Copy, Debug)]
enum Element {
    Node(NodeId),
    Link(LinkId),
}

fn set_up(net: &mut Network, e: Element, up: bool) {
    match e {
        Element::Node(n) => net.set_node_up(n, up),
        Element::Link(l) => net.set_link_up(l, up),
    }
}

/// Nodes reachable from `src` over usable links, by a search that does not
/// go through [`Network::connected`].
fn reachable_from(net: &Network, src: NodeId) -> Vec<bool> {
    let mut seen = vec![false; net.node_count()];
    if !net.node(src).up {
        return seen;
    }
    seen[src.index()] = true;
    let mut stack = vec![src];
    while let Some(cur) = stack.pop() {
        for (n, _) in net.up_neighbors(cur) {
            if !seen[n.index()] {
                seen[n.index()] = true;
                stack.push(n);
            }
        }
    }
    seen
}

/// For every ordered pair of distinct hosts: `connected` agrees with an
/// independent reachability search and with `bfs_path`. Returns the number
/// of disconnected pairs.
fn check_hosts(net: &Network, hosts: &[NodeId], failed: &[Element]) -> usize {
    let mut disconnected = 0;
    for &a in hosts {
        let reach = reachable_from(net, a);
        for &b in hosts.iter().filter(|&&b| b != a) {
            let connected = net.connected(a, b);
            assert_eq!(
                connected,
                reach[b.index()],
                "connected({a:?}, {b:?}) with {failed:?} failed"
            );
            assert_eq!(
                net.bfs_path(a, b).is_some(),
                connected,
                "bfs_path({a:?}, {b:?}) with {failed:?} failed"
            );
            disconnected += usize::from(!connected);
        }
    }
    disconnected
}

#[test]
fn connected_matches_search_for_every_double_failure() {
    let mut ft = FatTree::build(FatTreeConfig::new(4));
    let hosts = ft.hosts().to_vec();
    let elements: Vec<Element> = ft
        .net
        .node_ids()
        .map(Element::Node)
        .chain(ft.net.link_ids().map(Element::Link))
        .collect();
    let mut sets: Vec<Vec<Element>> = vec![vec![]];
    for (i, &e) in elements.iter().enumerate() {
        sets.push(vec![e]);
        sets.extend(elements[i + 1..].iter().map(|&f| vec![e, f]));
    }
    assert_eq!(sets.len(), 1 + 84 + 84 * 83 / 2);

    let mut cut_states = 0;
    for failed in &sets {
        for &e in failed {
            set_up(&mut ft.net, e, false);
        }
        assert_eq!(ft.net.all_up(), failed.is_empty());
        cut_states += usize::from(check_hosts(&ft.net, &hosts, failed) > 0);
        for &e in failed {
            set_up(&mut ft.net, e, true);
        }
        // Everything is repaired: a stale labelling would still report the
        // pairs the failures had cut.
        assert!(ft.net.all_up());
        let net = &ft.net;
        assert!(
            hosts
                .iter()
                .all(|&a| hosts.iter().all(|&b| net.connected(a, b))),
            "stale labelling after repairing {failed:?}"
        );
    }
    // Host, host-link and edge failures cut hosts off; the rest do not.
    assert!(cut_states > 0 && cut_states < sets.len());
}

//! Exhaustive check of the ShareBackup wiring at k ∈ {4, 6} under uniform
//! and non-uniform backup pools. Every interface of every member, spares
//! included, sits on the circuit-switch port the cabling index names; every
//! slot-network link is a circuit between the two ends `link_ends` names;
//! every link, host links included, maps to a physical failure that downs
//! exactly that link; and the controller's replacement brings the link back
//! whenever the groups involved have spares.

use sharebackup_core::scenario::sb_event;
use sharebackup_core::{Controller, ControllerConfig};
use sharebackup_sim::Time;
use sharebackup_topo::{Attachment, LinkEnd, LinkId, ShareBackup, ShareBackupConfig};
use sharebackup_workload::FailureKind;

/// k ∈ {4, 6} × backup pools (edge, agg, core) ∈ {(1,1,1), (2,0,1), (0,2,1)}.
fn configs() -> Vec<ShareBackupConfig> {
    let pools = [(1, 1, 1), (2, 0, 1), (0, 2, 1)];
    [4, 6]
        .into_iter()
        .flat_map(|k| pools.map(|(e, a, c)| ShareBackupConfig::new(k, 1).with_backups(e, a, c)))
        .collect()
}

#[test]
fn every_interface_sits_on_its_indexed_port() {
    for cfg in configs() {
        let sb = ShareBackup::build(cfg);
        for g in sb.group_ids() {
            for &p in sb.group_members(g) {
                for iface in 0..sb.k() {
                    let (cs, port) = sb.iface_attachment(p, iface);
                    assert_eq!(
                        sb.circuit_switch(cs).attachment(port),
                        Attachment::Switch { switch: p, port: iface },
                        "{cfg:?}: {p:?} iface {iface}"
                    );
                    assert_eq!(sb.iface_on(p, cs), Some(iface));
                }
            }
        }
        assert_links_realized(&sb, &format!("{cfg:?}"));
    }
}

/// Every slot-network link is realized by a circuit that joins the ports
/// of its two ends, as [`ShareBackup::link_ends`] names them.
fn assert_links_realized(sb: &ShareBackup, what: &str) {
    for l in sb.slots.net.link_ids() {
        let (lower, (slot, iface)) = sb.link_ends(l);
        let (cs, port) = sb.iface_attachment(sb.occupant(slot), iface);
        let cs = sb.circuit_switch(cs);
        let want = match lower {
            LinkEnd::Host(h) => Attachment::Host(h),
            LinkEnd::Iface(s, i) => Attachment::Switch { switch: sb.occupant(s), port: i },
        };
        assert_eq!(cs.mate(port).map(|m| cs.attachment(m)), Some(want), "{what}: {l:?}");
    }
}

#[test]
fn every_link_failure_downs_exactly_its_link_and_recovery_restores_it() {
    for cfg in configs() {
        let links = ShareBackup::build(cfg).slots.net.link_count();
        for l in (0..links).map(LinkId::from_index) {
            let mut ctl = Controller::new(ShareBackup::build(cfg), ControllerConfig::default());
            let event = sb_event(&ctl.sb, &ctl.sb.slots.net, FailureKind::Link(l))
                .expect("every slot-network link is a slot failure");
            event.inject(&mut ctl.sb);
            let net = &ctl.sb.slots.net;
            for other in net.link_ids() {
                assert_eq!(net.link_usable(other), other != l, "{cfg:?}: {l:?} broke {other:?}");
            }

            let report = event.report().expect("a link failure reports");
            report.drive(&mut ctl, Time::ZERO);
            // The switches at the link's ends; a host link has one.
            let (lower, (upper, _)) = ctl.sb.link_ends(l);
            let mut kinds = vec![upper.group.kind];
            if let LinkEnd::Iface(slot, _) = lower {
                kinds.push(slot.group.kind);
            }
            if kinds.iter().all(|&kind| cfg.n_for(kind) > 0) {
                assert!(ctl.sb.slots.net.link_usable(l), "{cfg:?}: {l:?} not recovered");
            }
            assert_links_realized(&ctl.sb, &format!("{cfg:?} after recovering {l:?}"));
        }
    }
}

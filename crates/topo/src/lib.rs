#![warn(missing_docs)]
//! # sharebackup-topo
//!
//! Topology substrate for the ShareBackup reproduction.
//!
//! This crate builds every network the paper simulates or proposes:
//!
//! * [`fattree`] — the k-ary fat-tree of Al-Fares et al. (SIGCOMM'08), the
//!   base architecture ShareBackup augments and one of the two rerouting
//!   baselines of the paper's §2.2 failure study. The agg→core striping is
//!   decided here only ([`FatTree::core_of`], [`FatTree::agg_for_core`]).
//! * [`f10`] — the F10 AB fat-tree of Liu et al. (NSDI'13), the second
//!   baseline: a [`FatTree`] with AB striping (odd pods transposed), which
//!   enables local 3-hop rerouting.
//! * [`circuit`] — the configurable circuit-switch crossbar (electrical
//!   crosspoint or 2D-MEMS optical), the paper's §3 enabling technology.
//! * [`sharebackup`] — the ShareBackup physical architecture: a fat-tree
//!   whose switch positions are *slots* occupied by physical switches, with
//!   per-failure-group backup switches reachable through circuit switches.
//!   Its wiring — interface numbering, the CS2 rotation, the circuit-switch
//!   port layout — is decided there only ([`ShareBackup::peer`] and the
//!   cabling in [`ShareBackup::build`]).
//!
//! The split between *slots* (logical fat-tree positions that routing and the
//! data plane see) and *physical switches* (devices that can fail, be
//! replaced, and swap roles) mirrors the paper's key idea: after recovery the
//! slot topology is bit-identical to the pre-failure fat-tree, which is why
//! ShareBackup has no bandwidth loss and no path dilation.

pub mod cabling;
pub mod circuit;
pub mod f10;
pub mod fattree;
pub mod graph;
pub mod ids;
pub mod sharebackup;

pub use cabling::CablingReport;
pub use circuit::{Attachment, CircuitSwitch, CircuitTech, CsPort};
pub use f10::F10Topology;
pub use fattree::{FatTree, FatTreeConfig, HostAddr, PodType};
pub use graph::{Network, NodeKind};
pub use ids::{GroupId, GroupKind, LinkId, NodeId, PhysId, SlotId};
pub use sharebackup::{
    CsId, DiagConfig, LinkEnd, ReplaceReport, ShareBackup, ShareBackupConfig,
};

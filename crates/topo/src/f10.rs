//! The F10 AB fat-tree of Liu et al. (NSDI'13).
//!
//! F10 keeps the fat-tree's node inventory but alternates the striping
//! between aggregation and core layers across pods: *type A* pods use the
//! standard consecutive striping (agg `a` → cores `a·k/2+m`), *type B* pods
//! use the transposed striping (agg `a` → cores `m·k/2+a`). Consequently a
//! core reaches different in-pod aggregation indices in A and B pods, which
//! is what makes F10's local (3-extra-hop) rerouting possible: from a core
//! that lost its link into a pod, a detour through any type-opposite pod
//! reaches an *alternate* core that enters the target pod through a
//! different aggregation switch.
//!
//! An [`F10Topology`] *is* a [`FatTree`] (it derefs to one) whose striping
//! is AB; the striping itself lives in [`FatTree::core_of`] and
//! [`FatTree::agg_for_core`]. The paper's §2.2 uses F10 with its local
//! rerouting as the second rerouting baseline; the detour construction
//! itself lives in `sharebackup-routing`.

use std::ops::{Deref, DerefMut};

use crate::fattree::{FatTree, FatTreeConfig, Striping};

/// A fat-tree built with F10's AB striping.
#[derive(Clone, Debug)]
pub struct F10Topology(FatTree);

impl F10Topology {
    /// Build an F10 AB fat-tree; even pods are type A, odd pods type B.
    ///
    /// # Panics
    /// Panics if `k` is odd or less than 4.
    pub fn build(cfg: FatTreeConfig) -> F10Topology {
        F10Topology(FatTree::build_striped(cfg, Striping::AB))
    }
}

impl Deref for F10Topology {
    type Target = FatTree;
    fn deref(&self) -> &FatTree {
        &self.0
    }
}

impl DerefMut for F10Topology {
    fn deref_mut(&mut self) -> &mut FatTree {
        &mut self.0
    }
}

impl From<F10Topology> for FatTree {
    fn from(f10: F10Topology) -> FatTree {
        f10.0
    }
}

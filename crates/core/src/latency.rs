//! The §5.3 recovery-latency model.
//!
//! All compared schemes share the same failure-*detection* cost: a probing
//! interval (F10's rapid failure detector, which ShareBackup adopts).
//! They differ in what happens next:
//!
//! * **F10 / Aspen local rerouting** — redirect packets to a different NIC
//!   interface; rerouting requires at least one forwarding-rule change,
//!   ~1 ms with SDN (He et al., SOSR'15).
//! * **Fat-tree global rerouting** — failure announcements propagate
//!   multiple hops and rules change at multiple upstream switches.
//! * **ShareBackup** — switch/host→controller notification and
//!   controller→circuit-switch request (both sub-ms on always-on channels;
//!   the paper suggests a kernel-module controller), plus the circuit reset
//!   itself: 70 ns (crosspoint) or 40 µs (2D MEMS). No forwarding rules
//!   change anywhere — tables are preloaded (§4.3).

use sharebackup_sim::Duration;
use sharebackup_topo::CircuitTech;

/// Which recovery scheme's latency to model.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RecoveryScheme {
    /// ShareBackup with the given circuit technology.
    ShareBackup(CircuitTech),
    /// F10/Aspen-style local rerouting (one local rule change).
    LocalReroute,
    /// Fat-tree global rerouting (multi-hop propagation + several rule
    /// changes).
    GlobalReroute {
        /// Switches that must update forwarding state.
        switches_updated: usize,
        /// Hops the failure announcement propagates.
        propagation_hops: usize,
    },
}

/// Parameters of the latency model, with the paper's cited constants as
/// defaults.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryLatencyModel {
    /// Failure-detector probing interval (same for every scheme, §5.3).
    pub probe_interval: Duration,
    /// One-way switch↔controller or controller↔circuit-switch message time
    /// on the always-on control channels ("sub-ms": 100 µs default).
    pub control_message: Duration,
    /// Controller processing time per failure (kernel-module class: 50 µs).
    pub controller_processing: Duration,
    /// SDN forwarding-rule modification time (~1 ms, He et al.).
    pub rule_install: Duration,
    /// Per-hop propagation of failure announcements (100 µs).
    pub propagation_per_hop: Duration,
}

impl Default for RecoveryLatencyModel {
    fn default() -> Self {
        RecoveryLatencyModel {
            probe_interval: Duration::from_millis(1),
            control_message: Duration::from_micros(100),
            controller_processing: Duration::from_micros(50),
            rule_install: Duration::from_millis(1),
            propagation_per_hop: Duration::from_micros(100),
        }
    }
}

impl RecoveryLatencyModel {
    /// Expected detection delay: one probing interval, the **mean** of the
    /// event-driven keep-alive detector at `miss_threshold` 1 (keep-alive
    /// and scan phases independent). Its worst case is two intervals
    /// ([`crate::DetectionConfig::worst_case`]).
    pub fn detection(&self) -> Duration {
        self.probe_interval
    }

    /// Post-detection repair delay of a scheme.
    pub fn repair(&self, scheme: RecoveryScheme) -> Duration {
        match scheme {
            RecoveryScheme::ShareBackup(tech) => {
                // switch→controller + processing + controller→circuit switch
                // + circuit reset. Circuit switches of a group reconfigure in
                // parallel, so one reset delay is charged.
                self.control_message
                    + self.controller_processing
                    + self.control_message
                    + tech.reconfiguration_delay()
            }
            RecoveryScheme::LocalReroute => self.rule_install,
            RecoveryScheme::GlobalReroute {
                switches_updated,
                propagation_hops,
            } => {
                self.propagation_per_hop * propagation_hops as u64
                    + self.rule_install * switches_updated.max(1) as u64
            }
        }
    }

    /// Total recovery latency: detection + repair.
    pub fn total(&self, scheme: RecoveryScheme) -> Duration {
        self.detection() + self.repair(scheme)
    }

    /// One wasted circuit-reconfiguration round: command message out,
    /// circuit reset, failure report back. Charged when a backup turns out
    /// dead on arrival (the reconfiguration itself completed before the
    /// keep-alive silence exposed the backup) or when a reconfiguration
    /// request times out.
    pub fn reconfig_round(&self, tech: CircuitTech) -> Duration {
        self.control_message + tech.reconfiguration_delay() + self.control_message
    }

    /// Deterministic backoff before reconfiguration retry `attempt`
    /// (1-based): doubling from one control-message time, capped at 2^10
    /// so the shift cannot overflow. Keeping this closed-form (rather than
    /// jittered) preserves the bit-for-bit reproducibility contract.
    pub fn retry_backoff(&self, attempt: u32) -> Duration {
        self.control_message * (1u64 << attempt.min(10))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharebackup_is_as_fast_as_local_rerouting() {
        // §5.3's claim: "failure recovery in ShareBackup is as fast as that
        // in F10 and Aspen Tree" — same probing interval, and the repair
        // step is sub-ms either way.
        let m = RecoveryLatencyModel::default();
        for tech in [CircuitTech::Crosspoint, CircuitTech::Mems2D] {
            let sb = m.total(RecoveryScheme::ShareBackup(tech));
            let local = m.total(RecoveryScheme::LocalReroute);
            // Within a small factor (both dominated by the probe interval).
            let ratio = sb.as_secs_f64() / local.as_secs_f64();
            assert!((0.5..=1.5).contains(&ratio), "ratio {ratio}");
        }
    }

    #[test]
    fn sharebackup_repair_is_sub_ms() {
        let m = RecoveryLatencyModel::default();
        for tech in [CircuitTech::Crosspoint, CircuitTech::Mems2D] {
            assert!(m.repair(RecoveryScheme::ShareBackup(tech)) < Duration::from_millis(1));
        }
    }

    #[test]
    fn circuit_reset_dominance_ordering() {
        let m = RecoveryLatencyModel::default();
        let xp = m.repair(RecoveryScheme::ShareBackup(CircuitTech::Crosspoint));
        let mems = m.repair(RecoveryScheme::ShareBackup(CircuitTech::Mems2D));
        assert!(mems > xp);
        assert_eq!(
            mems - xp,
            Duration::from_micros(40) - Duration::from_nanos(70)
        );
    }

    #[test]
    fn global_rerouting_is_slower() {
        let m = RecoveryLatencyModel::default();
        let global = m.total(RecoveryScheme::GlobalReroute {
            switches_updated: 4,
            propagation_hops: 3,
        });
        let local = m.total(RecoveryScheme::LocalReroute);
        assert!(global > local);
    }
}

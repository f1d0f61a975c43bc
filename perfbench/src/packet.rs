//! `packet`: a permutation on a k = 8 fat-tree at packet level.
//!
//! Host `i` of 128 sends 2 MB to host `i + h/2 + 1` over Reno on its ECMP
//! path (`rto` = 2 ms). At 5 ms the aggregation switch on one victim
//! flow's path fails; it returns after the §5.3 Crosspoint recovery
//! latency (1.25 ms), as a ShareBackup backup taking its place would. The
//! seed picks the victim flow of each trial; the permutation is symmetric,
//! so the work is the same for every victim.

use std::time::Instant;

use sharebackup_core::{RecoveryLatencyModel, RecoveryScheme};
use sharebackup_packet::{PacketNetConfig, PacketSim, PktEvent, PktFlowOutcome, PktFlowSpec};
use sharebackup_routing::{ecmp_path, FlowKey};
use sharebackup_sim::{Duration, SimRng, Time};
use sharebackup_topo::{CircuitTech, FatTree, FatTreeConfig, Network};

use crate::check::{Digest, Failures};
use crate::layers::{timed, Layers};
use crate::{Trial, Workload};

/// Payload per flow.
const FLOW_BYTES: u64 = 2_000_000;
/// When the victim's aggregation switch fails.
const FAIL_AT: Time = Time(5_000_000);

/// The workload over one seed, at any scale (tests use small ones).
#[derive(Clone, Copy, Debug)]
pub struct Packet {
    /// Fat-tree parameter.
    pub k: usize,
    /// Payload per flow, bytes.
    pub flow_bytes: u64,
    /// Base seed; trial `i` draws its victim from the `"packet-{i}"` stream.
    pub seed: u64,
}

/// One trial's inputs.
pub struct PacketCase {
    /// The network the packets cross.
    pub net: Network,
    /// One flow per host.
    pub flows: Vec<PktFlowSpec>,
    /// The victim switch's failure and repair.
    pub events: Vec<(Time, PktEvent)>,
}

impl Packet {
    /// The benchmark's configuration for `seed`.
    pub fn paper(seed: u64) -> Packet {
        Packet {
            k: 8,
            flow_bytes: FLOW_BYTES,
            seed,
        }
    }

    /// The simulator configuration.
    pub fn sim() -> PacketSim {
        PacketSim::new(PacketNetConfig {
            rto: Duration::from_millis(2),
            ..PacketNetConfig::default()
        })
    }

    /// When the simulation stops at the latest.
    pub fn horizon() -> Time {
        Time::from_secs(5)
    }

    /// Build trial `index`'s inputs.
    pub fn build(&self, index: usize, layers: &mut Layers) -> PacketCase {
        let ft = timed(layers, "topo.build_s", || {
            FatTree::build(FatTreeConfig::new(self.k))
        });
        let hosts = ft.hosts();
        let h = hosts.len();
        let flows: Vec<PktFlowSpec> = (0..h)
            .map(|i| PktFlowSpec {
                path: ecmp_path(
                    &ft,
                    &FlowKey::new(hosts[i], hosts[(i + h / 2 + 1) % h], i as u64),
                ),
                bytes: self.flow_bytes,
                start: Time::ZERO,
            })
            .collect();
        let victim = SimRng::seed_from_u64(self.seed)
            .child(&format!("packet-{index}"))
            .range(0..h);
        let agg = flows[victim].path[2];
        let outage = RecoveryLatencyModel::default()
            .total(RecoveryScheme::ShareBackup(CircuitTech::Crosspoint));
        let events = vec![
            (FAIL_AT, PktEvent::FailNode(agg)),
            (FAIL_AT + outage, PktEvent::RepairNode(agg)),
        ];
        PacketCase {
            net: ft.net,
            flows,
            events,
        }
    }
}

/// Segments a flow needed to deliver its payload.
fn segments(o: &PktFlowOutcome, mss: u32) -> u64 {
    o.delivered.div_ceil(u64::from(mss))
}

impl Workload for Packet {
    fn trial(&mut self, index: usize, traced: bool) -> Trial {
        let mut layers = Layers::default();
        let t0 = Instant::now();
        let case = self.build(index, &mut layers);
        let setup_s = t0.elapsed().as_secs_f64();
        let sim = Packet::sim();
        let t0 = Instant::now();
        let (out, drops) = sim.run(&case.net, &case.flows, case.events, Packet::horizon());
        let sim_s = t0.elapsed().as_secs_f64();

        let mut failures = Failures::default();
        let short = case
            .flows
            .iter()
            .zip(&out)
            .filter(|(s, o)| o.completed.is_none() || o.delivered != s.bytes)
            .count();
        failures.check(short == 0, || {
            format!("packet: {short} flows did not deliver their payload")
        });
        let mut digest = Digest::default();
        digest.debug(&out);
        digest.debug(&drops);
        if traced {
            layers.add("packet.run_s", sim_s);
            let segs: u64 = out.iter().map(|o| segments(o, sim.cfg.mss)).sum();
            layers.add("packet.segments", segs as f64);
            layers.add("packet.drops", drops as f64);
            layers.add(
                "packet.retransmits",
                out.iter().map(|o| o.retransmits).sum::<u64>() as f64,
            );
            layers.add(
                "packet.timeouts",
                out.iter().map(|o| o.timeouts).sum::<u64>() as f64,
            );
        }
        Trial {
            setup_s,
            sim_s,
            flows: case.flows.len() as u64,
            payload_bytes: case.flows.iter().map(|f| f.bytes).sum(),
            digest,
            failures,
            layers,
        }
    }
}

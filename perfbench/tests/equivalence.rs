//! The benchmark's workloads, at reduced scale, compute exactly what the
//! repository's own harnesses and bare simulator calls compute: timing and
//! tracing change no output bit.

use perfbench::chaos::Chaos;
use perfbench::fig1c::Fig1c;
use perfbench::layers::{simulate, Layers};
use perfbench::packet::Packet;
use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::Workload;
use sharebackup_bench::fig1::{run_fig1c_trial, Fig1Setup};
use sharebackup_core::{RecoveryLatencyModel, RecoveryScheme};
use sharebackup_flowsim::FlowSim;
use sharebackup_packet::{PacketNetConfig, PacketSim, PktEvent, PktFlowSpec};
use sharebackup_routing::{ecmp_path, FlowKey};
use sharebackup_sim::{Duration, Time};
use sharebackup_topo::{CircuitTech, FatTree, FatTreeConfig};

/// A Fig. 1(c) setup small enough for a debug build.
fn small_fig1() -> Fig1Setup {
    let mut setup = Fig1Setup::paper(4, 3).with_load(6.0);
    setup.duration = Time::from_secs(30);
    setup.fail_at = Time::from_secs(2);
    setup.outage = Duration::from_secs(20);
    setup
}

#[test]
fn fig1c_trials_match_the_fig1_harness() {
    let setup = small_fig1();
    let ft = FatTree::build(setup.ft_config());
    let mut w = Fig1c::new(setup, 11);
    for trial in 0..4 {
        let failure = w.failure(trial);
        let want = run_fig1c_trial(&setup, &ft, trial, failure);
        let (plain, got) = w.run(trial, false);
        assert!(plain.failures.0.is_empty(), "{:?}", plain.failures);
        assert_eq!(
            format!("{:?}", got.ft),
            format!("{:?}", want.ft),
            "trial {trial}"
        );
        assert_eq!(
            format!("{:?}", got.f10),
            format!("{:?}", want.f10),
            "trial {trial}"
        );
        assert_eq!(
            format!("{:?}", got.sb),
            format!("{:?}", want.sb),
            "trial {trial}"
        );
        let (traced, got) = w.run(trial, true);
        assert_eq!(
            traced.digest.hex(),
            plain.digest.hex(),
            "tracing changed trial {trial}"
        );
        assert_eq!(
            format!("{:?}", got.sb),
            format!("{:?}", want.sb),
            "trial {trial}"
        );
    }
}

#[test]
fn wrapped_chaos_run_matches_the_bare_run() {
    let w = Chaos {
        k: 4,
        horizon_secs: 120,
        wave_secs: 30,
        seed: 5,
    };
    for trial in 0..2 {
        let mut layers = Layers::default();
        let (mut bare, epochs, flows) = w.build(trial, &mut layers);
        let want = FlowSim::new().run(&mut bare, &flows, &epochs);
        let (mut wrapped, _, _) = w.build(trial, &mut layers);
        let (got, wall) = simulate(&mut wrapped, &flows, &epochs, Some(&mut layers));
        assert_eq!(got.flows, want.flows);
        assert_eq!(got.events, want.events);
        assert_eq!(wrapped.controller.stats, bare.controller.stats);
        assert!(layers.get("routing.route_calls") > 0.0);
        assert!(layers.get("flowsim.self_s") >= 0.0 && layers.get("flowsim.self_s") <= wall);
    }
}

#[test]
fn packet_trial_matches_a_direct_packet_run() {
    let mut w = Packet {
        k: 4,
        flow_bytes: 200_000,
        seed: 9,
    };
    let plain = w.trial(0, false);
    let traced = w.trial(0, true);
    assert!(plain.failures.0.is_empty(), "{:?}", plain.failures);
    assert_eq!(plain.digest.hex(), traced.digest.hex());
    assert!(traced.layers.get("packet.segments") > 0.0);

    // The same scenario, written out against the simulator directly.
    let case = w.build(0, &mut Layers::default());
    let ft = FatTree::build(FatTreeConfig::new(4));
    let hosts = ft.hosts();
    let h = hosts.len();
    let flows: Vec<PktFlowSpec> = (0..h)
        .map(|i| PktFlowSpec {
            path: ecmp_path(
                &ft,
                &FlowKey::new(hosts[i], hosts[(i + h / 2 + 1) % h], i as u64),
            ),
            bytes: 200_000,
            start: Time::ZERO,
        })
        .collect();
    assert_eq!(format!("{:?}", flows), format!("{:?}", case.flows));
    let PktEvent::FailNode(agg) = case.events[0].1 else {
        panic!("the first event fails a switch");
    };
    assert!(
        flows.iter().any(|f| f.path[2] == agg),
        "the victim is an aggregation switch on a path"
    );
    let outage =
        RecoveryLatencyModel::default().total(RecoveryScheme::ShareBackup(CircuitTech::Crosspoint));
    let events = vec![
        (Time::from_millis(5), PktEvent::FailNode(agg)),
        (Time::from_millis(5) + outage, PktEvent::RepairNode(agg)),
    ];
    let cfg = PacketNetConfig {
        rto: Duration::from_millis(2),
        ..PacketNetConfig::default()
    };
    let (out, drops) = PacketSim::new(cfg).run(&ft.net, &flows, events, Time::from_secs(5));
    let mut digest = perfbench::check::Digest::default();
    digest.debug(&out);
    digest.debug(&drops);
    assert_eq!(digest.hex(), plain.digest.hex());
}

#[test]
fn benchmark_json_names_every_metric() {
    let json = include_str!("../../BENCHMARK.json");
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}

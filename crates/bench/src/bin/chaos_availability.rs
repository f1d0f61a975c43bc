//! Chaos availability: what happens to ShareBackup's "no rerouting" pitch
//! when the *recovery machinery itself* misbehaves.
//!
//! Usage: `chaos_availability [--k 4] [--n 1] [--seed 42] [--trials 3]
//! [--mode sweep|digest|demo] [--jobs N] [--json] [--trace-out <path>]`
//!
//! Sweeps chaos profiles — correlated failure bursts inside a pod's fault
//! domain, link flapping, dead-on-arrival backups, circuit-reconfiguration
//! failures, diagnosis errors, spurious keep-alive reports — crossed with
//! the two degraded-mode policies (`stall`: the paper's behavior, flows on
//! a dead slot wait for repair; `reroute`: graceful degradation to global
//! rerouting with per-flow accounting). Reports flow availability, fallback
//! counts, retry/abort counters, and degraded flow-time.
//!
//! `--mode digest` prints a deterministic one-line-per-cell digest (CI
//! byte-diffs it across `--jobs` values); `--mode demo` runs the
//! pool-exhausting burst + 5% DOA scenario that shows `reroute` restoring
//! connectivity where `stall` reproduces the old unrecovered behavior.
//! With `--trace-out`, every retry, fallback, and flow-degraded decision
//! lands in the chrome-trace as a "chaos" instant.

use sharebackup_bench::campaign::{
    print_sweep, run_world, sweep, traffic, Column, Tally, WAVE_EVERY_SECS,
};
use sharebackup_bench::{indexed_traces, parallel_map_indexed, traced, write_trace_files, Args};
use sharebackup_core::scenario::{
    map_chaos_schedule, sharebackup_timeline, SbEvent, ShareBackupWorld,
};
use sharebackup_core::{ChaosConfig, Controller, ControllerConfig};
use sharebackup_routing::DegradedMode;
use sharebackup_sim::{Duration, SimRng, Time};
use sharebackup_topo::{FatTree, FatTreeConfig, GroupId, ShareBackup, ShareBackupConfig};
use sharebackup_workload::{ChaosProfile, FailureInjector};

/// Virtual time covered by each sweep trial.
const HORIZON_SECS: u64 = 600;

/// One chaos scenario: a workload-side failure schedule plus
/// recovery-machinery failure rates.
struct ChaosCase {
    name: &'static str,
    profile: ChaosProfile,
    machinery: ChaosConfig,
    /// Keep-alive losses: reports about healthy switches, uniform over the
    /// horizon.
    spurious_reports: usize,
}

fn cases() -> Vec<ChaosCase> {
    let quiet = ChaosProfile::quiet();
    let off = ChaosConfig::off();
    vec![
        // Control arm: must match a chaos-free run exactly.
        ChaosCase {
            name: "quiet",
            profile: quiet,
            machinery: off,
            spurious_reports: 0,
        },
        // Correlated bursts inside one fault domain (pod power feed).
        ChaosCase {
            name: "bursts",
            profile: ChaosProfile {
                burst_interarrival: Some(Duration::from_secs(150)),
                mean_burst_size: 3.0,
                ..quiet
            },
            machinery: off,
            spurious_reports: 0,
        },
        // Two links flapping: repeated reports on the same circuit switch
        // (can trip the §5.1 escalation threshold and halt recovery).
        ChaosCase {
            name: "flapping",
            profile: ChaosProfile {
                flapping_links: 2,
                ..quiet
            },
            machinery: off,
            spurious_reports: 0,
        },
        // Node failures with an unreliable repair path: DOA backups and
        // failing circuit reconfigurations.
        ChaosCase {
            name: "doa",
            profile: ChaosProfile {
                poisson_interarrival: Some(Duration::from_secs(90)),
                poisson_node_fraction: 1.0,
                ..quiet
            },
            machinery: ChaosConfig {
                doa_rate: 0.3,
                reconfig_failure_rate: 0.15,
                ..off
            },
            spurious_reports: 0,
        },
        // Link failures with lying diagnosis: healthy switches benched,
        // faulty ones returned to poison the pool.
        ChaosCase {
            name: "misdiagnosis",
            profile: ChaosProfile {
                poisson_interarrival: Some(Duration::from_secs(90)),
                poisson_node_fraction: 0.0,
                ..quiet
            },
            machinery: ChaosConfig {
                false_conviction_rate: 0.25,
                false_exoneration_rate: 0.25,
                ..off
            },
            spurious_reports: 0,
        },
        // Everything at once, at lower rates.
        ChaosCase {
            name: "full-chaos",
            profile: ChaosProfile {
                poisson_interarrival: Some(Duration::from_secs(120)),
                poisson_node_fraction: 0.7,
                burst_interarrival: Some(Duration::from_secs(200)),
                flapping_links: 1,
                ..quiet
            },
            machinery: ChaosConfig {
                doa_rate: 0.1,
                reconfig_failure_rate: 0.1,
                false_conviction_rate: 0.1,
                false_exoneration_rate: 0.1,
                ..off
            },
            spurious_reports: 2,
        },
    ]
}

fn mode_name(mode: DegradedMode) -> &'static str {
    match mode {
        DegradedMode::Stall => "stall",
        DegradedMode::Reroute => "reroute",
    }
}

/// Generate the chaos failure schedule for one trial, phrased as the
/// physical events the controller will see (see
/// [`sharebackup_core::scenario::map_chaos_schedule`] for the stale-report
/// caveat).
fn schedule(
    sb: &ShareBackup,
    probe: &FatTree,
    injector: &FailureInjector,
    rng: &SimRng,
    case: &ChaosCase,
) -> Vec<(Time, SbEvent)> {
    let horizon = Time::from_secs(HORIZON_SECS);
    let events = injector.chaos_process(rng, &probe.net, horizon, &case.profile);
    let mut out = map_chaos_schedule(sb, &probe.net, &events);
    if case.spurious_reports > 0 {
        let mut r = rng.child("chaos-spurious");
        for _ in 0..case.spurious_reports {
            let at = Time::from_secs_f64(r.f64() * HORIZON_SECS as f64);
            let node = injector.sample_nodes(&mut r, 1)[0];
            if let Some(slot) = sb.node_slot(node) {
                out.push((at, SbEvent::SpuriousReport(sb.occupant(slot))));
            }
        }
    }
    out.sort_by_key(|&(t, _)| t);
    out
}

/// One sweep trial: fresh world, chaos schedule from the trial's own child
/// stream, waves of traffic, full accounting.
fn run_trial(
    k: usize,
    n: usize,
    seed: u64,
    case: &ChaosCase,
    mode: DegradedMode,
    trial: usize,
    tracing: bool,
) -> Tally {
    let rng = SimRng::seed_from_u64(seed)
        .child(&format!("chaos-{}-{}-{}", case.name, mode_name(mode), trial));
    let sb = ShareBackup::build(ShareBackupConfig::new(k, n));
    let cfg = ControllerConfig {
        // The chaos harness exercises the full heal path: pools refilled by
        // repair immediately retry slots stranded by exhaustion or aborts.
        retry_exhausted_on_repair: true,
        ..ControllerConfig::default()
    };
    let (out, trace) = traced(tracing, |tracer| {
        let mut controller =
            Controller::with_chaos(sb, cfg, case.machinery, rng.child("machinery"));
        controller.tracer = tracer.clone();
        let world = ShareBackupWorld::new(controller, vec![]).with_degraded_mode(mode);

        let probe = FatTree::build(FatTreeConfig::new(k));
        let injector = FailureInjector::new(&probe.net);
        let failures = schedule(
            &world.controller.sb,
            &probe,
            &injector,
            &rng.child("schedule"),
            case,
        );
        let flows = traffic(probe.hosts(), HORIZON_SECS, WAVE_EVERY_SECS);
        let timeline = sharebackup_timeline(&world, &failures);
        let horizon = Time::from_secs(HORIZON_SECS);
        let (out, _world) = run_world(world, timeline, &flows, horizon, tracer);
        Tally {
            injected: failures.len() as u64,
            ..out
        }
    });
    Tally { trace, ..out }
}

const MODES: [DegradedMode; 2] = [DegradedMode::Stall, DegradedMode::Reroute];

/// Aggregated sweep cell: one chaos case under one degraded mode.
struct Cell {
    case: &'static str,
    mode: &'static str,
    agg: Tally,
}

fn run_sweep(args: &Args) -> Vec<Cell> {
    let case_list = cases();
    let tracing = args.trace_out.is_some();
    let (k, n, seed) = (args.k, args.n, args.seed);
    let cells = case_list.len() * MODES.len();
    let aggs = sweep(args, cells, args.trace_out.as_deref(), |cell, trial| {
        let (case, mode) = (&case_list[cell / MODES.len()], MODES[cell % MODES.len()]);
        run_trial(k, n, seed, case, mode, trial, tracing)
    });
    aggs.into_iter()
        .enumerate()
        .map(|(cell, agg)| Cell {
            case: case_list[cell / MODES.len()].name,
            mode: mode_name(MODES[cell % MODES.len()]),
            agg,
        })
        .collect()
}

fn columns() -> Vec<Column<Cell>> {
    type C = Column<Cell>;
    vec![
        C::new("case", |c| c.case.into()).json("case").label("case", 14),
        C::new("mode", |c| c.mode.into()).json("mode").label("mode", 8),
        C::new("flows", |c| c.agg.flows.into()).json("flows"),
        C::new("completed", |c| c.agg.completed.into()).json("completed"),
        C::new("late", |c| c.agg.late.into()).json("late").table("late", 6, 0, ""),
        C::new("stalled", |c| c.agg.stalled.into()).json("stalled").table("stall", 6, 0, ""),
        C::new("degraded", |c| c.agg.degraded_flows.into())
            .json("degraded_flows")
            .table("degr", 6, 0, ""),
        C::new("dtime", |c| c.agg.degraded_secs.into())
            .json("degraded_flow_seconds")
            .table("d-time(s)", 10, 2, ""),
        C::new("avail", |c| c.agg.availability().into())
            .json("availability")
            .table("avail%", 7, 2, "%"),
        C::new("injected", |c| c.agg.injected.into()).json("failures_injected"),
        C::new("node", |c| c.agg.stats.node_failures.into()),
        C::new("link", |c| c.agg.stats.link_failures.into()),
        C::new("hostlink", |c| c.agg.stats.host_link_failures.into()),
        C::new("repl", |c| c.agg.stats.replacements.into())
            .json("replacements")
            .table("repl", 5, 0, ""),
        C::new("fb", |c| c.agg.stats.fallbacks.into()).json("fallbacks").table("fb", 5, 0, ""),
        C::new("doa", |c| c.agg.stats.doa_backups.into())
            .json("doa_backups")
            .table("doa", 4, 0, ""),
        C::new("retries", |c| c.agg.stats.reconfig_retries.into())
            .json("reconfig_retries")
            .table("retry", 5, 0, ""),
        C::new("aborts", |c| c.agg.stats.reconfig_aborts.into())
            .json("reconfig_aborts")
            .table("abort", 5, 0, ""),
        C::new("pool", |c| c.agg.stats.pool_exhausted.into())
            .json("pool_exhausted")
            .table("pool", 5, 0, ""),
        C::new("halted", |c| c.agg.stats.halted_fallbacks.into()).json("halted_fallbacks"),
        C::new("spur", |c| c.agg.stats.spurious_reports.into())
            .json("spurious_reports")
            .table("spur", 5, 0, ""),
        C::new("fconv", |c| c.agg.stats.false_convictions.into()).json("false_convictions"),
        C::new("fexon", |c| c.agg.stats.false_exonerations.into()).json("false_exonerations"),
        C::new("esc", |c| c.agg.stats.escalations.into()).json("escalations").table("esc", 4, 0, ""),
    ]
}

/// The sweep table's columns, by digest key.
const TABLE: [&str; 15] = [
    "case", "mode", "avail", "late", "stalled", "degraded", "dtime", "repl", "fb", "doa",
    "retries", "aborts", "pool", "spur", "esc",
];

const FOOTER: &str = "stall = the paper's behavior (flows on a dead slot wait for repair);
reroute = graceful degradation to global rerouting, every affected flow
counted. The quiet rows are the control: both modes identical, no chaos
counters, availability 100%.";

/// The acceptance demo: a pool-exhausting burst (both agg slots of pod 0,
/// n=1 — the second failure finds the pool empty) plus 5% DOA backups.
/// Under `stall` the affected flows reproduce the old unrecovered behavior
/// (stalled until the repair crew shows up); under `reroute` they all
/// complete on time over fallback paths, explicitly accounted.
fn demo(args: &Args) {
    let (k, n, seed) = (args.k, args.n, args.seed);
    let tracing = args.trace_out.is_some();
    let results = parallel_map_indexed(args.jobs, MODES.len(), |i| {
        let mode = MODES[i];
        let rng = SimRng::seed_from_u64(seed).child(&format!("demo-{}", mode_name(mode)));
        let sb = ShareBackup::build(ShareBackupConfig::new(k, n));
        let cfg = ControllerConfig {
            retry_exhausted_on_repair: true,
            // Repairs land only after the measurement window: a stalled
            // flow stays stalled for the whole demo.
            switch_repair_time: Duration::from_secs(2 * HORIZON_SECS),
            ..ControllerConfig::default()
        };
        let machinery = ChaosConfig {
            doa_rate: 0.05,
            ..ChaosConfig::off()
        };
        let ((out, degraded_slots), trace) = traced(tracing, |tracer| {
            let mut controller =
                Controller::with_chaos(sb, cfg, machinery, rng.child("machinery"));
            controller.tracer = tracer.clone();
            let world = ShareBackupWorld::new(controller, vec![]).with_degraded_mode(mode);

            // The burst: both agg slots of pod 0 die 200 ms apart.
            let g = GroupId::agg(0);
            let v0 = world.controller.sb.occupant(g.slot(0));
            let v1 = world.controller.sb.occupant(g.slot(1));
            let failures = vec![
                (Time::from_secs(5), SbEvent::NodeFail(v0)),
                (Time::from_secs_f64(5.2), SbEvent::NodeFail(v1)),
            ];
            let probe = FatTree::build(FatTreeConfig::new(k));
            let flows = traffic(probe.hosts(), 60, 10);
            let timeline = sharebackup_timeline(&world, &failures);
            let horizon = Time::from_secs(HORIZON_SECS);
            let (out, world) = run_world(world, timeline, &flows, horizon, tracer);
            (out, world.controller.degraded_slots().count() as u64)
        });
        (Tally { trace, ..out }, degraded_slots)
    });
    if let Some(path) = &args.trace_out {
        write_trace_files(path, &indexed_traces(results.iter().map(|(r, _)| r.trace.as_ref())));
    }

    if args.json {
        let items: Vec<minijson::Value> = MODES
            .iter()
            .zip(&results)
            .map(|(&mode, (a, slots))| {
                minijson::json!({
                    "mode": mode_name(mode),
                    "flows": a.flows,
                    "completed": a.completed,
                    "late": a.late,
                    "stalled": a.stalled,
                    "degraded_flows": a.degraded_flows,
                    "degraded_flow_seconds": a.degraded_secs,
                    "availability": a.availability(),
                    "pool_exhausted": a.stats.pool_exhausted,
                    "doa_backups": a.stats.doa_backups,
                    "degraded_slots_open": *slots,
                })
            })
            .collect();
        println!(
            "{}",
            minijson::to_string_pretty(&minijson::Value::Array(items)).expect("json")
        );
        return;
    }

    println!(
        "Demo: pool-exhausting burst (both agg slots of pod 0, n={}) + 5% DOA backups, k={}",
        args.n, args.k
    );
    println!(
        "{:<8} {:>6} {:>9} {:>6} {:>6} {:>6} {:>10} {:>5} {:>4}",
        "mode", "flows", "completed", "late", "stall", "degr", "d-time(s)", "pool", "doa"
    );
    for (&mode, (a, _)) in MODES.iter().zip(&results) {
        println!(
            "{:<8} {:>6} {:>9} {:>6} {:>6} {:>6} {:>10.2} {:>5} {:>4}",
            mode_name(mode),
            a.flows,
            a.completed,
            a.late,
            a.stalled,
            a.degraded_flows,
            a.degraded_secs,
            a.stats.pool_exhausted,
            a.stats.doa_backups,
        );
    }
    let (stall, _) = &results[0];
    let (reroute, _) = &results[1];
    println!();
    println!(
        "stall leaves {} flows waiting on the dead slot (the old unrecovered behavior);",
        stall.late
    );
    println!(
        "reroute completes all {} flows, {} of them on explicit fallback paths for {:.1} s total.",
        reroute.completed, reroute.degraded_flows, reroute.degraded_secs
    );
}

fn main() {
    let mut defaults = Args::paper_defaults();
    defaults.k = 4;
    defaults.trials = 3;
    defaults.mode = "sweep".to_string();
    let args = Args::parse(defaults);
    if args.mode == "demo" {
        demo(&args);
        return;
    }
    let cells = run_sweep(&args);
    let title = "Chaos availability";
    print_sweep(&args, title, HORIZON_SECS, &columns(), &TABLE, &cells, FOOTER);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_case_is_the_control_arm() {
        let quiet = &cases()[0];
        assert_eq!(quiet.name, "quiet");
        let run = |mode| run_trial(4, 1, 42, quiet, mode, 0, false);
        let stall = run(DegradedMode::Stall);
        assert_eq!(stall, run(DegradedMode::Reroute), "both modes identical");
        let s = stall.stats;
        let chaos_counters = [
            s.doa_backups,
            s.reconfig_retries,
            s.reconfig_aborts,
            s.pool_exhausted,
            s.halted_fallbacks,
            s.spurious_reports,
            s.false_convictions,
            s.false_exonerations,
            s.escalations,
            s.degraded_flows,
        ];
        assert_eq!(chaos_counters, [0; 10], "{s:?}");
        assert_eq!(stall.injected, 0);
        assert!(stall.flows > 0);
        assert_eq!(stall.availability(), 1.0);
    }
}

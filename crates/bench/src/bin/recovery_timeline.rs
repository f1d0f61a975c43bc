//! §4.1 recovery, event by event: the full keep-alive → detection →
//! controller → circuit-reset → ack sequence on the discrete-event engine,
//! for each circuit technology and each failure-group kind.
//!
//! Usage: `recovery_timeline [--k 6] [--json] [--trace-out <path>]`
//!
//! With `--trace-out`, each (technology, failure) case records its engine
//! events and recovery span tree onto its own chrome-trace track.

use sharebackup_bench::{indexed_traces, traced, write_trace_files, Args};
use sharebackup_core::{simulate_recovery, Controller, ControllerConfig};
use sharebackup_sim::{Duration, Time};
use sharebackup_topo::{CircuitTech, GroupId, ShareBackup, ShareBackupConfig};

fn main() {
    let mut defaults = Args::paper_defaults();
    defaults.k = 6;
    let args = Args::parse(defaults);
    let k = args.k;

    let cases = [
        ("edge switch", GroupId::edge(0).slot(0)),
        ("aggregation switch", GroupId::agg(0).slot(0)),
        ("core switch", GroupId::core(0).slot(0)),
    ];

    let mut rows = Vec::new();
    let mut buffers = Vec::new();
    for tech in [CircuitTech::Crosspoint, CircuitTech::Mems2D] {
        for &(name, slot) in &cases {
            let sb = ShareBackup::build(ShareBackupConfig::new(k, 1).with_tech(tech));
            let mut ctl = Controller::new(sb, ControllerConfig::default());
            let (tl, buf) = traced(args.trace_out.is_some(), |tracer| {
                simulate_recovery(
                    &mut ctl,
                    slot,
                    Time::from_millis(5),
                    Duration::from_micros(321),
                    Time::ZERO,
                    tracer,
                )
            });
            buffers.push(buf);
            rows.push((tech, name, tl));
        }
    }

    if let Some(path) = &args.trace_out {
        write_trace_files(path, &indexed_traces(buffers.iter().map(Option::as_ref)));
    }

    if args.json {
        let json: Vec<minijson::Value> = rows
            .iter()
            .map(|(tech, name, tl)| {
                minijson::json!({
                    "tech": format!("{tech:?}"),
                    "failure": name,
                    "detection_us": tl.detection_latency().as_secs_f64() * 1e6,
                    "repair_us": tl.repair_latency().as_secs_f64() * 1e6,
                    "total_us": tl.total_latency().as_secs_f64() * 1e6,
                    "events": tl.events.len(),
                })
            })
            .collect();
        println!("{}", minijson::to_string_pretty(&json).expect("json"));
        return;
    }

    println!("§4.1 — event-driven recovery timelines (k={k}, n=1)");
    println!();
    println!(
        "{:<12} {:<20} {:>12} {:>12} {:>12}",
        "technology", "failure", "detection", "repair", "total"
    );
    for (tech, name, tl) in &rows {
        println!(
            "{:<12} {:<20} {:>12} {:>12} {:>12}",
            format!("{tech:?}"),
            name,
            format!("{}", tl.detection_latency()),
            format!("{}", tl.repair_latency()),
            format!("{}", tl.total_latency()),
        );
    }

    // Print one full trace as the exhibit.
    let (_, name, tl) = &rows[1];
    println!();
    println!("full trace — {name}, crosspoint (timestamps relative to the death):");
    // Skip the pre-death keep-alives except the last one.
    let death_pos = tl
        .events
        .iter()
        .position(|(_, e)| matches!(e, sharebackup_core::TimelineEvent::SwitchDied))
        .expect("died");
    for (t, ev) in tl.events.iter().skip(death_pos.saturating_sub(1)) {
        let rel = if *t >= tl.died_at {
            format!("+{}", t.since(tl.died_at))
        } else {
            format!("-{}", tl.died_at.since(*t))
        };
        println!("{rel:>14}  {ev:?}");
    }
    println!();
    println!("repair decomposition: command (100 us) + circuit reset (70 ns / 40 us,");
    println!("parallel across the group's circuit switches) + ack (100 us) + 50 us");
    println!("controller processing — detection dominates, as §5.3 argues.");
}

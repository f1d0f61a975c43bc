//! The run loop and every metric the benchmark reports.
//!
//! End-to-end metrics (untraced runs) are host-time figures a user of the
//! simulators sees. Per-layer metrics (traced runs) are per-trial means of
//! the layer sums, plus ratios; a layer's share is its host time over the
//! simulation time (`FlowSim::run` plus `PacketSim::run` wall time).

use std::collections::BTreeMap;
use std::fmt::Write;
use std::time::Instant;

use crate::layers::Layers;
use crate::{golden, Trial, Workload, DEFAULT_SEED};

/// Trials a run completes even when its time is up sooner.
pub const MIN_TRIALS: usize = 3;
/// Passes over its pool a pooled untraced run completes even when its time
/// is up sooner, so each trial's end-to-end time is a median of three. A
/// traced run, which reports no end-to-end figures, needs one pass.
pub const MIN_PASSES: usize = 3;

/// End-to-end metrics: name, unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("trial_s_p50", "s"),
    ("flows_per_s", "1/s"),
    ("payload_mb_per_s", "MB/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: name, unit.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("topo.build_s", "s"),
    ("workload.trace_gen_s", "s"),
    ("workload.schedule_s", "s"),
    ("routing.route_calls", "count"),
    ("routing.route_s", "s"),
    ("routing.route_us_per_call", "us"),
    ("routing.route_all_flows", "count"),
    ("routing.route_all_s", "s"),
    ("routing.route_all_us_per_flow", "us"),
    ("routing.route_all_share", "ratio"),
    ("routing.unroutable", "count"),
    ("flowsim.self_s", "s"),
    ("flowsim.self_share", "ratio"),
    ("flowsim.events", "count"),
    ("flowsim.us_per_event", "us"),
    ("flowsim.solve.active_flows_mean", "count"),
    ("flowsim.solve.rounds_mean", "count"),
    ("flowsim.solve.flows_touched_total", "count"),
    ("flowsim.cause.arrival", "count"),
    ("flowsim.cause.completion", "count"),
    ("flowsim.cause.epoch", "count"),
    ("core.epoch_s", "s"),
    ("core.epochs", "count"),
    ("core.us_per_epoch", "us"),
    ("core.advance_s", "s"),
    ("core.share", "ratio"),
    ("core.recoveries", "count"),
    ("core.fallbacks", "count"),
    ("core.control_retries", "count"),
    ("core.pending_end", "count"),
    ("packet.segments", "count"),
    ("packet.us_per_segment", "us"),
    ("packet.drops", "count"),
    ("packet.retransmits", "count"),
    ("packet.timeouts", "count"),
    ("packet.share", "ratio"),
    ("telemetry.trace_overhead", "ratio"),
    ("sim_s", "s"),
    ("trials", "count"),
];

/// Everything a run produced.
pub struct Run {
    /// Untraced trials, in order.
    pub plain: Vec<Trial>,
    /// Trial index of each entry of `plain`.
    pub index: Vec<usize>,
    /// The same trials traced (traced runs only).
    pub traced: Vec<Trial>,
    /// Trials with at least one failed check.
    pub failed: usize,
}

/// Run trials of `w` until `seconds` have passed (and at least
/// [`MIN_TRIALS`], or whole passes over a pool), checking each; traced runs
/// repeat every trial traced. Progress and failed checks go to stderr.
pub fn execute(name: &str, seed: u64, w: &mut dyn Workload, seconds: f64, trace: bool) -> Run {
    let mut run = Run {
        plain: Vec::new(),
        index: Vec::new(),
        traced: Vec::new(),
        failed: 0,
    };
    let pool = w.pool();
    let passes = if trace { 1 } else { MIN_PASSES };
    let min = pool.map_or(MIN_TRIALS, |p| p * passes);
    let start = Instant::now();
    while run.plain.len() < min || start.elapsed().as_secs_f64() < seconds {
        let n = run.plain.len();
        let index = pool.map_or(n, |p| n % p);
        let plain = w.trial(index, false);
        let mut failures = plain.failures.clone();
        if seed == DEFAULT_SEED {
            failures.golden("digest", &plain.digest, golden(name, index));
        }
        if let Some(first) = pool.and_then(|p| run.plain.get(n.checked_sub(p)?)) {
            let (a, b) = (first.digest.hex(), plain.digest.hex());
            failures.check(a == b, || format!("repeat digest {b} != first pass {a}"));
        }
        if trace {
            let traced = w.trial(index, true);
            failures.0.extend(traced.failures.0.iter().cloned());
            let (p, t) = (plain.digest.hex(), traced.digest.hex());
            failures.check(p == t, || format!("traced digest {t} != untraced {p}"));
            let callbacks = traced.layers.get("flowsim.self_s")
                + CALLBACK_S.iter().map(|n| traced.layers.get(n)).sum::<f64>();
            let wall = traced.layers.get("flowsim.run_s");
            failures.check(
                traced.layers.get("flowsim.self_s") >= 0.0
                    && (callbacks - wall).abs() <= 1e-9 * wall.max(1.0),
                || format!("layer times {callbacks} s do not add up to FlowSim::run {wall} s"),
            );
            run.traced.push(traced);
        }
        eprintln!(
            "{name} trial {index}: setup {:.6} s, sim {:.6} s, {} flows, digest {}",
            plain.setup_s,
            plain.sim_s,
            plain.flows,
            plain.digest.hex()
        );
        for f in &failures.0 {
            eprintln!("{name} trial {index}: CHECK FAILED: {f}");
        }
        run.failed += usize::from(!failures.0.is_empty());
        run.plain.push(plain);
        run.index.push(index);
    }
    run
}

/// Host-time layers inside `FlowSim::run` besides its own self time.
const CALLBACK_S: [&str; 4] = [
    "routing.route_s",
    "routing.route_all_s",
    "core.epoch_s",
    "core.advance_s",
];

/// Median of `v` (0 when empty).
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The process's peak resident set, MB (`VmHWM`; 0 where unavailable).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// End-to-end metric values, in [`END_TO_END`] order.
///
/// Repeats of one trial index (pooled workloads) are first reduced to
/// their median times, so every index weighs the same whatever the number
/// of passes a run made. Rates are the median over trials of a trial's
/// flows (or bytes) per simulation second: like the medians of times, they
/// shrug off a stretch of the run slowed by other load on the machine.
pub fn end_to_end(run: &Run) -> Vec<f64> {
    let mut by_index: BTreeMap<usize, Vec<&Trial>> = BTreeMap::new();
    for (t, &i) in run.plain.iter().zip(&run.index) {
        by_index.entry(i).or_default().push(t);
    }
    let per = |f: fn(&Trial) -> f64| -> Vec<f64> {
        by_index
            .values()
            .map(|ts| median(ts.iter().map(|t| f(t)).collect()))
            .collect()
    };
    let sim = per(|t| t.sim_s);
    let rate = |work: fn(&Trial) -> f64| {
        let per_trial = by_index.values().zip(&sim).map(|(ts, s)| work(ts[0]) / s);
        median(per_trial.collect())
    };
    vec![
        median(per(|t| t.setup_s)),
        median(sim.clone()),
        rate(|t| t.flows as f64),
        rate(|t| t.payload_bytes as f64 / 1e6),
        peak_rss_mb(),
    ]
}

/// The traced trials' layer sums, and their count (at least 1).
fn traced_sums(run: &Run) -> (Layers, f64) {
    let mut sum = Layers::default();
    for t in &run.traced {
        sum.merge(&t.layers);
    }
    (sum, run.traced.len().max(1) as f64)
}

/// Per-layer metric values, in [`PER_LAYER`] order.
pub fn per_layer(run: &Run) -> Vec<f64> {
    let (sum, n) = traced_sums(run);
    let g = |name: &str| sum.get(name);
    let per = |name: &str| sum.get(name) / n;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let sim = g("flowsim.run_s") + g("packet.run_s");
    let plain_sim: f64 = run.plain.iter().map(|t| t.sim_s).sum();
    let traced_sim: f64 = run.traced.iter().map(|t| t.sim_s).sum();
    PER_LAYER
        .iter()
        .map(|&(name, _)| match name {
            "routing.route_us_per_call" => {
                1e6 * ratio(g("routing.route_s"), g("routing.route_calls"))
            }
            "routing.route_all_us_per_flow" => {
                1e6 * ratio(g("routing.route_all_s"), g("routing.route_all_flows"))
            }
            "routing.route_all_share" => ratio(g("routing.route_all_s"), sim),
            "flowsim.self_share" => ratio(g("flowsim.self_s"), sim),
            "flowsim.us_per_event" => 1e6 * ratio(g("flowsim.self_s"), g("flowsim.events")),
            "flowsim.solve.active_flows_mean" => {
                ratio(g("solve.active_flows_sum"), g("solve.count"))
            }
            "flowsim.solve.rounds_mean" => ratio(g("solve.rounds_sum"), g("solve.count")),
            "core.us_per_epoch" => 1e6 * ratio(g("core.epoch_s"), g("core.epochs")),
            "core.share" => ratio(g("core.epoch_s") + g("core.advance_s"), sim),
            "packet.us_per_segment" => 1e6 * ratio(g("packet.run_s"), g("packet.segments")),
            "packet.share" => ratio(g("packet.run_s"), sim),
            "telemetry.trace_overhead" => ratio(traced_sim, plain_sim) - 1.0,
            "sim_s" => sim / n,
            "trials" => run.traced.len() as f64,
            _ => per(name),
        })
        .collect()
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(run: &Run, names: &[(&str, &str)], values: &[f64]) -> String {
    let mut metrics = String::new();
    for (i, (&(name, unit), v)) in names.iter().zip(values).enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*v)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        run.failed == 0,
        run.plain.len(),
        run.failed
    )
}

/// A finite JSON number (non-finite values print as 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The traced report's layers: name, host-time sum, and count metrics.
const REPORT_LAYERS: [(&str, &str, &[&str]); 6] = [
    (
        "flowsim",
        "flowsim.self_s",
        &[
            "flowsim.events",
            "flowsim.solve.active_flows_mean",
            "flowsim.solve.rounds_mean",
            "flowsim.solve.flows_touched_total",
            "flowsim.cause.arrival",
            "flowsim.cause.completion",
            "flowsim.cause.epoch",
        ],
    ),
    (
        "routing.route",
        "routing.route_s",
        &["routing.route_calls", "routing.unroutable"],
    ),
    (
        "routing.route_all",
        "routing.route_all_s",
        &["routing.route_all_flows"],
    ),
    (
        "core.epoch",
        "core.epoch_s",
        &[
            "core.epochs",
            "core.recoveries",
            "core.fallbacks",
            "core.control_retries",
            "core.pending_end",
        ],
    ),
    ("core.advance", "core.advance_s", &[]),
    (
        "packet",
        "packet.run_s",
        &[
            "packet.segments",
            "packet.drops",
            "packet.retransmits",
            "packet.timeouts",
        ],
    ),
];

/// The traced run's layer report: per layer, its host time per trial,
/// its share of the simulation time, and its counts.
pub fn trace_report(name: &str, seed: u64, run: &Run) -> String {
    let values = per_layer(run);
    let get = |n: &str| {
        PER_LAYER
            .iter()
            .position(|&(m, _)| m == n)
            .map_or(0.0, |i| values[i])
    };
    let (sum, n) = traced_sums(run);
    let sim = get("sim_s");
    let layers: Vec<String> = REPORT_LAYERS
        .iter()
        .map(|&(layer, time, counts)| {
            let time = sum.get(time) / n;
            let share = if sim > 0.0 { time / sim } else { 0.0 };
            let counts: Vec<String> = counts
                .iter()
                .map(|c| format!("\"{c}\": {}", num(get(c))))
                .collect();
            format!(
                "    \"{layer}\": {{\"time_s\": {}, \"share\": {}, \"counts\": {{{}}}}}",
                num(time),
                num(share),
                counts.join(", ")
            )
        })
        .collect();
    let setup: Vec<String> = [
        "topo.build_s",
        "workload.trace_gen_s",
        "workload.schedule_s",
    ]
    .iter()
    .map(|m| format!("\"{m}\": {}", num(get(m))))
    .collect();
    format!(
        "{{\n  \"workload\": \"{name}\",\n  \"seed\": {seed},\n  \"trials\": {},\n  \"sim_s_per_trial\": {},\n  \"setup\": {{{}}},\n  \"trace_overhead\": {},\n  \"layers\": {{\n{}\n  }}\n}}\n",
        run.traced.len(),
        num(sim),
        setup.join(", "),
        num(get("telemetry.trace_overhead")),
        layers.join(",\n")
    )
}

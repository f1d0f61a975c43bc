//! Shared machinery of the flow-level campaign harnesses
//! (`chaos_availability`, `controller_failover`): a ShareBackup world under
//! a failure schedule carries waves of host-to-host flows over a fixed
//! horizon, and every trial reports one [`Tally`].
//!
//! A harness keeps only what differs: its case list, how one trial's world
//! and failure schedule are built, its demo, and its [`Column`] list. Each
//! metric is declared once in that list, with its digest key, JSON key and
//! table format; [`print_sweep`] renders the digest (`--mode digest`), the
//! JSON (`--json`) or the table from it.

use std::ops::AddAssign;

use sharebackup_core::scenario::{SbEvent, ShareBackupWorld};
use sharebackup_core::ControllerStats;
use sharebackup_flowsim::{FlowSim, FlowSpec};
use sharebackup_routing::FlowKey;
use sharebackup_sim::{Duration, Time};
use sharebackup_telemetry::{TraceBuffer, Tracer};
use sharebackup_topo::NodeId;

use crate::{indexed_traces, parallel_map_indexed, write_trace_files, Args};

/// A fresh wave of flows starts this often.
pub const WAVE_EVERY_SECS: u64 = 30;
/// Bytes per flow: 1 Gbit, ~0.1 s on an idle 10 G link.
pub const FLOW_BYTES: u64 = 125_000_000;
/// A flow finishing more than this long after arrival counts against
/// availability (an unimpeded transfer takes well under a second).
pub const LATE_SECS: u64 = 5;

/// Waves of host-to-host flows covering the horizon: every `wave_secs`
/// each host sends one flow to a rotating partner, so every pod keeps
/// traffic in flight through every outage window.
pub fn traffic(hosts: &[NodeId], horizon_secs: u64, wave_secs: u64) -> Vec<FlowSpec> {
    let h = hosts.len();
    let waves = usize::try_from(horizon_secs / wave_secs).expect("wave count fits usize");
    let mut flows = Vec::with_capacity(waves * h);
    for w in 0..waves {
        let at = Time::from_secs(wave_secs * w as u64);
        // Rotate partners across waves; stride h/4+1 walks across pods and
        // never maps a host to itself.
        let offset = 1 + (w * (h / 4 + 1)) % (h - 1);
        for i in 0..h {
            flows.push(FlowSpec {
                key: FlowKey::new(hosts[i], hosts[(i + offset) % h], (w * h + i) as u64),
                bytes: FLOW_BYTES,
                arrival: at,
            });
        }
    }
    flows
}

/// Everything one trial reports, plain data so trials fan out across
/// threads and collect in trial order. Summing tallies (`+=`) folds the
/// trials of one sweep cell.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Tally {
    /// Flows offered.
    pub flows: u64,
    /// Flows that completed.
    pub completed: u64,
    /// Flows finishing more than [`LATE_SECS`] after arrival, or never.
    pub late: u64,
    /// Flows that stalled at least once.
    pub stalled: u64,
    /// Flows that ran on a degraded (rerouted) path at least once.
    pub degraded_flows: u64,
    /// Flow-seconds spent on degraded paths.
    pub degraded_secs: f64,
    /// Data-plane failures injected (set by the harness).
    pub injected: u64,
    /// Controller crashes scheduled (set by the harness).
    pub crashes_scheduled: u64,
    /// Recoveries completed through a failover plane.
    pub recovered: u64,
    /// Failures still journaled (visibly unrecovered) at the horizon.
    pub pending_end: u64,
    /// Sum over completed recoveries of (completed − reported), seconds.
    pub dwell_sum_s: f64,
    /// Worst dwell seen, completed or still pending at the horizon.
    pub dwell_max_s: f64,
    /// Sum over pending entries of (horizon − reported), seconds.
    pub pending_dwell_s: f64,
    /// Sum of per-recovery modeled latency (includes channel penalties).
    pub latency_sum_s: f64,
    /// The controller's counters.
    pub stats: ControllerStats,
    /// The trial's telemetry when it ran traced (never summed).
    pub trace: Option<TraceBuffer>,
}

impl AddAssign<&Tally> for Tally {
    fn add_assign(&mut self, o: &Tally) {
        self.flows += o.flows;
        self.completed += o.completed;
        self.late += o.late;
        self.stalled += o.stalled;
        self.degraded_flows += o.degraded_flows;
        self.degraded_secs += o.degraded_secs;
        self.injected += o.injected;
        self.crashes_scheduled += o.crashes_scheduled;
        self.recovered += o.recovered;
        self.pending_end += o.pending_end;
        self.dwell_sum_s += o.dwell_sum_s;
        self.dwell_max_s = self.dwell_max_s.max(o.dwell_max_s);
        self.pending_dwell_s += o.pending_dwell_s;
        self.latency_sum_s += o.latency_sum_s;
        self.stats += o.stats;
    }
}

impl Tally {
    /// Fraction of flows that finished on time.
    pub fn availability(&self) -> f64 {
        if self.flows == 0 {
            return 1.0;
        }
        1.0 - self.late as f64 / self.flows as f64
    }

    /// Mean report → completion dwell of the completed recoveries, ms.
    pub fn mean_dwell_ms(&self) -> f64 {
        if self.recovered == 0 {
            return 0.0;
        }
        1e3 * self.dwell_sum_s / self.recovered as f64
    }

    /// Mean modeled recovery latency relative to `base` (1.0 = no channel
    /// penalty at all).
    pub fn latency_inflation(&self, base: Duration) -> f64 {
        if self.recovered == 0 {
            return 1.0;
        }
        (self.latency_sum_s / self.recovered as f64) / base.as_secs_f64()
    }
}

/// Run `world` over `flows` along its `(events, epoch times)` timeline
/// (see [`sharebackup_core::scenario::sharebackup_timeline`]) and tally the
/// outcome at `horizon`. Degraded spells close at each flow's completion,
/// so degraded time measures time *spent running* on fallback paths.
pub fn run_world(
    mut world: ShareBackupWorld,
    (events, times): (Vec<SbEvent>, Vec<Time>),
    flows: &[FlowSpec],
    horizon: Time,
    tracer: &Tracer,
) -> (Tally, ShareBackupWorld) {
    world.events = events;
    let sim_out = FlowSim::new().run_traced(&mut world, flows, &times, tracer);
    let end = sim_out
        .flows
        .iter()
        .filter_map(|f| f.completed)
        .max()
        .unwrap_or(horizon)
        .max(horizon);
    let late_after = Duration::from_secs(LATE_SECS);
    let mut out = Tally {
        flows: flows.len() as u64,
        ..Tally::default()
    };
    for (spec, fo) in flows.iter().zip(&sim_out.flows) {
        match fo.completed {
            Some(t) => {
                world.tracker.mark_normal(spec.key.id, t);
                out.completed += 1;
                if t.since(spec.arrival) > late_after {
                    out.late += 1;
                }
            }
            None => out.late += 1,
        }
        if fo.ever_stalled {
            out.stalled += 1;
        }
    }
    world.tracker.finalize(end);
    out.degraded_flows = world.tracker.degraded_count() as u64;
    out.degraded_secs = world.tracker.total_degraded_time().as_secs_f64();

    out.recovered = world.failover_log.len() as u64;
    for done in &world.failover_log {
        let dwell = done.completed_at.since(done.reported_at).as_secs_f64();
        out.dwell_sum_s += dwell;
        out.dwell_max_s = out.dwell_max_s.max(dwell);
        out.latency_sum_s += done.recovery.latency.as_secs_f64();
    }
    if let Some(plane) = &world.failover {
        for pending in plane.pending() {
            let dwell = horizon.saturating_since(pending.reported_at).as_secs_f64();
            out.pending_end += 1;
            out.pending_dwell_s += dwell;
            out.dwell_max_s = out.dwell_max_s.max(dwell);
        }
    }
    out.stats = world.controller.stats;
    (out, world)
}

/// Run `cells × args.trials` trials on `args.jobs` threads —
/// `trial(cell, i)` runs trial `i` of `cell` — and fold each cell's trials
/// in trial order. With `trace_out`, the trials' buffers land in the trace
/// files in the same order, so every output is independent of `--jobs`.
pub fn sweep(
    args: &Args,
    cells: usize,
    trace_out: Option<&str>,
    trial: impl Fn(usize, usize) -> Tally + Sync,
) -> Vec<Tally> {
    let trials = args.trials;
    let results = parallel_map_indexed(args.jobs, cells * trials, |i| trial(i / trials, i % trials));
    if let Some(path) = trace_out {
        write_trace_files(path, &indexed_traces(results.iter().map(|r| r.trace.as_ref())));
    }
    (0..cells)
        .map(|c| {
            let mut agg = Tally::default();
            for r in &results[c * trials..(c + 1) * trials] {
                agg += r;
            }
            agg
        })
        .collect()
}

/// One metric's value in one cell.
pub enum Val {
    /// A label.
    Str(&'static str),
    /// A count.
    Int(u64),
    /// A measurement.
    Real(f64),
}

impl From<u64> for Val {
    fn from(v: u64) -> Val {
        Val::Int(v)
    }
}

impl From<f64> for Val {
    fn from(v: f64) -> Val {
        Val::Real(v)
    }
}

impl From<&'static str> for Val {
    fn from(v: &'static str) -> Val {
        Val::Str(v)
    }
}

impl From<Val> for minijson::Value {
    fn from(v: Val) -> minijson::Value {
        match v {
            Val::Str(s) => s.into(),
            Val::Int(n) => n.into(),
            Val::Real(x) => x.into(),
        }
    }
}

/// How a metric prints in the sweep table.
pub struct Fmt {
    head: &'static str,
    /// Column width, unit included.
    width: usize,
    /// Digits after the point of a real value.
    prec: usize,
    /// Printed right after the value; `%` also scales the value by 100.
    unit: &'static str,
    /// A left-aligned label column (string values are always left-aligned).
    left: bool,
}

/// One metric, declared once for every sweep output.
pub struct Column<C> {
    /// Key in the digest line; the table order names columns by it.
    key: &'static str,
    /// Key in the JSON objects (`None`: not in the JSON).
    json: Option<&'static str>,
    /// Digits after the point of a real value in the digest.
    prec: usize,
    table: Option<Fmt>,
    get: fn(&C) -> Val,
}

impl<C> Column<C> {
    /// A digest-only metric; reals print with 6 digits.
    pub fn new(key: &'static str, get: fn(&C) -> Val) -> Column<C> {
        Column {
            key,
            json: None,
            prec: 6,
            table: None,
            get,
        }
    }

    /// Also emit the metric in the JSON under `key`.
    pub fn json(mut self, key: &'static str) -> Column<C> {
        self.json = Some(key);
        self
    }

    /// Print a real value with `prec` digits in the digest.
    pub fn prec(mut self, prec: usize) -> Column<C> {
        self.prec = prec;
        self
    }

    /// Also show the metric as a right-aligned table column.
    pub fn table(mut self, head: &'static str, width: usize, prec: usize, unit: &'static str) -> Column<C> {
        self.table = Some(Fmt {
            head,
            width,
            prec,
            unit,
            left: false,
        });
        self
    }

    /// Also show the metric as a left-aligned table label.
    pub fn label(mut self, head: &'static str, width: usize) -> Column<C> {
        self.table = Some(Fmt {
            head,
            width,
            prec: 0,
            unit: "",
            left: true,
        });
        self
    }
}

fn digest_value(v: Val, prec: usize) -> String {
    match v {
        Val::Str(s) => s.to_string(),
        Val::Int(n) => n.to_string(),
        Val::Real(x) => format!("{x:.prec$}"),
    }
}

fn table_cell(v: Val, f: &Fmt) -> String {
    let w = f.width - f.unit.len();
    let body = match v {
        Val::Str(s) => format!("{s:<w$}"),
        Val::Int(n) => format!("{n:>w$}"),
        Val::Real(x) if f.unit == "%" => format!("{:>w$.p$}", 100.0 * x, p = f.prec),
        Val::Real(x) => format!("{x:>w$.p$}", p = f.prec),
    };
    body + f.unit
}

/// Print a folded sweep in the output `args` selects: one digest line per
/// cell (`--mode digest`), a JSON array (`--json`), or the table — a title
/// naming `what` and the `horizon_secs`, the `table` columns (by digest
/// key, in order), then `footer`.
///
/// # Panics
/// Panics if `table` names a column without a table format.
pub fn print_sweep<C>(
    args: &Args,
    what: &str,
    horizon_secs: u64,
    cols: &[Column<C>],
    table: &[&str],
    cells: &[C],
    footer: &str,
) {
    if args.mode == "digest" {
        for c in cells {
            let line: Vec<String> = cols
                .iter()
                .map(|col| format!("{}={}", col.key, digest_value((col.get)(c), col.prec)))
                .collect();
            println!("{}", line.join(" "));
        }
        return;
    }
    if args.json {
        let items: Vec<minijson::Value> = cells
            .iter()
            .map(|c| {
                let members = cols.iter().filter_map(|col| {
                    col.json.map(|key| (key.to_string(), (col.get)(c).into()))
                });
                minijson::Value::Object(members.collect())
            })
            .collect();
        println!(
            "{}",
            minijson::to_string_pretty(&minijson::Value::Array(items)).expect("json")
        );
        return;
    }
    let shown: Vec<(&Column<C>, &Fmt)> = table
        .iter()
        .map(|key| {
            let col = cols.iter().find(|c| c.key == *key).expect("table column is declared");
            (col, col.table.as_ref().expect("table column has a format"))
        })
        .collect();
    println!(
        "{what}, k={} n={} seed={} — {horizon_secs} s horizon, {} trials per cell",
        args.k, args.n, args.seed, args.trials
    );
    let head: Vec<String> = shown
        .iter()
        .map(|(_, f)| {
            if f.left {
                format!("{:<w$}", f.head, w = f.width)
            } else {
                format!("{:>w$}", f.head, w = f.width)
            }
        })
        .collect();
    println!("{}", head.join(" "));
    for c in cells {
        let row: Vec<String> = shown.iter().map(|(col, f)| table_cell((col.get)(c), f)).collect();
        println!("{}", row.join(" "));
    }
    println!();
    println!("{footer}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_never_sends_to_self_and_covers_every_wave() {
        let hosts: Vec<NodeId> = (0..16).map(NodeId).collect();
        let flows = traffic(&hosts, 600, WAVE_EVERY_SECS);
        assert_eq!(flows.len(), 20 * 16);
        assert!(flows.iter().all(|f| f.key.src != f.key.dst));
        assert_eq!(flows.last().map(|f| f.arrival), Some(Time::from_secs(570)));
    }

    #[test]
    fn tallies_sum_counters_and_keep_the_worst_dwell() {
        let a = Tally {
            flows: 3,
            late: 1,
            dwell_max_s: 2.0,
            ..Tally::default()
        };
        let mut sum = Tally {
            flows: 1,
            dwell_max_s: 5.0,
            ..Tally::default()
        };
        sum += &a;
        assert_eq!(sum.flows, 4);
        assert_eq!(sum.late, 1);
        assert_eq!(sum.dwell_max_s, 5.0);
        assert_eq!(sum.availability(), 0.75);
    }

    #[test]
    fn table_cells_honor_width_precision_and_unit() {
        let pct = Fmt {
            head: "avail%",
            width: 7,
            prec: 2,
            unit: "%",
            left: false,
        };
        assert_eq!(table_cell(Val::Real(0.5), &pct), " 50.00%");
        let ms = Fmt {
            head: "elect",
            width: 8,
            prec: 0,
            unit: "ms",
            left: false,
        };
        assert_eq!(table_cell(Val::Int(10), &ms), "    10ms");
        assert_eq!(digest_value(Val::Real(0.2), 2), "0.20");
    }
}

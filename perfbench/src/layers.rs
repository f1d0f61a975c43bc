//! Per-layer accumulators and the traced run's flow-simulator harvest.

use std::collections::BTreeMap;
use std::time::Instant;

use sharebackup_flowsim::{Environment, FlowSim, FlowSpec, SimOutcome};
use sharebackup_sim::Time;
use sharebackup_telemetry::Tracer;

use crate::timed::Timed;

/// Named per-layer sums over a run. Names follow the `BENCHMARK.json`
/// per-layer metrics; derived ratios are computed by [`crate::report`].
#[derive(Clone, Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Add `v` to the sum named `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_insert(0.0) += v;
    }

    /// The sum named `name` (0 if nothing was added).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Add every sum of `other` into `self`.
    pub fn merge(&mut self, other: &Layers) {
        for (&k, &v) in &other.0 {
            self.add(k, v);
        }
    }
}

/// Time `f` and add its host seconds to `name`.
pub fn timed<T>(layers: &mut Layers, name: &'static str, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    layers.add(name, t0.elapsed().as_secs_f64());
    out
}

/// Run one flow simulation and return its outcome and wall time.
///
/// Untraced, this is a bare `FlowSim::run` on `world`. Traced, the world
/// is wrapped in [`Timed`] and the run records onto a fresh
/// [`Tracer::recording`]; the callback times, the flow-simulator self time
/// (wall minus callbacks) and the solve histograms and cause counters are
/// added to `layers`.
pub fn simulate<E: Environment>(
    world: &mut E,
    flows: &[FlowSpec],
    epochs: &[Time],
    traced: Option<&mut Layers>,
) -> (SimOutcome, f64) {
    let Some(layers) = traced else {
        let t0 = Instant::now();
        let out = FlowSim::new().run(world, flows, epochs);
        return (out, t0.elapsed().as_secs_f64());
    };
    let (tracer, sink) = Tracer::recording();
    let mut env = Timed::new(world);
    let t0 = Instant::now();
    let out = FlowSim::new().run_traced(&mut env, flows, epochs, &tracer);
    let wall = t0.elapsed().as_secs_f64();
    let t = env.times;
    layers.add("flowsim.run_s", wall);
    layers.add("flowsim.self_s", wall - t.total_s());
    layers.add("flowsim.events", out.events as f64);
    layers.add("routing.route_calls", t.route_calls as f64);
    layers.add("routing.route_s", t.route_s);
    layers.add("routing.route_all_flows", t.route_all_flows as f64);
    layers.add("routing.route_all_s", t.route_all_s);
    layers.add("routing.unroutable", t.unroutable as f64);
    layers.add("core.epochs", t.epochs as f64);
    layers.add("core.epoch_s", t.epoch_s);
    layers.add("core.advance_s", t.advance_s);

    let buf = sink.borrow_mut().take();
    for (name, sum, count) in [
        (
            "flowsim.solve.active_flows",
            "solve.active_flows_sum",
            "solve.count",
        ),
        ("flowsim.solve.rounds", "solve.rounds_sum", ""),
        (
            "flowsim.solve.flows_touched",
            "flowsim.solve.flows_touched_total",
            "",
        ),
    ] {
        if let Some(h) = buf.hists.get(name) {
            layers.add(sum, h.sum() as f64);
            if !count.is_empty() {
                layers.add(count, h.count() as f64);
            }
        }
    }
    for name in [
        "flowsim.cause.arrival",
        "flowsim.cause.completion",
        "flowsim.cause.epoch",
    ] {
        layers.add(name, buf.counters.get(name).copied().unwrap_or(0) as f64);
    }
    (out, wall)
}

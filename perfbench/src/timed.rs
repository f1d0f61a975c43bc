//! Host-time attribution at the [`Environment`] seam.
//!
//! [`Timed`] wraps a scenario world and times every callback the flow
//! simulator makes into it — `route`, `route_all`, `on_epoch` and
//! `on_advance` — before delegating to the world inside. Flow-simulator
//! self time is then the `FlowSim::run` wall time minus those callbacks.
//! `capacity` and `link_between` are topology lookups the simulator makes
//! while interning a route; they stay untimed and count as its self time.

use std::time::Instant;

use sharebackup_flowsim::Environment;
use sharebackup_routing::FlowKey;
use sharebackup_sim::Time;
use sharebackup_topo::{LinkId, NodeId};

/// Host time and call counts per callback.
#[derive(Clone, Copy, Debug, Default)]
pub struct CallbackTimes {
    /// `route` calls (flow arrivals).
    pub route_calls: u64,
    /// Host seconds in `route`.
    pub route_s: f64,
    /// Flows passed to `route_all` (every live flow at every epoch).
    pub route_all_flows: u64,
    /// Host seconds in `route_all`.
    pub route_all_s: f64,
    /// Flows `route` or `route_all` found unroutable.
    pub unroutable: u64,
    /// `on_epoch` calls.
    pub epochs: u64,
    /// Host seconds in `on_epoch`.
    pub epoch_s: f64,
    /// `on_advance` calls.
    pub advances: u64,
    /// Host seconds in `on_advance`.
    pub advance_s: f64,
}

impl CallbackTimes {
    /// Host seconds spent in all timed callbacks.
    pub fn total_s(&self) -> f64 {
        self.route_s + self.route_all_s + self.epoch_s + self.advance_s
    }
}

/// A world whose callbacks are timed; see the module docs.
pub struct Timed<'a, E> {
    inner: &'a mut E,
    /// What the callbacks cost so far.
    pub times: CallbackTimes,
}

impl<'a, E: Environment> Timed<'a, E> {
    /// Wrap `inner`.
    pub fn new(inner: &'a mut E) -> Timed<'a, E> {
        Timed {
            inner,
            times: CallbackTimes::default(),
        }
    }
}

impl<E: Environment> Environment for Timed<'_, E> {
    fn capacity(&self, l: LinkId) -> f64 {
        self.inner.capacity(l)
    }

    fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.inner.link_between(a, b)
    }

    fn route(&mut self, flow: &FlowKey) -> Option<Vec<NodeId>> {
        let t0 = Instant::now();
        let path = self.inner.route(flow);
        self.times.route_s += t0.elapsed().as_secs_f64();
        self.times.route_calls += 1;
        self.times.unroutable += u64::from(path.is_none());
        path
    }

    fn route_all(&mut self, flows: &[FlowKey]) -> Vec<Option<Vec<NodeId>>> {
        let t0 = Instant::now();
        let paths = self.inner.route_all(flows);
        self.times.route_all_s += t0.elapsed().as_secs_f64();
        self.times.route_all_flows += flows.len() as u64;
        self.times.unroutable += paths.iter().filter(|p| p.is_none()).count() as u64;
        paths
    }

    fn on_epoch(&mut self, index: usize, now: Time) {
        let t0 = Instant::now();
        self.inner.on_epoch(index, now);
        self.times.epoch_s += t0.elapsed().as_secs_f64();
        self.times.epochs += 1;
    }

    fn on_advance(&mut self, now: Time) {
        let t0 = Instant::now();
        self.inner.on_advance(now);
        self.times.advance_s += t0.elapsed().as_secs_f64();
        self.times.advances += 1;
    }
}

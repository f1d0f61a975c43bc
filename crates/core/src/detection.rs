//! Event-driven failure detection (paper §4.1): keep-alives and neighbor
//! probes on the discrete-event engine.
//!
//! Two detectors exist in ShareBackup, both adopted from F10's rapid
//! failure detection:
//!
//! * **Node failures** — every switch sends keep-alives to the controller
//!   on a fixed interval; the controller declares a node dead after a run
//!   of missed keep-alives.
//! * **Link failures** — neighboring switches (and hosts) probe each other
//!   on the same interval, testing interface, data link, and forwarding
//!   engine; a switch that misses probes from a neighbor reports the link
//!   to the controller.
//!
//! This module holds the one keep-alive rule every detector in the
//! workspace shares: a device keep-alives every probe interval, and a
//! scanner declares it dead at its first tick, at or after a not-before
//! instant, that sees silence longer than
//! [`DetectionConfig::silence_limit`] after the death. `Watch` plays that
//! rule on the discrete-event engine — a staggered keep-alive phase, one or
//! more scanner phases, death at an arbitrary instant — and reports which
//! scanner fired and when. [`simulate_detection`] runs it with one scanner
//! (the controller watching a switch), [`crate::failover::simulate_election`]
//! with one scanner per follower (the replicas watching the primary), and
//! [`crate::timeline`] embeds it as the first stage of a recovery.
//!
//! The closed-form [`crate::latency::RecoveryLatencyModel`] charges one
//! `probe_interval` for detection: the **mean** latency at
//! `miss_threshold` 1. The worst case is [`DetectionConfig::worst_case`],
//! two intervals at `miss_threshold` 1.

use sharebackup_sim::{Duration, Engine, SimRng, Time, World};

/// Parameters of the keep-alive detector.
#[derive(Clone, Copy, Debug)]
pub struct DetectionConfig {
    /// Keep-alive / probe period.
    pub probe_interval: Duration,
    /// Consecutive misses before a device is declared dead.
    pub miss_threshold: u32,
}

impl Default for DetectionConfig {
    fn default() -> Self {
        DetectionConfig {
            probe_interval: Duration::from_millis(1),
            miss_threshold: 1,
        }
    }
}

impl DetectionConfig {
    /// The silence the controller must observe before declaring a device
    /// dead: `miss_threshold` full keep-alive periods.
    pub fn silence_limit(&self) -> Duration {
        self.probe_interval * self.miss_threshold as u64
    }

    /// The scan-alignment term of the worst-case detection latency: the
    /// controller's scan loop runs on the same period as the keep-alives,
    /// so after the silence limit is exceeded, up to one further period
    /// can pass before the next scan observes it.
    pub fn scan_alignment(&self) -> Duration {
        self.probe_interval
    }

    /// The worst-case detection latency: the device dies right after a
    /// keep-alive, the controller needs [`DetectionConfig::silence_limit`]
    /// of silence, **plus** its own [`DetectionConfig::scan_alignment`] —
    /// the scan that finally observes the over-limit silence can trail it
    /// by up to one full period.
    ///
    /// The bound is tight: with the keep-alive and scan phases equal and
    /// death one clock tick after a keep-alive, the simulated latency comes
    /// within that tick of this value (see the `worst_case_bound_is_tight_and_alignment_term_is_load_bearing`
    /// test, which also proves dropping the alignment term makes the bound
    /// wrong).
    pub fn worst_case(&self) -> Duration {
        self.silence_limit() + self.scan_alignment()
    }
}

/// The engine events of a [`Watch`]. An embedding simulation wraps them in
/// its own event type through `From<WatchEv>`.
#[derive(Clone, Copy, Debug)]
pub(crate) enum WatchEv {
    /// The watched device emits a keep-alive (if still alive).
    KeepAlive,
    /// Scanner `i`'s tick.
    Scan(usize),
    /// The watched device dies.
    Die,
}

/// A finished watch: when the device died, and when and by which scanner
/// it was declared dead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Declaration {
    /// When the device died.
    pub died_at: Time,
    /// When a scanner declared it dead.
    pub declared_at: Time,
    /// The index of the scanner that declared it.
    pub scanner: usize,
}

impl Declaration {
    /// Death → declaration.
    pub fn latency(&self) -> Duration {
        self.declared_at.since(self.died_at)
    }
}

/// One device watched by one or more scanners under the keep-alive rule.
pub(crate) struct Watch {
    cfg: DetectionConfig,
    not_before: Time,
    last_seen: Time,
    died_at: Option<Time>,
    declared: Option<(Time, usize)>,
}

impl Watch {
    /// Start a watch on `engine`: schedule the first keep-alive at
    /// `probe_phase`, then each scanner's first tick at its phase (in index
    /// order), then the death at `die_at`. No scanner declares before
    /// `not_before`.
    ///
    /// # Panics
    /// Panics if `scan_phases` is empty or any phase is not within one
    /// probe interval.
    pub fn start<E: From<WatchEv>>(
        engine: &mut Engine<E>,
        cfg: DetectionConfig,
        probe_phase: Duration,
        scan_phases: &[Duration],
        die_at: Time,
        not_before: Time,
    ) -> Watch {
        assert!(!scan_phases.is_empty(), "need at least one scanner");
        assert!(probe_phase < cfg.probe_interval, "phase within one period");
        engine.schedule(Time::ZERO + probe_phase, WatchEv::KeepAlive.into());
        for (i, &phase) in scan_phases.iter().enumerate() {
            assert!(phase < cfg.probe_interval, "phase within one period");
            engine.schedule(Time::ZERO + phase, WatchEv::Scan(i).into());
        }
        engine.schedule(die_at, WatchEv::Die.into());
        Watch {
            cfg,
            not_before,
            last_seen: Time::ZERO,
            died_at: None,
            declared: None,
        }
    }

    /// Start a watch on its own engine and run it until a scanner declares.
    pub fn run(
        cfg: DetectionConfig,
        probe_phase: Duration,
        scan_phases: &[Duration],
        die_at: Time,
    ) -> Declaration {
        let mut engine: Engine<WatchEv> = Engine::new();
        let mut watch = Watch::start(
            &mut engine,
            cfg,
            probe_phase,
            scan_phases,
            die_at,
            Time::ZERO,
        );
        engine.run(&mut watch);
        // lint:allow(unwrap) — scans continue until one declares, and the death always runs
        watch.declaration().expect("a scanner declares")
    }

    /// Apply `ev` at `now`. Returns whether it changed what the watch
    /// knows: a keep-alive heard, the death, or the declaration.
    pub fn observe<E: From<WatchEv>>(
        &mut self,
        engine: &mut Engine<E>,
        now: Time,
        ev: WatchEv,
    ) -> bool {
        match ev {
            WatchEv::KeepAlive if self.died_at.is_none() => {
                self.last_seen = now;
                engine.schedule_in(self.cfg.probe_interval, WatchEv::KeepAlive.into());
                true
            }
            WatchEv::KeepAlive => false,
            WatchEv::Die => {
                self.died_at = Some(now);
                true
            }
            WatchEv::Scan(_) if self.declared.is_some() => false,
            WatchEv::Scan(i) => {
                let silence = now.saturating_since(self.last_seen);
                if self.died_at.is_some()
                    && now >= self.not_before
                    && silence > self.cfg.silence_limit()
                {
                    self.declared = Some((now, i));
                    true
                } else {
                    engine.schedule_in(self.cfg.probe_interval, WatchEv::Scan(i).into());
                    false
                }
            }
        }
    }

    /// The declaration, once a scanner has fired.
    pub fn declaration(&self) -> Option<Declaration> {
        let (declared_at, scanner) = self.declared?;
        Some(Declaration {
            died_at: self.died_at?,
            declared_at,
            scanner,
        })
    }
}

impl World<WatchEv> for Watch {
    fn handle(&mut self, engine: &mut Engine<WatchEv>, now: Time, ev: WatchEv) {
        self.observe(engine, now, ev);
    }
}

/// Simulate one node-failure detection: the switch keep-alives with phase
/// `probe_phase` ∈ [0, interval), the controller scans with phase
/// `scan_phase`, and the switch dies at `die_at`. Returns the latency from
/// death to the controller's declaration.
pub fn simulate_detection(
    cfg: DetectionConfig,
    probe_phase: Duration,
    scan_phase: Duration,
    die_at: Time,
) -> Duration {
    Watch::run(cfg, probe_phase, &[scan_phase], die_at).latency()
}

/// The detection-latency distribution over `samples` random probe/scan
/// phases and death instants. Returns latencies in seconds.
pub fn detection_latency_samples(
    cfg: DetectionConfig,
    rng: &mut SimRng,
    samples: usize,
) -> Vec<f64> {
    (0..samples)
        .map(|_| {
            let p = cfg.probe_interval.as_secs_f64();
            let probe_phase = Duration::from_secs_f64(rng.f64() * p * 0.999);
            let scan_phase = Duration::from_secs_f64(rng.f64() * p * 0.999);
            let die_at = Time::from_secs_f64(rng.f64() * 10.0 * p + p);
            simulate_detection(cfg, probe_phase, scan_phase, die_at).as_secs_f64()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharebackup_sim::Summary;

    #[test]
    fn detection_is_bounded_by_worst_case() {
        let cfg = DetectionConfig::default();
        let mut rng = SimRng::seed_from_u64(11);
        let samples = detection_latency_samples(cfg, &mut rng, 500);
        let worst = cfg.worst_case().as_secs_f64();
        for &s in &samples {
            assert!(s > 0.0);
            assert!(s <= worst + 1e-9, "sample {s} beyond worst case {worst}");
        }
    }

    #[test]
    fn mean_detection_is_about_one_interval() {
        // With threshold 1 the latency is T + v − u for independent uniform
        // phases u, v ∈ (0, T): mean exactly one period, support (0, 2T).
        let cfg = DetectionConfig::default();
        let mut rng = SimRng::seed_from_u64(12);
        let samples = detection_latency_samples(cfg, &mut rng, 2000);
        let s = Summary::of(&samples).expect("nonempty");
        let period = cfg.probe_interval.as_secs_f64();
        assert!(
            (s.mean - period).abs() < 0.1 * period,
            "mean {} vs period {period}",
            s.mean
        );
        assert!(s.max < 2.0 * period);
        assert!(s.min > 0.0);
    }

    #[test]
    fn higher_threshold_slows_detection() {
        let fast = DetectionConfig::default();
        let slow = DetectionConfig {
            miss_threshold: 3,
            ..fast
        };
        let mut rng = SimRng::seed_from_u64(13);
        let f = detection_latency_samples(fast, &mut rng, 300);
        let mut rng = SimRng::seed_from_u64(13);
        let s = detection_latency_samples(slow, &mut rng, 300);
        let fm: f64 = f.iter().sum::<f64>() / f.len() as f64;
        let sm: f64 = s.iter().sum::<f64>() / s.len() as f64;
        assert!(sm > fm * 2.0, "threshold 3 must be much slower: {sm} vs {fm}");
    }

    #[test]
    fn worst_case_bound_is_tight_and_alignment_term_is_load_bearing() {
        // Tightness: equal keep-alive/scan phases, death one tick after a
        // keep-alive. The scan landing exactly at last_seen + mT observes
        // silence of exactly mT — not over the limit — so declaration
        // waits one further full scan period: the latency reaches
        // silence_limit + scan_alignment − 1 tick, i.e. the worst-case
        // bound is approached to within the clock resolution.
        let tick = Duration::from_nanos(1);
        for miss_threshold in [1u32, 2, 3] {
            let cfg = DetectionConfig {
                miss_threshold,
                ..DetectionConfig::default()
            };
            let lat = simulate_detection(
                cfg,
                Duration::ZERO,
                Duration::ZERO,
                // Keep-alive instants are 0, 1, 2, ... ms (phase 0, T=1ms).
                Time::from_millis(2) + tick,
            );
            assert_eq!(
                lat,
                cfg.worst_case() - tick,
                "bound attained to within one tick at m={miss_threshold}"
            );
            // Load-bearing: a "simplified" bound without the alignment
            // term is violated by this very schedule.
            assert!(lat > cfg.silence_limit(), "silence limit alone is too small");
        }
    }

    #[test]
    fn deterministic_case_pins_arithmetic() {
        // Keep-alives at 0,1,2,... ms; scan at 0.5,1.5,... ms; death at
        // 2.2 ms. Last keep-alive at 2 ms. Scans: 2.5 (silence 0.5 <= 1),
        // 3.5 (silence 1.5 > 1) → detected at 3.5 ms; latency 1.3 ms.
        let cfg = DetectionConfig::default();
        let lat = simulate_detection(
            cfg,
            Duration::ZERO,
            Duration::from_micros(500),
            Time::from_micros(2200),
        );
        assert_eq!(lat, Duration::from_micros(1300));
    }
}

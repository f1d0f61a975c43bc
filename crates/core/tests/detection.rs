//! Exhaustive small-scope check of the keep-alive rule (paper §4.1, §5.1).
//! One rule decides every detection in the workspace: the controller
//! watching a switch (`simulate_detection`), the replicas watching the
//! primary (`simulate_election`) and the recovery timeline
//! (`simulate_recovery`). With T the probe interval, this enumerates
//! `miss_threshold` ∈ {0, 1, 2, 3}, keep-alive and scan phases on a T/8
//! grid, deaths on a T/8 grid over three periods, and one to three
//! followers on a T/4 grid.

use sharebackup_core::{
    simulate_detection, simulate_election, simulate_recovery, Controller, ControllerConfig,
    DetectionConfig,
};
use sharebackup_sim::{Duration, Time};
use sharebackup_telemetry::Tracer;
use sharebackup_topo::{GroupId, ShareBackup, ShareBackupConfig};

const T: Duration = Duration::from_millis(1);
const STEP: Duration = Duration::from_micros(125); // T/8

fn cfg(miss_threshold: u32) -> DetectionConfig {
    DetectionConfig {
        probe_interval: T,
        miss_threshold,
    }
}

/// Phases on the T/8 grid.
fn phases() -> impl Iterator<Item = Duration> + Clone {
    (0..8).map(|i| STEP * i)
}

/// Death instants on the T/8 grid over three periods.
fn deaths() -> impl Iterator<Item = Time> + Clone {
    (0..24).map(|i| Time::ZERO + STEP * i)
}

/// With `miss_threshold` 0 every scan that sees any silence could fire, so
/// only the "has it died yet" guard keeps the watch from declaring a live
/// switch. Keep-alives at 0, 1, 2, … ms, scans at 0.5, 1.5, … ms, death at
/// 2.2 ms: the first scan after the death (2.5 ms) declares.
#[test]
fn zero_miss_threshold_declares_at_the_first_scan_after_death() {
    let cfg = cfg(0);
    let scan = Duration::from_micros(500);
    let die_at = Time::from_micros(2200);
    let lat = simulate_detection(cfg, Duration::ZERO, scan, die_at);
    assert_eq!(lat, Duration::from_micros(300));
    let el = simulate_election(cfg, Duration::ZERO, Duration::ZERO, &[scan], die_at);
    assert_eq!(el.detected_at, die_at + lat);
    assert_eq!(el.detected_at, Time::from_micros(2500));
}

#[test]
fn keep_alive_rule_holds_on_every_grid_point() {
    for m in 0..4 {
        let cfg = cfg(m);
        let mut grid_max = Duration::ZERO;
        for p in phases() {
            for s in phases() {
                for d in deaths() {
                    let lat = simulate_detection(cfg, p, s, d);
                    let el = simulate_election(cfg, Duration::ZERO, p, &[s], d);
                    let at = format!("m={m} probe={p} scan={s} death={d}");
                    assert!(el.detected_at >= el.crashed_at, "declared before death: {at}");
                    assert_eq!(el.detection_latency(), lat, "detector vs election: {at}");
                    assert!(lat <= cfg.worst_case(), "{lat} beyond worst case: {at}");
                    grid_max = grid_max.max(lat);
                }
            }
        }
        if m >= 1 {
            // The alignment term is load-bearing: the grid comes within one
            // step of the bound, past the silence limit alone.
            assert!(grid_max + STEP >= cfg.worst_case(), "m={m}: max {grid_max}");
            assert!(grid_max > cfg.silence_limit(), "m={m}: max {grid_max}");
        }
    }
}

#[test]
fn more_followers_detect_at_the_earliest_single_follower() {
    let quarter: Vec<Duration> = (0..4).map(|i| T / 4 * i).collect();
    let mut sets: Vec<Vec<Duration>> = Vec::new();
    for &a in &quarter {
        sets.push(vec![a]);
        for &b in &quarter {
            sets.push(vec![a, b]);
            for &c in &quarter {
                sets.push(vec![a, b, c]);
            }
        }
    }
    let election = Duration::from_millis(50);
    for m in 0..4 {
        let cfg = cfg(m);
        for p in phases() {
            for d in deaths() {
                let single: Vec<Time> = quarter
                    .iter()
                    .map(|&s| simulate_election(cfg, election, p, &[s], d).detected_at)
                    .collect();
                let alone = |s: Duration| single[quarter.iter().position(|&q| q == s).unwrap()];
                for followers in &sets {
                    let el = simulate_election(cfg, election, p, followers, d);
                    let first = followers.iter().map(|&s| alone(s)).min().unwrap();
                    let at = format!("m={m} probe={p} death={d} followers={followers:?}");
                    assert_eq!(el.detected_at, first, "{at}");
                    assert_eq!(
                        el.detector,
                        followers.iter().position(|&s| alone(s) == first).unwrap(),
                        "lowest index among the earliest: {at}"
                    );
                    assert_eq!(el.elected_at, first + election, "{at}");
                }
            }
        }
    }
}

#[test]
fn recovery_timeline_detects_like_the_detector() {
    let slot = GroupId::agg(0).slot(0);
    for p in phases() {
        for d in deaths() {
            let sb = ShareBackup::build(ShareBackupConfig::new(4, 1));
            let mut ctl = Controller::new(sb, ControllerConfig::default());
            let cfg = DetectionConfig {
                probe_interval: ctl.cfg.latency.probe_interval,
                miss_threshold: 1,
            };
            let tl = simulate_recovery(&mut ctl, slot, d, p, Time::ZERO, &Tracer::off());
            assert_eq!(
                tl.detection_latency(),
                simulate_detection(cfg, p, Duration::ZERO, d),
                "probe={p} death={d}"
            );
        }
    }
}

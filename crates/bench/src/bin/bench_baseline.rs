//! Microbenchmark baseline for the flow simulator and trial harness.
//!
//! Usage: `bench_baseline [--k 8] [--trials 20] [--seed 42] [--jobs N] [--mode full|digest] [--json]`
//!
//! Three sections, written to `BENCH_flowsim.json` (and printed):
//!
//! 1. **waterfill** — µs per max-min solve on a fixed 1024-flow /
//!    2048-link instance: the reused dense [`WaterFiller`] (what the event
//!    loop does per event) vs. the reference solver's full per-call
//!    rebuild (what the event loop used to do).
//! 2. **events** — flow-sim event-loop throughput (events/second) on a
//!    loaded k=8 fat-tree trace with one mid-run failure.
//! 3. **trials** — Fig. 1(c)-style trials per second, serial vs. `--jobs`
//!    threads, plus a digest equality check exercising the determinism
//!    contract (see DESIGN.md).
//!
//! `--mode digest` instead prints *only* the deterministic per-trial
//! digest and exits; CI byte-diffs that output between `--jobs 1` and
//! `--jobs 2` to enforce jobs-invariance end to end.

#![allow(clippy::cast_possible_truncation)] // link indices are < 2048

use std::time::Instant;

use sharebackup_bench::fig1::{run_fig1c_trial, AbstractFailure, Fig1Setup, Fig1cTrial};
use sharebackup_bench::{parallel_map_indexed, Args};
use sharebackup_core::scenario::{FatTreeWorld, RecoveryMode};
use sharebackup_flowsim::{max_min_rates_reference, FlowSim, WaterFiller};
use sharebackup_sim::{Duration, SimRng, Summary, Time};
use sharebackup_topo::{FatTree, LinkId};

const WF_FLOWS: usize = 1024;
const WF_LINKS: usize = 2048;

/// Synthetic water-filling instance: every flow crosses four pseudo-random
/// links, capacities are Gb/s-scale and asymmetric (7 distinct values), so
/// the solve exercises many filling rounds.
fn waterfill_instance() -> Vec<Vec<LinkId>> {
    (0..WF_FLOWS)
        .map(|i| {
            let mut links = vec![
                i % WF_LINKS,
                (i * 7 + 3) % WF_LINKS,
                (i * 13 + 5) % WF_LINKS,
                (i * 29 + 11) % WF_LINKS,
            ];
            links.sort_unstable();
            links.dedup();
            links.into_iter().map(|l| LinkId(l as u32)).collect()
        })
        .collect()
}

fn wf_capacity(l: LinkId) -> f64 {
    10e9 * (1.0 + f64::from(l.0 % 7) / 4.0)
}

/// Mean seconds per call of `f`, measured over a ~0.2 s budget after one
/// warm-up call.
fn time_per_call<F: FnMut()>(mut f: F) -> f64 {
    f(); // warm-up
    let budget = std::time::Duration::from_millis(200);
    let start = Instant::now();
    let mut calls = 0u32;
    loop {
        f();
        calls += 1;
        if start.elapsed() >= budget {
            break;
        }
    }
    start.elapsed().as_secs_f64() / f64::from(calls)
}

/// Per-call seconds of `f` (one sample per call), measured over a ~0.2 s
/// budget after one warm-up call. Feeds [`Summary::of`] so the report
/// carries the full latency distribution, not just the mean.
fn sample_per_call<F: FnMut()>(mut f: F) -> Vec<f64> {
    f(); // warm-up
    let budget = std::time::Duration::from_millis(200);
    let start = Instant::now();
    let mut samples = Vec::new();
    loop {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
        if start.elapsed() >= budget {
            break;
        }
    }
    samples
}

/// A [`Summary`] as a JSON object, values scaled by `scale` (e.g. `1e6`
/// for seconds → microseconds).
fn summary_json(s: &Summary, scale: f64) -> minijson::Value {
    minijson::json!({
        "count": s.count,
        "mean": s.mean * scale,
        "min": s.min * scale,
        "p50": s.p50 * scale,
        "p90": s.p90 * scale,
        "p99": s.p99 * scale,
        "max": s.max * scale,
    })
}

/// Section 1: reused dense solver vs. reference rebuild on the same
/// instance; asserts the two agree before timing.
fn bench_waterfill() -> minijson::Value {
    let flows = waterfill_instance();
    let mut wf = WaterFiller::new();
    let dense: Vec<Vec<u32>> = flows
        .iter()
        .map(|ls| ls.iter().map(|&l| wf.link_index(l, wf_capacity(l))).collect())
        .collect();
    let fids: Vec<usize> = dense.into_iter().map(|ls| wf.add_flow(ls)).collect();

    wf.solve();
    let reference = max_min_rates_reference(&flows, wf_capacity);
    for (fid, r) in fids.iter().zip(&reference) {
        let d = wf.rate(*fid);
        assert!(
            (d - r).abs() <= 1e-6 * r.abs().max(1.0),
            "solvers disagree on flow {fid}: dense {d} vs reference {r}"
        );
    }

    let dense_samples = sample_per_call(|| wf.solve());
    let dense_summary = Summary::of(&dense_samples).expect("at least one solve sample");
    let s_dense = dense_summary.mean;
    let s_ref = time_per_call(|| {
        let _ = max_min_rates_reference(&flows, wf_capacity);
    });
    minijson::json!({
        "flows": WF_FLOWS,
        "links": WF_LINKS,
        "us_per_solve": s_dense * 1e6,
        "us_per_solve_summary": summary_json(&dense_summary, 1e6),
        "us_per_solve_reference": s_ref * 1e6,
        "speedup": s_ref / s_dense,
    })
}

/// Section 2: event-loop throughput on a loaded k=8 trace with one node
/// failure and repair mid-run (two reroute epochs).
fn bench_events(seed: u64) -> minijson::Value {
    let mut setup = Fig1Setup::paper(8, seed).with_load(2.0);
    setup.duration = Time::from_secs(60);
    setup.fail_at = Time::from_secs(10);
    setup.outage = Duration::from_secs(30);
    let ft = FatTree::build(setup.ft_config());
    let trace = setup.trace(&ft, 0);
    let failure = AbstractFailure::Core(1);
    let run_once = || {
        let ft = FatTree::build(setup.ft_config());
        let ev = failure.to_fattree(&ft);
        let mut world = FatTreeWorld::new(ft, RecoveryMode::GlobalOptimal, vec![ev, ev.repair()]);
        let epochs = [setup.fail_at, setup.fail_at + setup.outage];
        FlowSim::new().run(&mut world, &trace.specs, &epochs)
    };
    let events = run_once().events;
    let secs = time_per_call(|| {
        let _ = run_once();
    });
    minijson::json!({
        "flows": trace.specs.len(),
        "events": events,
        "events_per_sec": events as f64 / secs,
    })
}

/// The scaled-down Fig. 1(c) configuration the trial sweep runs.
fn trial_setup(k: usize, seed: u64) -> Fig1Setup {
    let mut setup = Fig1Setup::paper(k, seed).with_load(2.0);
    setup.duration = Time::from_secs(30);
    setup.fail_at = Time::from_secs(5);
    setup.outage = Duration::from_secs(15);
    setup
}

/// Node failures for the sweep, pre-drawn serially from a single child
/// stream (shared-stream draws must not fan out; see DESIGN.md).
fn trial_failures(k: usize, seed: u64, trials: usize) -> Vec<AbstractFailure> {
    let mut rng = SimRng::seed_from_u64(seed).child("bench-failures");
    (0..trials)
        .map(|_| AbstractFailure::sample_node(&mut rng, k))
        .collect()
}

/// Deterministic, roundtrip-precise digest of one trial's results. `{:?}`
/// on `f64` prints the shortest decimal that parses back exactly, so two
/// digests match iff the results are bit-identical.
fn digest(trial: usize, t: &Fig1cTrial) -> String {
    format!(
        "trial {trial}: ft={:?}/{} f10={:?}/{} sb={:?}/{}",
        t.ft.0, t.ft.1, t.f10.0, t.f10.1, t.sb.0, t.sb.1
    )
}

fn run_trials(setup: &Fig1Setup, ft: &FatTree, failures: &[AbstractFailure], jobs: usize) -> Vec<String> {
    let out = parallel_map_indexed(jobs, failures.len(), |trial| {
        run_fig1c_trial(setup, ft, trial, failures[trial])
    });
    out.iter()
        .enumerate()
        .map(|(i, t)| digest(i, t))
        .collect()
}

/// Section 3: trials/second serial vs. parallel, with digest comparison.
fn bench_trials(k: usize, seed: u64, trials: usize, jobs: usize) -> minijson::Value {
    let setup = trial_setup(k, seed);
    let ft = FatTree::build(setup.ft_config());
    let failures = trial_failures(k, seed, trials);

    let t0 = Instant::now();
    let serial = run_trials(&setup, &ft, &failures, 1);
    let s_serial = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let parallel = run_trials(&setup, &ft, &failures, jobs);
    let s_parallel = t0.elapsed().as_secs_f64();

    assert_eq!(
        serial, parallel,
        "determinism contract violated: --jobs {jobs} changed trial results"
    );
    minijson::json!({
        "trials": trials,
        "jobs": jobs,
        "trials_per_sec_serial": trials as f64 / s_serial,
        "trials_per_sec_parallel": trials as f64 / s_parallel,
        "speedup": s_serial / s_parallel,
        "digest_match": true,
    })
}

fn main() {
    let mut defaults = Args::paper_defaults();
    defaults.k = 8;
    defaults.trials = 20;
    defaults.mode = "full".to_string();
    let args = Args::parse(defaults);

    if args.mode == "digest" {
        // CI path: deterministic per-trial results only, byte-diffable
        // across job counts. No timing, no JSON file.
        let setup = trial_setup(args.k, args.seed);
        let ft = FatTree::build(setup.ft_config());
        let failures = trial_failures(args.k, args.seed, args.trials);
        for line in run_trials(&setup, &ft, &failures, args.jobs) {
            println!("{line}");
        }
        return;
    }

    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    eprintln!("waterfill: dense reused solver vs reference rebuild ({WF_FLOWS} flows, {WF_LINKS} links)...");
    let waterfill = bench_waterfill();
    eprintln!("events: flow-sim event loop on loaded k=8 trace...");
    let events = bench_events(args.seed);
    eprintln!(
        "trials: {} fig1c-style trials, serial vs --jobs {}...",
        args.trials, args.jobs
    );
    let trials = bench_trials(args.k, args.seed, args.trials, args.jobs);

    let report = minijson::json!({
        "machine": { "cores": cores },
        "waterfill": waterfill.clone(),
        "events": events.clone(),
        "trials": trials.clone(),
    });
    let pretty = minijson::to_string_pretty(&report).expect("json");
    std::fs::write("BENCH_flowsim.json", format!("{pretty}\n")).expect("write BENCH_flowsim.json");

    if args.json {
        println!("{pretty}");
        return;
    }
    println!("flow-simulator baseline (written to BENCH_flowsim.json, cores={cores})");
    println!(
        "waterfill  {:>10.1} us/solve dense (reused)  {:>10.1} us/solve reference  {:>6.2}x",
        waterfill["us_per_solve"].as_f64().expect("v"),
        waterfill["us_per_solve_reference"].as_f64().expect("v"),
        waterfill["speedup"].as_f64().expect("v"),
    );
    let sum = &waterfill["us_per_solve_summary"];
    println!(
        "           dense per-solve us: p50={:.1} p90={:.1} p99={:.1} max={:.1} (n={})",
        sum["p50"].as_f64().expect("v"),
        sum["p90"].as_f64().expect("v"),
        sum["p99"].as_f64().expect("v"),
        sum["max"].as_f64().expect("v"),
        sum["count"],
    );
    println!(
        "events     {:>10.0} events/sec ({} loop steps per run)",
        events["events_per_sec"].as_f64().expect("v"),
        events["events"],
    );
    println!(
        "trials     {:>10.2} trials/sec serial  {:>10.2} trials/sec --jobs {}  {:>6.2}x  digests match",
        trials["trials_per_sec_serial"].as_f64().expect("v"),
        trials["trials_per_sec_parallel"].as_f64().expect("v"),
        args.jobs,
        trials["speedup"].as_f64().expect("v"),
    );
}

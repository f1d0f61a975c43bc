//! Golden outputs of the harnesses. The campaign harnesses
//! (`chaos_availability`, `controller_failover`) must print exactly the
//! committed bytes in `--mode digest --trials 2` and `--mode demo`, with and
//! without `--json`, at the default k=4. The harnesses that run all three
//! systems, F10 included (`fig1c_cct`, `table3_properties`, `fig1_affected`),
//! must print their committed tables, and `fig1c_cct` its trace digest. The
//! fast results bins must print their committed `results/` files. The
//! CI jobs-invariance diffs cannot catch a change that moves the output at
//! every `--jobs` value; this test does.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"))
}

/// Run `bin` with `args` and compare its stdout with `golden`.
fn check_stdout(bin: &str, args: &[&str], golden: &str) {
    let out = run(bin, args);
    assert!(out.status.success(), "{bin} {args:?} failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert_eq!(stdout, golden, "{bin} {args:?} drifted from its golden");
}

/// Run every golden surface of `bin` and compare stdout byte for byte.
/// `golden` maps a surface name to its committed output.
fn check(bin: &str, golden: impl Fn(&str) -> &'static str) {
    let surfaces: [(&str, &[&str]); 4] = [
        ("digest", &["--mode", "digest", "--trials", "2"]),
        // Digest mode ignores `--json`.
        ("digest", &["--mode", "digest", "--trials", "2", "--json"]),
        ("demo", &["--mode", "demo"]),
        ("demo-json", &["--mode", "demo", "--json"]),
    ];
    for (name, args) in surfaces {
        check_stdout(bin, args, golden(name));
    }
}

#[test]
fn chaos_availability_matches_golden() {
    check(env!("CARGO_BIN_EXE_chaos_availability"), |name| match name {
        "digest" => include_str!("golden/chaos_availability.digest.txt"),
        "demo" => include_str!("golden/chaos_availability.demo.txt"),
        _ => include_str!("golden/chaos_availability.demo-json.txt"),
    });
}

#[test]
fn controller_failover_matches_golden() {
    check(env!("CARGO_BIN_EXE_controller_failover"), |name| match name {
        "digest" => include_str!("golden/controller_failover.digest.txt"),
        "demo" => include_str!("golden/controller_failover.demo.txt"),
        _ => include_str!("golden/controller_failover.demo-json.txt"),
    });
}

#[test]
fn fig1c_cct_matches_golden() {
    let trace = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("fig1c_cct.k4.json");
    let trace = trace.to_str().expect("utf-8 path");
    check_stdout(
        env!("CARGO_BIN_EXE_fig1c_cct"),
        &["--k", "4", "--trials", "2", "--trace-out", trace],
        include_str!("golden/fig1c_cct.k4.txt"),
    );
    let digest = std::fs::read_to_string(format!("{trace}.digest")).expect("trace digest");
    assert_eq!(digest, include_str!("golden/fig1c_cct.k4.trace.digest"));
}

#[test]
fn table3_properties_matches_golden() {
    let bin = env!("CARGO_BIN_EXE_table3_properties");
    check_stdout(bin, &[], include_str!("../../../results/table3_properties.txt"));
    check_stdout(bin, &["--k", "4"], include_str!("golden/table3_properties.k4.txt"));
}

#[test]
fn fig1_affected_matches_golden() {
    check_stdout(
        env!("CARGO_BIN_EXE_fig1_affected"),
        &["--k", "4", "--trials", "2"],
        include_str!("golden/fig1_affected.k4.txt"),
    );
}

/// Every fast results bin, run at its default args, prints exactly its
/// committed `results/<bin>.txt`. (`ablation_pool_size` is left out: it takes
/// about 20 s in a debug build.)
#[test]
fn results_match_committed_files() {
    let bins: [(&str, &str); 12] = [
        (env!("CARGO_BIN_EXE_recovery_timeline"), include_str!("../../../results/recovery_timeline.txt")),
        (env!("CARGO_BIN_EXE_scorecard"), include_str!("../../../results/scorecard.txt")),
        (env!("CARGO_BIN_EXE_longrun_availability"), include_str!("../../../results/longrun_availability.txt")),
        (env!("CARGO_BIN_EXE_ablation_diagnosis"), include_str!("../../../results/ablation_diagnosis.txt")),
        (env!("CARGO_BIN_EXE_ablation_nonuniform"), include_str!("../../../results/ablation_nonuniform.txt")),
        (env!("CARGO_BIN_EXE_ablation_circuit_tech"), include_str!("../../../results/ablation_circuit_tech.txt")),
        (env!("CARGO_BIN_EXE_recovery_latency"), include_str!("../../../results/recovery_latency.txt")),
        (env!("CARGO_BIN_EXE_capacity"), include_str!("../../../results/capacity.txt")),
        (env!("CARGO_BIN_EXE_table2_cost"), include_str!("../../../results/table2_cost.txt")),
        (env!("CARGO_BIN_EXE_fig5_cost"), include_str!("../../../results/fig5_cost.txt")),
        (env!("CARGO_BIN_EXE_scalability"), include_str!("../../../results/scalability.txt")),
        (env!("CARGO_BIN_EXE_table_routing_size"), include_str!("../../../results/table_routing_size.txt")),
    ];
    for (bin, golden) in bins {
        check_stdout(bin, &[], golden);
    }
}

/// `recovery_timeline --trace-out` writes the committed trace digest: the
/// engine events and the recovery span tree of every timeline.
#[test]
fn recovery_timeline_trace_matches_golden() {
    let trace = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("recovery_timeline.json");
    let trace = trace.to_str().expect("utf-8 path");
    check_stdout(
        env!("CARGO_BIN_EXE_recovery_timeline"),
        &["--trace-out", trace],
        include_str!("../../../results/recovery_timeline.txt"),
    );
    let digest = std::fs::read_to_string(format!("{trace}.digest")).expect("trace digest");
    assert_eq!(digest, include_str!("golden/recovery_timeline.trace.digest"));
}

#[test]
fn bad_flags_exit_2_with_a_message() {
    for args in [["--jobs", "0"], ["--k", "abc"]] {
        let out = run(env!("CARGO_BIN_EXE_chaos_availability"), &args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(args[0]), "message names the flag: {stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}

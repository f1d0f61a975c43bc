//! Golden outputs of the campaign harnesses: `chaos_availability` and
//! `controller_failover` must print exactly the committed bytes in
//! `--mode digest --trials 2` and `--mode demo`, with and without `--json`,
//! at the default k=4. The CI jobs-invariance diffs cannot catch a change
//! that moves the output at every `--jobs` value; this test does.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"))
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
        let out = run(bin, args);
        assert!(out.status.success(), "{bin} {args:?} failed: {out:?}");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
        assert_eq!(stdout, golden(name), "{bin} {args:?} drifted from golden/{name}");
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
fn bad_flags_exit_2_with_a_message() {
    for args in [["--jobs", "0"], ["--k", "abc"]] {
        let out = run(env!("CARGO_BIN_EXE_chaos_availability"), &args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(args[0]), "message names the flag: {stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}

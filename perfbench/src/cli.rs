//! Command line: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.

use crate::{DEFAULT_SEED, WORKLOADS};

/// Parsed, checked arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Seed of the workload's inputs.
    pub seed: u64,
    /// How long to keep starting trials, seconds (> 0).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Usage text.
pub const USAGE: &str = "usage: perfbench --workload <fig1c|chaos|packet> \
[--seed <u64>] [--seconds <positive number>] [--trace <0|1>]";

/// Parse `argv` (without the program name). `Err` carries the message to
/// print before exiting with code 2.
pub fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!(
                        "unknown workload {value:?}; expected one of {WORKLOADS:?}"
                    ));
                }
                workload = Some(value.clone());
            }
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|_| format!("--seed wants an unsigned integer, got {value:?}"))?;
            }
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds wants a positive number, got {value:?}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse(&argv("--workload chaos --seed 7 --seconds 10 --trace 1")).expect("valid");
        assert_eq!(
            a,
            Args {
                workload: "chaos".into(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            "",
            "--workload",
            "--workload nope",
            "--workload fig1c --seed -1",
            "--workload fig1c --seconds 0",
            "--workload fig1c --seconds nan",
            "--workload fig1c --trace 2",
            "--workload fig1c --jobs 2",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad:?} must be rejected");
        }
    }
}

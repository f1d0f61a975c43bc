//! Minimal command-line parsing shared by the harness binaries.
//!
//! All binaries accept `--k <even>`, `--n <backups>`, `--seed <u64>`,
//! `--trials <count>`, `--mode <str>`, `--jobs <threads>`, `--json` and
//! `--trace-out <path>`; a malformed command line is an [`ArgsError`], and
//! the binaries exit with status 2 and its message. No external parser
//! dependency — the flags are few and uniform.

/// Parsed common arguments with experiment-specific defaults.
#[derive(Clone, Debug)]
pub struct Args {
    /// Fat-tree parameter.
    pub k: usize,
    /// Backups per failure group.
    pub n: usize,
    /// RNG seed.
    pub seed: u64,
    /// Number of trials / scenarios.
    pub trials: usize,
    /// Free-form mode string (binary-specific, e.g. "node"/"link").
    pub mode: String,
    /// Worker threads for independent trials (1 = serial). Results are
    /// byte-identical at any value; see DESIGN.md on the determinism
    /// contract.
    pub jobs: usize,
    /// Emit machine-readable JSON instead of the table.
    pub json: bool,
    /// Write a chrome-trace JSON of the run to this path (binaries that
    /// support tracing also write a deterministic `<path>.digest` text
    /// rendition). `None` = telemetry off (the default, near-zero cost).
    pub trace_out: Option<String>,
}

/// Why a command line was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgsError {
    /// `--help` or `-h`: print the flag list, then exit cleanly.
    Help,
    /// A flag that takes a value came last.
    MissingValue(String),
    /// A value that does not parse or is out of range.
    BadValue {
        /// The flag.
        flag: String,
        /// The rejected value.
        value: String,
        /// What the flag accepts.
        want: &'static str,
    },
    /// A flag no binary knows.
    UnknownFlag(String),
}

impl std::fmt::Display for ArgsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgsError::Help => f.write_str(USAGE),
            ArgsError::MissingValue(flag) => write!(f, "missing value for {flag}"),
            ArgsError::BadValue { flag, value, want } => {
                write!(f, "{flag} wants {want}, got {value:?}")
            }
            ArgsError::UnknownFlag(flag) => write!(f, "unknown flag {flag}; see --help"),
        }
    }
}

impl std::error::Error for ArgsError {}

const USAGE: &str = "flags: --k <even> --n <int> --seed <u64> --trials <int> --mode <str> --jobs <threads> --json --trace-out <path>";

/// Parse `value` as a number satisfying `ok`, or name what `flag` wants.
fn number<T: std::str::FromStr>(
    flag: &str,
    value: String,
    want: &'static str,
    ok: impl Fn(&T) -> bool,
) -> Result<T, ArgsError> {
    match value.parse() {
        Ok(v) if ok(&v) => Ok(v),
        _ => Err(ArgsError::BadValue {
            flag: flag.to_string(),
            value,
            want,
        }),
    }
}

impl Args {
    /// Parse `std::env::args`, starting from the given defaults.
    ///
    /// Exits the process with status 2 and a message on malformed input
    /// (status 0 after printing the flag list for `--help`).
    pub fn parse(defaults: Args) -> Args {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        match Args::try_parse(defaults, &argv) {
            Ok(args) => args,
            Err(ArgsError::Help) => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }

    /// Parse `argv` (without the program name), starting from the given
    /// defaults.
    pub fn try_parse(defaults: Args, argv: &[String]) -> Result<Args, ArgsError> {
        let mut out = defaults;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let flag = flag.as_str();
            let takes_value = matches!(
                flag,
                "--k" | "--n" | "--seed" | "--trials" | "--mode" | "--jobs" | "--trace-out"
            );
            let value = if takes_value {
                it.next()
                    .cloned()
                    .ok_or_else(|| ArgsError::MissingValue(flag.to_string()))?
            } else {
                String::new()
            };
            match flag {
                "--k" => {
                    out.k = number(flag, value, "an even integer >= 4", |k: &usize| {
                        *k >= 4 && k.is_multiple_of(2)
                    })?
                }
                "--n" => out.n = number(flag, value, "an integer", |_| true)?,
                "--seed" => out.seed = number(flag, value, "a u64", |_| true)?,
                "--trials" => out.trials = number(flag, value, "an integer", |_| true)?,
                "--mode" => out.mode = value,
                "--jobs" => out.jobs = number(flag, value, "an integer >= 1", |j: &usize| *j >= 1)?,
                "--json" => out.json = true,
                "--trace-out" => out.trace_out = Some(value),
                "--help" | "-h" => return Err(ArgsError::Help),
                other => return Err(ArgsError::UnknownFlag(other.to_string())),
            }
        }
        Ok(out)
    }

    /// Typical defaults: the paper's k=16 study scale, one backup, seed 42.
    pub fn paper_defaults() -> Args {
        Args {
            k: 16,
            n: 1,
            seed: 42,
            trials: 20,
            mode: String::new(),
            jobs: 1,
            json: false,
            trace_out: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_command_lines_are_typed_errors() {
        let bad = |flag: &str, value: &str, want: &'static str| ArgsError::BadValue {
            flag: flag.to_string(),
            value: value.to_string(),
            want,
        };
        let cases: [(&[&str], ArgsError); 6] = [
            (&["--jobs", "0"], bad("--jobs", "0", "an integer >= 1")),
            (&["--k", "abc"], bad("--k", "abc", "an even integer >= 4")),
            (&["--k", "5"], bad("--k", "5", "an even integer >= 4")),
            (&["--trials", "x"], bad("--trials", "x", "an integer")),
            (&["--json", "--seed"], ArgsError::MissingValue("--seed".to_string())),
            (&["--frobnicate"], ArgsError::UnknownFlag("--frobnicate".to_string())),
        ];
        for (argv, want) in cases {
            let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
            let got = Args::try_parse(Args::paper_defaults(), &argv);
            assert_eq!(got.as_ref().err(), Some(&want), "{argv:?}");
        }
        assert_eq!(
            bad("--k", "5", "an even integer >= 4").to_string(),
            "--k wants an even integer >= 4, got \"5\""
        );
    }

    #[test]
    fn good_command_lines_parse() {
        let argv: Vec<String> = ["--k", "8", "--jobs", "2", "--json", "--mode", "demo"]
            .iter()
            .map(|a| a.to_string())
            .collect();
        let a = Args::try_parse(Args::paper_defaults(), &argv).expect("valid");
        assert_eq!((a.k, a.jobs, a.json, a.mode.as_str()), (8, 2, true, "demo"));
        assert_eq!(a.seed, 42, "untouched flags keep their defaults");
    }

    #[test]
    fn defaults_are_sane() {
        let a = Args::paper_defaults();
        assert_eq!(a.k, 16);
        assert_eq!(a.n, 1);
        assert_eq!(a.jobs, 1);
        assert!(!a.json);
    }
}

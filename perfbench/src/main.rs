//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! runs one workload and prints its metrics as the last line of stdout.

use perfbench::{cli, report, workload};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{}", cli::USAGE);
            std::process::exit(2);
        }
    };
    let Some(mut w) = workload(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload {:?}\n{}",
            args.workload,
            cli::USAGE
        );
        std::process::exit(2);
    };
    let run = report::execute(
        &args.workload,
        args.seed,
        w.as_mut(),
        args.seconds,
        args.trace,
    );
    let line = if args.trace {
        let path = format!("perfbench/out/{}-seed{}.json", args.workload, args.seed);
        let written = std::fs::create_dir_all("perfbench/out").and_then(|()| {
            std::fs::write(&path, report::trace_report(&args.workload, args.seed, &run))
        });
        match written {
            Ok(()) => eprintln!("layer report written to {path}"),
            Err(e) => eprintln!("perfbench: cannot write {path}: {e}"),
        }
        report::result_line(&run, &report::PER_LAYER, &report::per_layer(&run))
    } else {
        report::result_line(&run, &report::END_TO_END, &report::end_to_end(&run))
    };
    println!("{line}");
}

//! Trace-file output shared by the harness binaries' `--trace-out` flag.
//!
//! Two files per run: the chrome-trace JSON at the requested path (open it
//! in <https://ui.perfetto.dev>) and a deterministic text digest at
//! `<path>.digest` (greppable, byte-diffable in CI). Buffers are passed in
//! trial order, so the output is byte-identical at any `--jobs` value.

use sharebackup_telemetry::{chrome_trace, text_digest, TraceBuffer, Tracer};

/// Run `f` with a recording tracer when `tracing` (the off tracer
/// otherwise) and return its result with the recorded buffer. The tracer
/// never leaves the call, so `f` may run on a worker thread.
pub fn traced<R>(tracing: bool, f: impl FnOnce(&Tracer) -> R) -> (R, Option<TraceBuffer>) {
    if !tracing {
        return (f(&Tracer::off()), None);
    }
    let (tracer, sink) = Tracer::recording();
    let out = f(&tracer);
    let buf = sink.borrow_mut().take();
    (out, Some(buf))
}

/// Pair each recorded buffer with its position in `buffers` (its track id
/// in the trace files), skipping runs that recorded nothing.
pub fn indexed_traces<'a>(
    buffers: impl IntoIterator<Item = Option<&'a TraceBuffer>>,
) -> Vec<(u64, &'a TraceBuffer)> {
    buffers
        .into_iter()
        .enumerate()
        .filter_map(|(i, b)| b.map(|b| (u64::try_from(i).unwrap_or(u64::MAX), b)))
        .collect()
}

/// Write the chrome-trace JSON to `path` and the text digest to
/// `<path>.digest`, then note both on stderr.
///
/// # Panics
/// Exits the process with an error message if either file cannot be
/// written.
pub fn write_trace_files(path: &str, buffers: &[(u64, &TraceBuffer)]) {
    let json = chrome_trace(buffers);
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("cannot write trace file {path}: {e}");
        std::process::exit(2);
    }
    let digest_path = format!("{path}.digest");
    let digest = text_digest(buffers);
    if let Err(e) = std::fs::write(&digest_path, &digest) {
        eprintln!("cannot write trace digest {digest_path}: {e}");
        std::process::exit(2);
    }
    eprintln!(
        "trace: {path} ({} bytes, load in ui.perfetto.dev) + {digest_path}",
        json.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharebackup_sim::Time;

    #[test]
    fn traced_records_only_when_asked() {
        let span = |t: &Tracer| t.span(Time::ZERO, Time::from_micros(1), "test", "span");
        let ((), off) = traced(false, span);
        assert!(off.is_none());
        let ((), on) = traced(true, span);
        let on = on.expect("recorded");
        assert_eq!(on.spans_in("test").len(), 1);
        let pairs = indexed_traces([None, Some(&on)]);
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].0, 1, "track id is the run's position");
    }

    #[test]
    fn writes_both_files() {
        let ((), buf) = traced(true, |tracer| {
            tracer.span(
                Time::from_micros(1),
                Time::from_micros(5),
                "test",
                "span",
            )
        });
        let buf = buf.expect("recorded");
        let dir = std::env::temp_dir().join("sharebackup-trace-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("out.json");
        let path = path.to_str().expect("utf-8 tmp path");
        write_trace_files(path, &[(0, &buf)]);
        let json = std::fs::read_to_string(path).expect("json written");
        assert!(json.contains("traceEvents"));
        let digest = std::fs::read_to_string(format!("{path}.digest")).expect("digest");
        assert!(digest.contains("== trace 0"));
    }
}

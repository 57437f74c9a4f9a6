//! `bgtop` — live state monitor for running benchmarks.
//!
//! Usage: `bgtop <monitor.jsonl> [--once] [--sessions] [--interval-ms <n>]
//! [--deadline-ms <n>]`
//!
//! Attach a benchmark with `--monitor-out <path>` (or point at a
//! `bgserve --monitor-out` stream); the writer publishes one JSON line
//! per finished work unit (shard, kernel, message size, service job).
//! `bgtop` tails that file and renders the most recent snapshot as a
//! per-subsystem cycle-accounting table and machine-wide totals. With
//! `--once` it waits (up to the deadline) for the first complete frame,
//! renders it, and exits (the CI demo mode); otherwise it polls until
//! the snapshot reports all units done. `--sessions` additionally
//! renders the embedded state-monitor tree (`bgserve`'s live
//! `server → sessions/<id> → jobs/<id>` view) under each frame.
//!
//! Robustness rules, in order:
//! * a torn final line (a writer mid-append on a non-atomic filesystem)
//!   is skipped in favor of the last complete one — the parser returns
//!   errors instead of panicking;
//! * a line that parses but lacks numeric `seq`/`total` is *not* a
//!   snapshot: it is skipped with a stderr warning (it used to default
//!   `seq` to 0 and render the same stale frame forever);
//! * if no new snapshot appears within `--deadline-ms` (default
//!   30 000), `bgtop` exits nonzero instead of looping — a typo'd path,
//!   a dead writer, or a seq-less stream cannot hang a CI job.
//!
//! An unknown or repeated flag, a missing or non-numeric value, or a
//! second path is a usage error (exit 2).

use bench::cli::tokenize;
use bench::monitor::{last_snapshot, malformed_snapshots, render_snapshot, render_state};

struct Args {
    path: std::path::PathBuf,
    once: bool,
    sessions: bool,
    interval_ms: u64,
    deadline_ms: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: bgtop <monitor.jsonl> [--once] [--sessions] [--interval-ms <n>] [--deadline-ms <n>]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let t = tokenize(
        std::env::args().skip(1),
        &["--interval-ms", "--deadline-ms"],
        &["--once", "--sessions"],
    )
    .unwrap_or_else(|e| {
        eprintln!("bgtop: {e}");
        usage()
    });
    let [path] = &t.rest[..] else { usage() };
    let ms = |flag: &str, default: u64| match t.value(flag) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| usage()),
    };
    Args {
        path: std::path::PathBuf::from(path),
        once: t.has("--once"),
        sessions: t.has("--sessions"),
        interval_ms: ms("--interval-ms", 500),
        deadline_ms: ms("--deadline-ms", 30_000),
    }
}

fn main() {
    let args = parse_args();
    let mut last_seq = -1.0f64;
    let mut waited_ms = 0u64;
    let mut warned_malformed = 0usize;
    loop {
        let text = std::fs::read_to_string(&args.path).unwrap_or_default();
        let malformed = malformed_snapshots(&text);
        if malformed > warned_malformed {
            eprintln!(
                "bgtop: skipping {} line(s) in {} missing numeric seq/total",
                malformed - warned_malformed,
                args.path.display()
            );
            warned_malformed = malformed;
        }
        match last_snapshot(&text) {
            Some(snap) => {
                // last_snapshot only returns lines with numeric
                // seq/total, so these lookups cannot silently default.
                let seq = snap.path_num(&["seq"]).unwrap_or(0.0);
                let fresh = seq != last_seq;
                if fresh {
                    last_seq = seq;
                    waited_ms = 0;
                    print!("{}", render_snapshot(&snap));
                    if args.sessions {
                        match snap.get("state") {
                            Some(state) => print!("\nsessions:\n{}", render_state(state)),
                            None => println!("\nsessions: (no state tree in this stream)"),
                        }
                    }
                    println!();
                }
                let done = snap.path_num(&["done"]).unwrap_or(0.0);
                let total = snap.path_num(&["total"]).unwrap_or(f64::INFINITY);
                if args.once || (total.is_finite() && done >= total) {
                    return;
                }
                if !fresh {
                    waited_ms += args.interval_ms;
                    if waited_ms > args.deadline_ms {
                        eprintln!(
                            "bgtop: no new snapshot in {} within {} ms (last seq {}); \
                             writer stalled or stream is stuck",
                            args.path.display(),
                            args.deadline_ms,
                            seq
                        );
                        std::process::exit(1);
                    }
                }
            }
            None => {
                // File absent, still empty, or all lines skipped: keep
                // waiting up to the deadline so a typo'd path or a
                // seq-less stream cannot hang forever. `--once` waits
                // here too — it used to exit(1) immediately, so a
                // one-shot render racing a live writer showed nothing;
                // now it renders the first complete frame, then exits.
                waited_ms += args.interval_ms;
                if waited_ms > args.deadline_ms {
                    eprintln!(
                        "bgtop: no renderable snapshot appeared in {} within {} ms",
                        args.path.display(),
                        args.deadline_ms
                    );
                    std::process::exit(1);
                }
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(args.interval_ms.max(50)));
    }
}

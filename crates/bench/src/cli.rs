//! Minimal flag parsing shared by every benchmark binary.
//!
//! All 14 bins accept the same observability flags on top of their
//! positional arguments:
//!
//! * `--stats-out <path>` — write the run's [`crate::report::Report`]
//!   to a file (`.txt` extension selects the gem5-style flat format,
//!   anything else JSON);
//! * `--json` — print the report as JSON on stdout (or force JSON for a
//!   `.txt` stats path);
//! * `--trace-out <path>` — where a bin records tracepoints, write the
//!   Chrome/Perfetto trace-event JSON there;
//! * `--monitor-out <path>` — append live-progress snapshots (JSON
//!   lines) there while the bin runs; `bgtop <path>` tails the file and
//!   renders a per-node/per-subsystem view. Host-side observability
//!   only — simulated results are unaffected;
//! * `--force` — allow `--stats-out`/`--trace-out` to overwrite an
//!   existing file (refused otherwise, so a rerun cannot silently
//!   clobber a previous run's evidence);
//! * `--threads <n>` — host worker threads for bins that shard their
//!   independent simulations across a pool (`bench::par`). Results are
//!   bit-identical for any value; 1 (the default) runs inline. Zero is
//!   rejected — an accidental `--threads 0` used to be silently clamped
//!   to 1, masking the typo.
//! * `--no-fast-path` — disable the digest-identical event-reduction
//!   fast path (`MachineConfig::fast_path`); used to baseline its
//!   speedup and to cross-check trace digests against the heap path.
//! * `--fault-seed <u64>` — derive a survivable fault schedule from the
//!   seed ([`bgsim::fault::FaultSchedule::from_seed`]);
//! * `--fault-script <path>` — load an explicit fault schedule
//!   (`<cycle> <node> <kind> [arg]` lines). Mutually exclusive with
//!   `--fault-seed`.
//!
//! Bad flag input is a usage error: message on stderr, exit code 2 —
//! never a panic (`Cli::parse_from` returns the error for callers that
//! want to handle it themselves, e.g. tests). Repeating a
//! value-carrying flag (`--stats-out a --stats-out b`) is rejected the
//! same way instead of silently keeping the last value, and so is any
//! `--` argument not listed above: a misspelled or retired flag must
//! not silently fall back to the default run.
//!
//! Hand-rolled because the workspace carries no external CLI dependency.

use std::path::PathBuf;

#[derive(Clone, Debug)]
pub struct Cli {
    pub stats_out: Option<PathBuf>,
    pub json: bool,
    pub trace_out: Option<PathBuf>,
    /// Live-monitor snapshot file (`--monitor-out`), read by `bgtop`.
    pub monitor_out: Option<PathBuf>,
    /// Allow output flags to overwrite existing files.
    pub force: bool,
    /// Host worker threads for sharded bins (>= 1; 1 = inline).
    pub threads: usize,
    /// Event-reduction fast path (on unless `--no-fast-path`).
    pub fast_path: bool,
    /// Seeded fault schedule (`--fault-seed`).
    pub fault_seed: Option<u64>,
    /// Explicit fault schedule file (`--fault-script`).
    pub fault_script: Option<PathBuf>,
    /// Positional arguments, in order (bins parse their own).
    pub rest: Vec<String>,
}

impl Default for Cli {
    fn default() -> Cli {
        Cli {
            stats_out: None,
            json: false,
            trace_out: None,
            monitor_out: None,
            force: false,
            threads: 1,
            fast_path: true,
            fault_seed: None,
            fault_script: None,
            rest: Vec::new(),
        }
    }
}

impl Cli {
    /// Parse the process arguments (skipping argv[0]). A malformed flag
    /// is a usage error: message on stderr, exit code 2.
    pub fn parse() -> Cli {
        match Self::parse_from(std::env::args().skip(1)) {
            Ok(cli) => cli,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }

    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli::default();
        let mut it = args.into_iter();
        // Value-carrying flags may appear at most once. Letting a
        // repeated `--stats-out a --stats-out b` silently take the last
        // value hid real mistakes (a CI script concatenating flag sets
        // clobbered its own output path); repetition is now a usage
        // error, consistent with the `--threads 0` and malformed
        // `--fault-script` rejections. Boolean toggles stay idempotent.
        let mut seen: Vec<&'static str> = Vec::new();
        let mut once = move |name: &'static str| -> Result<(), String> {
            if seen.contains(&name) {
                return Err(format!(
                    "duplicate {name} flag: it may be given at most once \
                     (an earlier value would be silently overridden)"
                ));
            }
            seen.push(name);
            Ok(())
        };
        while let Some(a) = it.next() {
            let mut flag_with_value =
                |prefix: &str, inline: Option<&str>| -> Result<PathBuf, String> {
                    match inline {
                        Some(v) => Ok(PathBuf::from(v)),
                        None => it
                            .next()
                            .map(PathBuf::from)
                            .ok_or_else(|| format!("{prefix} requires a value")),
                    }
                };
            if a == "--json" {
                cli.json = true;
            } else if a == "--force" {
                cli.force = true;
            } else if a == "--no-fast-path" {
                cli.fast_path = false;
            } else if a == "--stats-out" || a.starts_with("--stats-out=") {
                once("--stats-out")?;
                cli.stats_out = Some(flag_with_value(
                    "--stats-out",
                    a.strip_prefix("--stats-out="),
                )?);
            } else if a == "--trace-out" || a.starts_with("--trace-out=") {
                once("--trace-out")?;
                cli.trace_out = Some(flag_with_value(
                    "--trace-out",
                    a.strip_prefix("--trace-out="),
                )?);
            } else if a == "--monitor-out" || a.starts_with("--monitor-out=") {
                once("--monitor-out")?;
                cli.monitor_out = Some(flag_with_value(
                    "--monitor-out",
                    a.strip_prefix("--monitor-out="),
                )?);
            } else if a == "--threads" || a.starts_with("--threads=") {
                once("--threads")?;
                let v = flag_with_value("--threads", a.strip_prefix("--threads="))?;
                let s = v.to_string_lossy();
                let n: usize = s
                    .parse()
                    .map_err(|_| format!("--threads requires a positive integer, got {s:?}"))?;
                if n == 0 {
                    return Err("--threads must be at least 1 (got 0)".to_string());
                }
                cli.threads = n;
            } else if a == "--fault-seed" || a.starts_with("--fault-seed=") {
                once("--fault-seed")?;
                let v = flag_with_value("--fault-seed", a.strip_prefix("--fault-seed="))?;
                let s = v.to_string_lossy();
                let n: u64 = s
                    .parse()
                    .map_err(|_| format!("--fault-seed requires an unsigned integer, got {s:?}"))?;
                cli.fault_seed = Some(n);
            } else if a == "--fault-script" || a.starts_with("--fault-script=") {
                once("--fault-script")?;
                cli.fault_script = Some(flag_with_value(
                    "--fault-script",
                    a.strip_prefix("--fault-script="),
                )?);
            } else if a.starts_with("--") {
                return Err(format!(
                    "unknown flag {a:?} (known: --stats-out, --json, --trace-out, \
                     --monitor-out, --force, --threads, --no-fast-path, --fault-seed, \
                     --fault-script)"
                ));
            } else {
                cli.rest.push(a);
            }
        }
        Ok(cli)
    }

    /// Resolve the fault flags into a [`bgsim::fault::FaultSpec`]. Bad
    /// input (both flags at once, unreadable or unparsable script) is a
    /// usage error: message on stderr, exit code 2.
    pub fn fault_spec(&self) -> bgsim::fault::FaultSpec {
        use bgsim::fault::{FaultSchedule, FaultSpec};
        match (self.fault_seed, &self.fault_script) {
            (Some(_), Some(_)) => {
                eprintln!("error: --fault-seed and --fault-script are mutually exclusive");
                std::process::exit(2);
            }
            (Some(seed), None) => FaultSpec::Seed(seed),
            (None, Some(path)) => {
                let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                    eprintln!("error: reading {}: {e}", path.display());
                    std::process::exit(2);
                });
                let sched = FaultSchedule::parse(&text).unwrap_or_else(|e| {
                    eprintln!("error: {}: {e}", path.display());
                    std::process::exit(2);
                });
                FaultSpec::Explicit(sched)
            }
            (None, None) => FaultSpec::None,
        }
    }

    /// [`Cli::fault_spec`] for a bin that knows its machine size:
    /// additionally rejects explicit scripts naming a node the machine
    /// does not have (exit 2 with the offending id), instead of letting
    /// the out-of-range id panic deep in machine construction.
    pub fn fault_spec_for(&self, nodes: u32) -> bgsim::fault::FaultSpec {
        let spec = self.fault_spec();
        if let bgsim::fault::FaultSpec::Explicit(sched) = &spec {
            if let Err(e) = sched.check_nodes(nodes) {
                eprintln!("error: --fault-script: {e}");
                std::process::exit(2);
            }
        }
        spec
    }

    /// Positional argument `i` parsed as a number, for the bins whose
    /// first argument overrides a sample/iteration count.
    pub fn pos<T: std::str::FromStr>(&self, i: usize) -> Option<T> {
        self.rest.get(i).and_then(|s| s.parse().ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Cli {
        Cli::parse_from(args.iter().map(|s| s.to_string())).expect("args parse")
    }

    fn parse_err(args: &[&str]) -> String {
        Cli::parse_from(args.iter().map(|s| s.to_string())).expect_err("args should be rejected")
    }

    #[test]
    fn parses_flags_and_positionals() {
        let c = parse(&["500", "--stats-out", "out.json", "--json", "7"]);
        assert_eq!(
            c.stats_out.as_deref(),
            Some(std::path::Path::new("out.json"))
        );
        assert!(c.json);
        assert_eq!(c.rest, vec!["500", "7"]);
        assert_eq!(c.pos::<u32>(0), Some(500));
        assert_eq!(c.pos::<u32>(1), Some(7));
        assert_eq!(c.pos::<u32>(2), None);
    }

    #[test]
    fn parses_equals_form() {
        let c = parse(&["--stats-out=s.txt", "--trace-out=t.json"]);
        assert_eq!(c.stats_out.as_deref(), Some(std::path::Path::new("s.txt")));
        assert_eq!(c.trace_out.as_deref(), Some(std::path::Path::new("t.json")));
        assert!(!c.json);
        assert!(!c.force);
    }

    #[test]
    fn parses_monitor_out() {
        assert_eq!(parse(&[]).monitor_out, None);
        let c = parse(&["--monitor-out", "m.jsonl"]);
        assert_eq!(
            c.monitor_out.as_deref(),
            Some(std::path::Path::new("m.jsonl"))
        );
        let c = parse(&["--monitor-out=m2.jsonl"]);
        assert_eq!(
            c.monitor_out.as_deref(),
            Some(std::path::Path::new("m2.jsonl"))
        );
        let e = parse_err(&["--monitor-out"]);
        assert!(e.contains("--monitor-out requires a value"), "{e}");
    }

    #[test]
    fn missing_value_is_an_error_not_a_panic() {
        let e = parse_err(&["--stats-out"]);
        assert!(e.contains("--stats-out requires a value"), "{e}");
        let e = parse_err(&["--trace-out"]);
        assert!(e.contains("--trace-out requires a value"), "{e}");
        let e = parse_err(&["--threads"]);
        assert!(e.contains("--threads requires a value"), "{e}");
    }

    #[test]
    fn parses_fast_path_toggle() {
        assert!(parse(&[]).fast_path);
        assert!(!parse(&["--no-fast-path"]).fast_path);
    }

    #[test]
    fn parses_force() {
        assert!(!parse(&[]).force);
        assert!(parse(&["--force"]).force);
    }

    #[test]
    fn parses_threads() {
        assert_eq!(parse(&[]).threads, 1);
        assert_eq!(parse(&["--threads", "4"]).threads, 4);
        assert_eq!(parse(&["--threads=8"]).threads, 8);
    }

    #[test]
    fn rejects_zero_and_garbage_threads() {
        // 0 used to clamp silently to 1; it is now a usage error.
        let e = parse_err(&["--threads", "0"]);
        assert!(e.contains("at least 1"), "{e}");
        let e = parse_err(&["--threads", "four"]);
        assert!(e.contains("positive integer"), "{e}");
        let e = parse_err(&["--threads=-2"]);
        assert!(e.contains("positive integer"), "{e}");
    }

    #[test]
    fn rejects_unknown_flags() {
        // An unknown flag must not land in `rest`, where `pos` would
        // skip it and the run would silently take the default path.
        for (args, flag) in [
            (&["--engine", "heap"][..], "--engine"),
            (&["--no-closed-form-noise"][..], "--no-closed-form-noise"),
            (&["--compact-min-dead", "8"][..], "--compact-min-dead"),
            (&["--no-fast-paht"][..], "--no-fast-paht"),
        ] {
            let e = parse_err(args);
            assert!(e.contains(&format!("unknown flag \"{flag}\"")), "{e}");
        }
        // Bare positionals still parse: fig_scale's node counts,
        // io_noise's sample count.
        assert_eq!(parse(&["64", "512"]).rest, vec!["64", "512"]);
        assert_eq!(
            parse(&["800", "--fault-seed", "13"]).pos::<u32>(0),
            Some(800)
        );
    }

    #[test]
    fn rejects_garbage_fault_seed() {
        let e = parse_err(&["--fault-seed", "0x13"]);
        assert!(e.contains("unsigned integer"), "{e}");
    }

    #[test]
    fn rejects_duplicate_value_flags() {
        // Last-value-wins used to silently drop the first path.
        let e = parse_err(&["--stats-out", "a.json", "--stats-out", "b.json"]);
        assert!(e.contains("duplicate --stats-out"), "{e}");
        // Mixed spellings of the same flag are still duplicates.
        let e = parse_err(&["--trace-out=t.json", "--trace-out", "u.json"]);
        assert!(e.contains("duplicate --trace-out"), "{e}");
        let e = parse_err(&["--monitor-out", "m", "--monitor-out", "n"]);
        assert!(e.contains("duplicate --monitor-out"), "{e}");
        let e = parse_err(&["--threads", "2", "--threads=4"]);
        assert!(e.contains("duplicate --threads"), "{e}");
        let e = parse_err(&["--fault-seed", "1", "--fault-seed", "2"]);
        assert!(e.contains("duplicate --fault-seed"), "{e}");
        let e = parse_err(&["--fault-script", "a", "--fault-script", "b"]);
        assert!(e.contains("duplicate --fault-script"), "{e}");
        // Boolean toggles stay idempotent (repeating them is harmless).
        let c = parse(&["--json", "--json", "--force", "--force", "--no-fast-path"]);
        assert!(c.json && c.force && !c.fast_path);
    }
}

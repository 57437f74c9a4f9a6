//! The `bgbench` command line: `bgbench <experiment> [positional] [flags]`.
//!
//! The output flags apply to every experiment:
//!
//! * `--stats-out <path>` — write the run's [`crate::report::Report`]
//!   to a file (`.txt` extension selects the gem5-style flat format,
//!   anything else JSON);
//! * `--json` — print the report as JSON on stdout (or force JSON for a
//!   `.txt` stats path);
//! * `--trace-out <path>` — keep the traced runs' event streams and
//!   write every event of them there as Chrome/Perfetto trace-event
//!   JSON (without the flag no run keeps its entries);
//! * `--force` — allow `--stats-out`/`--trace-out`/`--monitor-out` to
//!   overwrite an existing file (refused otherwise, so a rerun cannot
//!   silently clobber a previous run's evidence).
//!
//! The others are accepted only by the experiments that use them (the
//! `flags` column of [`crate::experiments::EXPERIMENTS`]); any other
//! experiment refuses them:
//!
//! * `--threads <n>` — host worker threads for the experiments that
//!   shard their independent simulations across a pool
//!   (`bench::par`). Results are bit-identical for any value; 1 (the
//!   default) runs inline. Zero is rejected;
//! * `--no-fast-path` — disable the digest-identical event-reduction
//!   fast path (`MachineConfig::fast_path`); used to baseline its
//!   speedup and to cross-check trace digests against the heap path;
//! * `--fault-seed <u64>` — derive a survivable fault schedule from the
//!   seed ([`bgsim::fault::FaultSchedule::from_seed`]);
//! * `--fault-script <path>` — load an explicit fault schedule
//!   (`<cycle> <node> <kind> [arg]` lines). Mutually exclusive with
//!   `--fault-seed`;
//! * `--monitor-out <path>` — append live-progress snapshots (JSON
//!   lines) there while the experiment runs; `bgtop <path>` tails the
//!   file. Host-side observability only — simulated results are
//!   unaffected.
//!
//! Bad input is a usage error: message on stderr, exit code 2 — never a
//! panic ([`Command::parse_from`] returns the error for callers that
//! want to handle it themselves, e.g. tests). That covers a missing or
//! unknown experiment, a positional value the experiment does not
//! declare, a repeated value-carrying flag (`--stats-out a --stats-out
//! b`), and any `--` argument not listed above: a misspelled or retired
//! flag must not silently fall back to the default run.
//!
//! Hand-rolled because the workspace carries no external CLI dependency.
//! [`tokenize`] is the flag splitter every binary of the workspace
//! shares (`bgbench`, `bgtop`, `bgcheck`, `bgserve`): a value flag at
//! most once, toggles idempotent, positionals in order.

use std::ops::RangeInclusive;
use std::path::PathBuf;

use crate::experiments::{Experiment, EXPERIMENTS};

/// A command line split by [`tokenize`].
#[derive(Debug, Default)]
pub struct Tokens {
    /// The flags given, each once, in order.
    pub given: Vec<&'static str>,
    /// Each value flag given, with its value.
    pub values: Vec<(&'static str, String)>,
    /// Positional arguments, in order.
    pub rest: Vec<String>,
}

impl Tokens {
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    pub fn has(&self, flag: &str) -> bool {
        self.given.contains(&flag)
    }
}

/// Why [`tokenize`] refused a command line.
#[derive(Debug)]
pub enum FlagError {
    /// A `--` argument that is no known flag, or a toggle given a value.
    Unknown(String),
    /// A value flag given twice.
    Duplicate(&'static str),
    /// A value flag with no value after it.
    Missing(&'static str),
}

impl std::fmt::Display for FlagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlagError::Unknown(a) => write!(f, "unknown flag {a:?}"),
            // Letting a repeated `--stats-out a --stats-out b` silently
            // take the last value hid real mistakes (a CI script
            // concatenating flag sets clobbered its own output path).
            FlagError::Duplicate(flag) => write!(
                f,
                "duplicate {flag} flag: it may be given at most once \
                 (an earlier value would be silently overridden)"
            ),
            FlagError::Missing(flag) => write!(f, "{flag} requires a value"),
        }
    }
}

/// Split `args` into flags and positionals. Each of `values` takes one
/// value (`--flag v` or `--flag=v`) and may be given at most once; each
/// of `toggles` takes none and may be repeated. Any other argument that
/// starts with `--` is unknown; the rest are positionals.
pub fn tokenize(
    args: impl IntoIterator<Item = String>,
    values: &[&'static str],
    toggles: &[&'static str],
) -> Result<Tokens, FlagError> {
    let mut t = Tokens::default();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if !a.starts_with("--") {
            t.rest.push(a);
            continue;
        }
        let (name, inline) = match a.split_once('=') {
            Some((name, v)) => (name, Some(v.to_string())),
            None => (a.as_str(), None),
        };
        if let Some(&flag) = toggles.iter().find(|&&f| f == name) {
            if inline.is_some() {
                return Err(FlagError::Unknown(a));
            }
            if !t.has(flag) {
                t.given.push(flag);
            }
            continue;
        }
        let Some(&flag) = values.iter().find(|&&f| f == name) else {
            return Err(FlagError::Unknown(a));
        };
        if t.has(flag) {
            return Err(FlagError::Duplicate(flag));
        }
        t.given.push(flag);
        let v = match inline {
            Some(v) => v,
            None => it.next().ok_or(FlagError::Missing(flag))?,
        };
        t.values.push((flag, v));
    }
    Ok(t)
}

/// Every flag the runner knows; the first four apply to every
/// experiment.
const FLAGS: [&str; 9] = [
    "--stats-out",
    "--json",
    "--trace-out",
    "--force",
    "--threads",
    "--no-fast-path",
    "--fault-seed",
    "--fault-script",
    "--monitor-out",
];

/// The flags of [`FLAGS`] that take no value.
const TOGGLES: [&str; 3] = ["--json", "--force", "--no-fast-path"];

#[derive(Clone, Debug)]
pub struct Cli {
    pub stats_out: Option<PathBuf>,
    pub json: bool,
    pub trace_out: Option<PathBuf>,
    /// Live-monitor snapshot file (`--monitor-out`), read by `bgtop`.
    pub monitor_out: Option<PathBuf>,
    /// Allow output flags to overwrite existing files.
    pub force: bool,
    /// Host worker threads for sharded experiments (>= 1; 1 = inline).
    pub threads: usize,
    /// Event-reduction fast path (on unless `--no-fast-path`).
    pub fast_path: bool,
    /// Seeded fault schedule (`--fault-seed`).
    pub fault_seed: Option<u64>,
    /// Explicit fault schedule file (`--fault-script`).
    pub fault_script: Option<PathBuf>,
    /// Positional arguments, in order.
    pub rest: Vec<String>,
    /// The flags given, each once, in order.
    pub given: Vec<&'static str>,
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
            given: Vec::new(),
        }
    }
}

impl Cli {
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
        let values: Vec<&'static str> =
            FLAGS.into_iter().filter(|f| !TOGGLES.contains(f)).collect();
        let t = tokenize(args, &values, &TOGGLES).map_err(|e| match e {
            FlagError::Unknown(_) => format!("{e} (known: {})", FLAGS.join(", ")),
            e => e.to_string(),
        })?;
        let mut cli = Cli {
            json: t.has("--json"),
            force: t.has("--force"),
            fast_path: !t.has("--no-fast-path"),
            rest: t.rest,
            given: t.given,
            ..Cli::default()
        };
        for (flag, v) in t.values {
            match flag {
                "--stats-out" => cli.stats_out = Some(v.into()),
                "--trace-out" => cli.trace_out = Some(v.into()),
                "--monitor-out" => cli.monitor_out = Some(v.into()),
                "--fault-script" => cli.fault_script = Some(v.into()),
                "--threads" => {
                    cli.threads = v
                        .parse()
                        .map_err(|_| format!("--threads requires a positive integer, got {v:?}"))?;
                    if cli.threads == 0 {
                        return Err("--threads must be at least 1 (got 0)".to_string());
                    }
                }
                _ => {
                    cli.fault_seed = Some(v.parse().map_err(|_| {
                        format!("--fault-seed requires an unsigned integer, got {v:?}")
                    })?);
                }
            }
        }
        Ok(cli)
    }

    /// Resolve the fault flags into a [`bgsim::fault::FaultSpec`] for an
    /// experiment of `nodes`-node machines. Bad input (both flags at
    /// once, an unreadable or unparsable script, a script naming a node
    /// the machine does not have) is a usage error: message on stderr,
    /// exit code 2 — instead of letting an out-of-range id panic deep in
    /// machine construction.
    pub fn fault_spec_for(&self, nodes: u32) -> bgsim::fault::FaultSpec {
        use bgsim::fault::{FaultSchedule, FaultSpec};
        let fail = |msg: String| -> ! {
            eprintln!("error: {msg}");
            std::process::exit(2);
        };
        match (self.fault_seed, &self.fault_script) {
            (Some(_), Some(_)) => {
                fail("--fault-seed and --fault-script are mutually exclusive".into())
            }
            (Some(seed), None) => FaultSpec::Seed(seed),
            (None, Some(path)) => {
                let text = std::fs::read_to_string(path)
                    .unwrap_or_else(|e| fail(format!("reading {}: {e}", path.display())));
                let sched = FaultSchedule::parse(&text)
                    .unwrap_or_else(|e| fail(format!("{}: {e}", path.display())));
                if let Err(e) = sched.check_nodes(nodes) {
                    fail(format!("--fault-script: {e}"));
                }
                FaultSpec::Explicit(sched)
            }
            (None, None) => FaultSpec::None,
        }
    }
}

/// The positional argument an experiment declares.
pub enum Arg {
    /// It takes none.
    None,
    /// One integer in `range`, `default` when absent; `what` names it
    /// with its article ("a sample count").
    One {
        what: &'static str,
        range: RangeInclusive<u32>,
        default: u32,
    },
    /// One or more node counts, each at least 1; `default` when absent.
    NodeCounts { default: &'static [u32] },
}

impl Arg {
    /// Check `rest` (underscores allowed as digit separators) and fill
    /// in the default. The error names the experiment and the value.
    pub fn parse(&self, experiment: &str, rest: &[String]) -> Result<Vec<u32>, String> {
        let (expected, range, default) = match self {
            Arg::None => {
                return match rest.first() {
                    Some(v) => Err(format!(
                        "{experiment} takes no positional argument, got {v:?}"
                    )),
                    None => Ok(Vec::new()),
                };
            }
            Arg::One {
                what,
                range,
                default,
            } => {
                let expected = if *range.end() == u32::MAX {
                    format!("{what} of at least {}", range.start())
                } else {
                    format!("{what} in {}..={}", range.start(), range.end())
                };
                if let [_, extra, ..] = rest {
                    return Err(format!(
                        "{experiment} expects {expected}, got an extra argument {extra:?}"
                    ));
                }
                (expected, range.clone(), std::slice::from_ref(default))
            }
            Arg::NodeCounts { default } => (
                "node counts of at least 1".to_string(),
                1..=u32::MAX,
                *default,
            ),
        };
        if rest.is_empty() {
            return Ok(default.to_vec());
        }
        let mut values = Vec::with_capacity(rest.len());
        for v in rest {
            match v.replace('_', "").parse::<u32>() {
                // A repeated node count would repeat its report keys.
                Ok(n) if values.contains(&n) => {
                    return Err(format!("{experiment} got {v:?} twice"));
                }
                Ok(n) if range.contains(&n) => values.push(n),
                _ => return Err(format!("{experiment} expects {expected}, got {v:?}")),
            }
        }
        Ok(values)
    }
}

/// A checked `bgbench` invocation.
pub struct Command {
    pub experiment: &'static Experiment,
    /// The positional values, with the experiment's default filled in.
    pub args: Vec<u32>,
    pub cli: Cli,
}

impl Command {
    /// Parse the process arguments (skipping argv[0]). A usage error
    /// goes to stderr with exit code 2.
    pub fn parse() -> Command {
        Command::parse_from(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
        let mut args = args.into_iter();
        let names = || {
            let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
            names.join(", ")
        };
        let Some(name) = args.next() else {
            return Err(format!(
                "usage: bgbench <experiment> [positional] [flags]; experiments: {}",
                names()
            ));
        };
        let Some(experiment) = EXPERIMENTS.iter().find(|e| e.name == name) else {
            return Err(format!(
                "unknown experiment {name:?}; experiments: {}",
                names()
            ));
        };
        let cli = Cli::parse_from(args)?;
        if let Some(flag) = cli
            .given
            .iter()
            .find(|&f| !FLAGS[..4].contains(f) && !experiment.flags.contains(f))
        {
            return Err(format!("{name} does not take {flag}"));
        }
        let args = experiment.arg.parse(&name, &cli.rest)?;
        Ok(Command {
            experiment,
            args,
            cli,
        })
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

    fn command(args: &[&str]) -> Result<Command, String> {
        Command::parse_from(args.iter().map(|s| s.to_string()))
    }

    fn command_err(args: &[&str]) -> String {
        command(args).err().expect("command should be rejected")
    }

    /// The positionals as node counts (any number of integers).
    fn counts(c: &Cli) -> Result<Vec<u32>, String> {
        Arg::NodeCounts { default: &[] }.parse("fig_scale", &c.rest)
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
        assert_eq!(counts(&c), Ok(vec![500, 7]));
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
        // An unknown flag must not land in `rest`, where it would be
        // skipped and the run would silently take the default path.
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
        let c = command(&["io_noise", "800", "--fault-seed", "13"]).expect("parses");
        assert_eq!(c.args, vec![800]);
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

    #[test]
    fn experiment_name_is_required_and_known() {
        for args in [&[][..], &["fig9"][..], &["--json"][..]] {
            let e = command_err(args);
            for exp in &EXPERIMENTS {
                assert!(e.contains(exp.name), "{e}");
            }
        }
        assert!(command_err(&["fig9"]).contains("unknown experiment \"fig9\""));
        let c = command(&["fig8_throughput", "--threads", "2"]).expect("parses");
        assert_eq!(c.experiment.name, "fig8_throughput");
        assert_eq!(c.cli.threads, 2);
    }

    #[test]
    fn flags_are_refused_by_experiments_that_ignore_them() {
        for (exp, flag) in [
            ("table1_latency", "--fault-seed"),
            ("table1_latency", "--threads"),
            ("io_noise", "--threads"),
            ("stability_allreduce", "--no-fast-path"),
            ("fig_scale", "--monitor-out"),
            ("boot_time", "--fault-script"),
        ] {
            let value: &[&str] = match flag {
                "--no-fast-path" => &[],
                "--threads" | "--fault-seed" => &["2"],
                _ => &["x"],
            };
            let args: Vec<&str> = [exp, flag]
                .into_iter()
                .chain(value.iter().copied())
                .collect();
            let e = command_err(&args);
            assert_eq!(e, format!("{exp} does not take {flag}"));
        }
        // `--threads 1` is still `--threads`: the flag, not its value,
        // is what an experiment refuses.
        let e = command_err(&["table2_3_features", "--threads", "1"]);
        assert!(e.contains("does not take --threads"), "{e}");
        // Output flags apply everywhere.
        for exp in &EXPERIMENTS {
            command(&[
                exp.name,
                "--json",
                "--force",
                "--stats-out",
                "s",
                "--trace-out",
                "t",
            ])
            .expect("output flags are accepted");
        }
        // Each honoured flag is accepted by the experiments listed for it.
        command(&[
            "fig5_7_fwq",
            "--threads",
            "2",
            "--no-fast-path",
            "--fault-seed",
            "3",
        ])
        .expect("fig5_7 honours them");
        command(&[
            "fig8_throughput",
            "--monitor-out",
            "m",
            "--fault-script",
            "f",
        ])
        .expect("fig8 honours them");
        command(&["stability_allreduce", "--threads", "2"]).expect("sharded");
        command(&["fig_scale", "--threads", "2", "--no-fast-path"]).expect("sharded");
        command(&["io_noise", "--fault-script", "f"]).expect("faulted");
    }

    #[test]
    fn positionals_are_checked_against_the_experiment() {
        // Counts of at least 1: with 0 the experiments would summarize
        // empty sample sets or divide by zero.
        for exp in [
            "fig5_7_fwq",
            "io_noise",
            "noise_ablation",
            "noise_injection",
            "stability_linpack",
            "stability_allreduce",
            "fig_scale",
        ] {
            let e = command_err(&[exp, "0"]);
            assert!(e.starts_with(exp) && e.contains("\"0\""), "{e}");
            // An unparsable value must not fall back to the default size.
            let e = command_err(&[exp, "abc"]);
            assert!(e.starts_with(exp) && e.contains("\"abc\""), "{e}");
        }
        // The divisor is capped: 200 000 would leave 0 Linux iterations.
        let e = command_err(&["stability_allreduce", "200000"]);
        assert!(
            e.contains("in 1..=100000") && e.contains("\"200000\""),
            "{e}"
        );
        assert_eq!(
            command(&["stability_allreduce", "100000"]).unwrap().args,
            vec![100_000]
        );
        // Defaults fill in; underscores separate digits.
        assert_eq!(command(&["fig5_7_fwq"]).unwrap().args, vec![12_000]);
        assert_eq!(command(&["stability_allreduce"]).unwrap().args, vec![20]);
        assert_eq!(command(&["stability_linpack", "3"]).unwrap().args, vec![3]);
        assert_eq!(
            command(&["fig_scale"]).unwrap().args,
            vec![64, 1024, 4096, 32_768, 131_072]
        );
        assert_eq!(
            command(&["fig_scale", "64", "131_072"]).unwrap().args,
            vec![64, 131_072]
        );
        let e = command_err(&["fig_scale", "64", "x"]);
        assert!(e.contains("node counts") && e.contains("\"x\""), "{e}");
        // A repeated count would write its scale.nN keys twice.
        let e = command_err(&["fig_scale", "64", "512", "6_4"]);
        assert_eq!(e, "fig_scale got \"6_4\" twice");
        // A single-value experiment takes one value, not two.
        let e = command_err(&["fig5_7_fwq", "100", "200"]);
        assert!(e.contains("extra argument \"200\""), "{e}");
        // An experiment that takes none refuses any.
        for exp in ["table1_latency", "boot_time", "fig8_throughput"] {
            let e = command_err(&[exp, "7"]);
            assert_eq!(e, format!("{exp} takes no positional argument, got \"7\""));
        }
    }
}

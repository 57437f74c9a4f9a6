//! `bgcheck` — differential determinism checker CLI.
//!
//! ```text
//! bgcheck fuzz [--budget N] [--seed S] [--out DIR]   random programs, shrink + save repros
//! bgcheck replay <script> [--record]                 replay one script; --record prints pins
//! bgcheck corpus <dir>                               replay every *.bgck script in a directory
//! bgcheck selftest [--out DIR]                       verify the checker catches its canaries
//! ```
//!
//! `fuzz` reports a coverage-digest novelty count per seed (how many of
//! the run's telemetry-coverage fingerprints were not seen before); on a
//! failure it writes the minimized `.bgck` repro plus the failing run's
//! replayed trace tail. `selftest --out` saves one annotated `.bgck` +
//! trace tail per detected canary.
//!
//! Exit codes: 0 clean, 1 failure found, 2 usage error (an unknown,
//! repeated or valueless flag, or a stray argument, included).

#![deny(clippy::unwrap_used)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use bench::cli::{tokenize, Tokens};
use bgcheck::runner::{mode_labels, run_mode, CheckKernel, MODES};
use bgcheck::{check_program, generate, parse_script, shrink, to_script_with_pins, DigestPin};

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: bgcheck fuzz [--budget N] [--seed S] [--out DIR]\n       \
         bgcheck replay <script> [--record]\n       \
         bgcheck corpus <dir>\n       \
         bgcheck selftest [--out DIR]"
    );
    ExitCode::from(2)
}

fn parse_u64(t: &Tokens, flag: &str, default: u64) -> Result<u64, String> {
    match t.value(flag) {
        None => Ok(default),
        Some(v) => v
            .parse::<u64>()
            .map_err(|_| format!("{flag} requires a number, got {v:?}")),
    }
}

/// Split a subcommand's arguments; it takes at most `positionals`.
fn split(
    sub: &str,
    args: impl Iterator<Item = String>,
    values: &[&'static str],
    toggles: &[&'static str],
    positionals: usize,
) -> Result<Tokens, String> {
    let t = tokenize(args, values, toggles).map_err(|e| e.to_string())?;
    match t.rest.get(positionals) {
        Some(extra) => Err(format!("unexpected {sub} argument {extra:?}")),
        None => Ok(t),
    }
}

fn main() -> ExitCode {
    run().unwrap_or_else(|e| usage(&e))
}

/// Run the subcommand; `Err` is a usage error.
fn run() -> Result<ExitCode, String> {
    let mut args = std::env::args().skip(1);
    Ok(match args.next().as_deref() {
        Some("fuzz") => {
            let t = split("fuzz", args, &["--budget", "--seed", "--out"], &[], 0)?;
            let out = PathBuf::from(t.value("--out").unwrap_or("bgcheck-repro"));
            fuzz(
                parse_u64(&t, "--budget", 25)?,
                parse_u64(&t, "--seed", 1)?,
                &out,
            )
        }
        Some("replay") => {
            let t = split("replay", args, &[], &["--record"], 1)?;
            let path = t.rest.first().ok_or("replay needs a script path")?;
            replay(Path::new(path), t.has("--record"))
        }
        Some("corpus") => {
            let t = split("corpus", args, &[], &[], 1)?;
            let dir = t.rest.first().ok_or("corpus needs a directory")?;
            corpus(Path::new(dir))
        }
        Some("selftest") => {
            let t = split("selftest", args, &["--out"], &[], 0)?;
            let out = t.value("--out").map(PathBuf::from);
            match bgcheck::selftest_with_artifacts(out.as_deref()) {
                Ok(()) => {
                    println!("selftest: clean pass + all canaries detected");
                    if let Some(dir) = &out {
                        println!("selftest: canary repros + trace tails in {}", dir.display());
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("selftest FAILED: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some(other) => return Err(format!("unknown subcommand {other:?}")),
        None => return Err("missing subcommand".to_string()),
    })
}

fn fuzz(budget: u64, seed0: u64, out: &Path) -> ExitCode {
    // Coverage-digest novelty feedback: each run's telemetry coverage
    // fingerprint tells the fuzzer whether a seed exercised machinery no
    // earlier seed touched.
    let mut seen = std::collections::HashSet::new();
    for i in 0..budget {
        let seed = seed0.wrapping_add(i);
        let p = generate(seed);
        match check_program(&p) {
            Ok(recs) => {
                let fresh = recs.iter().filter(|r| seen.insert(r.coverage)).count();
                println!(
                    "seed {seed}: ok ({} node(s), {} op(s), {} fault(s), {fresh} new coverage)",
                    p.nodes,
                    p.ops.len(),
                    p.faults.events.len()
                );
            }
            Err(first) => {
                eprintln!("seed {seed}: FAILED\n{}", first.render());
                eprintln!("shrinking...");
                let min = shrink(&p, |q| check_program(q).is_err(), 60);
                let fail = match check_program(&min) {
                    Err(f) => f,
                    // Shrinker invariant: the result still fails.
                    Ok(_) => first,
                };
                let mut script = to_script_with_pins(&min, &[]);
                script.push_str("# failure:\n");
                for line in fail.render().lines() {
                    script.push_str(&format!("#   {line}\n"));
                }
                if let Err(e) = std::fs::create_dir_all(out) {
                    eprintln!("error: creating {}: {e}", out.display());
                    return ExitCode::FAILURE;
                }
                let file = out.join(format!("fuzz-{seed}.bgck"));
                match std::fs::write(&file, &script) {
                    Ok(()) => eprintln!("minimized repro written to {}", file.display()),
                    Err(e) => eprintln!("error: writing {}: {e}", file.display()),
                }
                if let Some(flight) = &fail.flight {
                    let fpath = out.join(format!("fuzz-{seed}.flight.txt"));
                    match std::fs::write(&fpath, flight) {
                        Ok(()) => eprintln!("replayed trace tail written to {}", fpath.display()),
                        Err(e) => eprintln!("error: writing {}: {e}", fpath.display()),
                    }
                }
                eprintln!("minimized failure:\n{}", fail.render());
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "fuzz: {budget} program(s) checked, no divergence, {} distinct coverage fingerprint(s)",
        seen.len()
    );
    ExitCode::SUCCESS
}

fn replay_file(path: &Path, record: bool) -> Result<(), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let rep = parse_script(&text).map_err(|e| format!("{}: {e}", path.display()))?;

    let records = check_program(&rep.program)
        .map_err(|f| format!("{}: checker failure\n{}", path.display(), f.render()))?;

    if record {
        let mut pins = Vec::new();
        for kernel in CheckKernel::ALL {
            for mode in MODES {
                let rec = run_mode(&rep.program, kernel, mode)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                pins.push(DigestPin {
                    kernel: kernel.label().to_string(),
                    mode: mode.label().to_string(),
                    digest: rec.digest,
                    final_cycle: rec.final_cycle,
                });
            }
        }
        print!("{}", to_script_with_pins(&rep.program, &pins));
        return Ok(());
    }

    for pin in &rep.pins {
        let Some(rec) = records
            .iter()
            .find(|r| r.kernel == pin.kernel && r.mode == pin.mode)
        else {
            return Err(format!(
                "{}: pin for {}/{} has no matching run (kernels: cnk, fwk; modes: {})",
                path.display(),
                pin.kernel,
                pin.mode,
                mode_labels()
            ));
        };
        if rec.digest != pin.digest || rec.final_cycle != pin.final_cycle {
            return Err(format!(
                "{}: {}/{} replayed to digest {:016x} cycle {}, pinned {:016x} cycle {}",
                path.display(),
                pin.kernel,
                pin.mode,
                rec.digest,
                rec.final_cycle,
                pin.digest,
                pin.final_cycle
            ));
        }
    }
    println!(
        "{}: ok ({} mode run(s), {} pin(s) verified)",
        path.display(),
        records.len(),
        rep.pins.len()
    );
    Ok(())
}

fn replay(path: &Path, record: bool) -> ExitCode {
    match replay_file(path, record) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn corpus(dir: &Path) -> ExitCode {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: reading {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "bgck"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        eprintln!("error: no .bgck scripts in {}", dir.display());
        return ExitCode::from(2);
    }
    let mut failed = 0usize;
    for p in &paths {
        if let Err(e) = replay_file(p, false) {
            eprintln!("error: {e}");
            failed += 1;
        }
    }
    if failed > 0 {
        eprintln!("corpus: {failed}/{} script(s) FAILED", paths.len());
        ExitCode::FAILURE
    } else {
        println!("corpus: {} script(s) ok", paths.len());
        ExitCode::SUCCESS
    }
}

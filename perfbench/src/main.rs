//! The repository's benchmark: one workload per process.
//!
//! ```text
//! perfbench --workload paper|scale|serve [--seed N] [--seconds S]
//!           [--trace 0|1] [--bgserve PATH] [--smoke] [--tamper pin|plan]
//! ```
//!
//! `run.py` builds this binary and the shipped `bgserve`, then calls it.
//! The last line of standard output is the result object; the exit code
//! is 1 when any output was wrong, 2 on a usage error.

mod layers;
mod paper;
mod report;
mod scale;
mod serve;
mod sim;
mod stats;
mod trace;

use std::path::PathBuf;

pub struct Opts {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub bgserve: Option<PathBuf>,
    /// Smoke sizes for the benchmark's own test: fewer rounds, a
    /// 4096-node `scale` machine, a 1000-submission `serve` loop.
    pub smoke: bool,
    /// Deliberately wrong expectations, to prove the gate can fail:
    /// a digest pin (`paper`, `scale`) or one planned cache hit (`serve`).
    pub tamper_pin: bool,
    pub tamper_plan: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload paper|scale|serve [--seed N] [--seconds S] \
         [--trace 0|1] [--bgserve PATH] [--smoke] [--tamper pin|plan]"
    );
    std::process::exit(2);
}

fn parse() -> Opts {
    let mut o = Opts {
        workload: "",
        seed: 0,
        seconds: 30.0,
        trace: false,
        bgserve: None,
        smoke: false,
        tamper_pin: false,
        tamper_plan: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--smoke" {
            o.smoke = true;
            continue;
        }
        let v = args
            .next()
            .unwrap_or_else(|| usage(&format!("{a} needs a value")));
        let num = |v: &str| -> f64 {
            v.parse()
                .ok()
                .filter(|x: &f64| x.is_finite() && *x >= 0.0)
                .unwrap_or_else(|| usage(&format!("{a}: not a number: {v:?}")))
        };
        match a.as_str() {
            "--workload" => {
                o.workload = match v.as_str() {
                    "paper" => "paper",
                    "scale" => "scale",
                    "serve" => "serve",
                    _ => usage(&format!("unknown workload {v:?}")),
                }
            }
            "--seed" => {
                o.seed = v
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("bad seed {v:?}")))
            }
            "--seconds" => o.seconds = num(&v),
            "--trace" => {
                o.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--bgserve" => o.bgserve = Some(PathBuf::from(v)),
            "--tamper" => match v.as_str() {
                "pin" => o.tamper_pin = true,
                "plan" => o.tamper_plan = true,
                _ => usage("--tamper takes pin or plan"),
            },
            _ => usage(&format!("unknown flag {a}")),
        }
    }
    if o.workload.is_empty() {
        usage("--workload is required");
    }
    o
}

fn main() {
    let o = parse();
    let mut rep = report::Report::new(o.workload, o.trace);
    let mut tr = trace::Tracer::new();
    match o.workload {
        "paper" => paper::run(&o, &mut rep, &mut tr),
        "scale" => scale::run(&o, &mut rep, &mut tr),
        _ => serve::run(&o, &mut rep, &mut tr),
    }
    if rep.attempted == 0 {
        eprintln!("perfbench: {}: nothing ran", o.workload);
        std::process::exit(1);
    }
    if o.trace {
        let path = PathBuf::from(format!(".perfbench/spans-{}.json", o.workload));
        match tr.write(&path, o.workload, o.seed) {
            Ok(()) => rep.lines.push(format!(
                "[{}] spans: {} written to {}",
                o.workload,
                tr.len(),
                path.display()
            )),
            Err(e) => rep.check(Some(format!("writing spans to {}: {e}", path.display()))),
        }
        let mut self_time: Vec<_> = tr.self_time().into_iter().collect();
        self_time.sort_by(|a, b| b.1.total_cmp(&a.1));
        let top: Vec<String> = self_time
            .iter()
            .take(8)
            .map(|(n, s)| format!("{n} {s:.3}s"))
            .collect();
        rep.lines.push(format!(
            "[{}] self time by span: {}",
            o.workload,
            top.join(", ")
        ));
    }
    rep.emit();
    if rep.failed > 0 {
        std::process::exit(1);
    }
}

//! `bgserve` — the simulation service CLI.
//!
//! ```text
//! bgserve serve    --listen unix:/tmp/bgserve.sock [--threads N]
//!                  [--cache-cap N] [--cache-dir DIR]
//!                  [--paranoid] [--monitor-out FILE] [--force]
//! bgserve submit   --listen EP (--gen-seed N | --script FILE)
//!                  [--kernel cnk|fwk] [--mode fast|heap] [--json]
//!                  [--timeout-cycles N] [--timeout-wall-ms N] [--progress N]
//! bgserve cancel   --listen EP --job N
//! bgserve ping     --listen EP
//! bgserve status   --listen EP
//! bgserve shutdown --listen EP
//! bgserve selfcheck [--threads N] [--sessions N] [--jobs N] [--seed N]
//! ```
//!
//! Flags split with the workspace's one tokenizer
//! ([`bench::cli::tokenize`]): a repeated value flag is rejected rather
//! than silently last-one-wins (exit 1), and an unknown flag or a stray
//! argument is a usage error (exit 2).

use bench::cli::{tokenize, FlagError, Tokens};
use bench::json::Writer;
use bench::monitor::Monitor;
use bgcheck::program::{generate, Program};
use bgcheck::runner::{mode_labels, CheckKernel, Mode, MODES};
use bgserve::proto::LiveReq;
use bgserve::selfcheck::{self, SelfcheckOpts};
use bgserve::server::{serve, Endpoint, ServeOpts};
use bgserve::Client;

fn die(msg: &str) -> ! {
    eprintln!("bgserve: {msg}");
    std::process::exit(1);
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  bgserve serve --listen EP [--threads N] [--cache-cap N]\n                \
         [--cache-dir DIR] [--paranoid] [--monitor-out FILE] [--force]\n  \
         bgserve submit --listen EP (--gen-seed N | --script FILE)\n                [--kernel cnk|fwk] \
         [--mode fast|heap] [--json]\n                [--timeout-cycles N] \
         [--timeout-wall-ms N] [--progress N]\n  bgserve cancel --listen EP \
         --job N\n  bgserve ping|status|shutdown --listen EP\n  \
         bgserve selfcheck [--threads N] [--sessions N] [--jobs N] [--seed N]\n\
         \nEP is unix:PATH or tcp:HOST:PORT."
    );
    std::process::exit(2);
}

/// A subcommand's flags; it takes no positional argument.
struct Flags(Tokens);

impl Flags {
    fn parse(
        args: &[String],
        value_flags: &[&'static str],
        toggle_flags: &[&'static str],
    ) -> Flags {
        let t = match tokenize(args.iter().cloned(), value_flags, toggle_flags) {
            Ok(t) => t,
            Err(FlagError::Unknown(a)) => {
                eprintln!("bgserve: unknown flag {a}");
                usage();
            }
            Err(e) => die(&e.to_string()),
        };
        if let Some(a) = t.rest.first() {
            eprintln!("bgserve: unknown flag {a}");
            usage();
        }
        Flags(t)
    }

    fn get(&self, k: &str) -> Option<&str> {
        self.0.value(k)
    }

    fn num(&self, k: &str, default: u64) -> u64 {
        match self.get(k) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| die(&format!("{k} must be a number, got {v:?}"))),
        }
    }

    /// A count flag: a number of at least 1.
    fn count(&self, k: &str, default: usize) -> usize {
        match self.num(k, default as u64) {
            0 => die(&format!("{k} must be at least 1 (got 0)")),
            n => n as usize,
        }
    }

    fn has(&self, k: &str) -> bool {
        self.0.has(k)
    }

    /// An optional numeric flag; zero is rejected (the protocol treats
    /// these knobs as "absent or a positive budget/interval").
    fn opt_num(&self, k: &str) -> Option<u64> {
        self.get(k).map(|v| match v.parse() {
            Ok(0) | Err(_) => die(&format!("{k} must be a positive number, got {v:?}")),
            Ok(n) => n,
        })
    }

    fn endpoint(&self) -> Endpoint {
        let Some(ep) = self.get("--listen") else {
            die("--listen is required");
        };
        Endpoint::parse(ep).unwrap_or_else(|e| die(&e))
    }
}

fn serve_cmd(args: &[String]) {
    let f = Flags::parse(
        args,
        &[
            "--listen",
            "--threads",
            "--cache-cap",
            "--cache-dir",
            "--monitor-out",
        ],
        &["--paranoid", "--force"],
    );
    let mut opts = ServeOpts::new(f.endpoint());
    opts.threads = f.count("--threads", opts.threads);
    opts.cache_cap = f.count("--cache-cap", opts.cache_cap);
    opts.cache_dir = f.get("--cache-dir").map(std::path::PathBuf::from);
    opts.paranoid = f.has("--paranoid");
    if let Some(path) = f.get("--monitor-out") {
        let m = Monitor::create(std::path::Path::new(path), "bgserve", f.has("--force"))
            .unwrap_or_else(|e| die(&format!("--monitor-out {path}: {e}")));
        opts.monitor = Some(m);
    }
    eprintln!(
        "bgserve: serving on {} ({} threads, cache {}{}{})",
        opts.endpoint.label(),
        opts.threads,
        opts.cache_cap,
        if opts.cache_dir.is_some() {
            ", persistent"
        } else {
            ""
        },
        if opts.paranoid { ", paranoid" } else { "" }
    );
    if let Err(e) = serve(opts) {
        die(&e);
    }
}

fn load_program(f: &Flags) -> Program {
    match (f.get("--gen-seed"), f.get("--script")) {
        (Some(_), Some(_)) => die("--gen-seed and --script are mutually exclusive"),
        (Some(_), None) => generate(f.num("--gen-seed", 0)),
        (None, Some(path)) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| die(&format!("--script {path}: {e}")));
            bgcheck::script::parse_script(&text)
                .unwrap_or_else(|e| die(&e))
                .program
        }
        (None, None) => die("submit needs --gen-seed N or --script FILE"),
    }
}

fn submit_cmd(args: &[String]) {
    let f = Flags::parse(
        args,
        &[
            "--listen",
            "--kernel",
            "--mode",
            "--gen-seed",
            "--script",
            "--timeout-cycles",
            "--timeout-wall-ms",
            "--progress",
        ],
        &["--json"],
    );
    let kernel = match f.get("--kernel") {
        None => CheckKernel::Cnk,
        Some(k) => CheckKernel::from_label(k)
            .unwrap_or_else(|| die(&format!("unknown kernel {k:?} (cnk or fwk)"))),
    };
    let mode = match f.get("--mode") {
        None => MODES[0],
        Some(m) => Mode::from_label(m).unwrap_or_else(|| {
            die(&format!(
                "unknown mode label {m:?} (one of {})",
                mode_labels()
            ))
        }),
    };
    let program = load_program(&f);
    let live = LiveReq {
        timeout_cycles: f.opt_num("--timeout-cycles"),
        timeout_wall_ms: f.opt_num("--timeout-wall-ms"),
        progress_cycles: f.opt_num("--progress"),
    };
    let mut c = Client::connect(&f.endpoint()).unwrap_or_else(|e| die(&e));
    let r = c
        .submit_live(kernel, mode, &program, live)
        .unwrap_or_else(|e| die(&e));
    for p in &r.progress {
        let n = |k: &str| p.get(k).and_then(|x| x.str()).unwrap_or("?").to_string();
        eprintln!(
            "bgserve: progress: cycle {} events {} (+{} ev / +{} cy)",
            n("cycle"),
            n("events"),
            n("d_events"),
            n("d_cycles")
        );
    }
    for wmsg in &r.warnings {
        eprintln!("bgserve: warning: {wmsg}");
    }
    if f.has("--json") {
        let mut w = Writer::default();
        w.obj().key("job").u64(r.job).key("outcome").str(&r.outcome);
        w.key("final_cycle").u64_str(r.final_cycle);
        w.key("digest").hex(r.digest).key("cached").bool(r.cached);
        w.key("paranoid").str(&r.paranoid).key("key").str(&r.key);
        println!("{}", w.end_obj().finish());
    } else {
        println!(
            "job {} [{} {}] {} at cycle {} digest {:016x} ({}, paranoid {})",
            r.job,
            r.kernel,
            r.mode,
            r.outcome,
            r.final_cycle,
            r.digest,
            if r.cached { "cache hit" } else { "fresh run" },
            r.paranoid
        );
    }
    if !r.warnings.is_empty() || r.paranoid == "mismatch" {
        std::process::exit(1);
    }
}

fn cancel_cmd(args: &[String]) {
    let f = Flags::parse(args, &["--listen", "--job"], &[]);
    let Some(job) = f.opt_num("--job") else {
        die("cancel needs --job N");
    };
    let mut c = Client::connect(&f.endpoint()).unwrap_or_else(|e| die(&e));
    let cancelled = c.cancel(job).unwrap_or_else(|e| die(&e));
    if cancelled {
        println!("job {job} cancelled");
    } else {
        println!("job {job} was not in flight (already finished, or unknown)");
        std::process::exit(1);
    }
}

fn simple_cmd(args: &[String], which: &str) {
    let f = Flags::parse(args, &["--listen"], &[]);
    let mut c = Client::connect(&f.endpoint()).unwrap_or_else(|e| die(&e));
    match which {
        "ping" => {
            let proto = c.ping().unwrap_or_else(|e| die(&e));
            println!("pong (proto {proto})");
        }
        "status" => {
            let v = c.status().unwrap_or_else(|e| die(&e));
            let n = |k: &str| v.path_num(&[k]).unwrap_or(f64::NAN);
            println!(
                "submitted {} completed {} | cache: {} entries, {} hits, {} misses, \
                 {} disk write errors | paranoid: {} checks, {} failures | live: {} \
                 cancelled, {} timeouts, {} session drops",
                n("submitted"),
                n("completed"),
                n("cache_entries"),
                n("cache_hits"),
                n("cache_misses"),
                n("disk_write_errors"),
                n("paranoid_checks"),
                n("paranoid_failures"),
                n("cancelled"),
                n("timeouts"),
                n("session_drops")
            );
        }
        "shutdown" => {
            c.shutdown().unwrap_or_else(|e| die(&e));
            println!("server is shutting down");
        }
        _ => usage(),
    }
}

fn selfcheck_cmd(args: &[String]) {
    let f = Flags::parse(args, &["--threads", "--sessions", "--jobs", "--seed"], &[]);
    let opts = SelfcheckOpts {
        threads: f.count("--threads", 4),
        sessions: f.count("--sessions", 4),
        jobs_per_session: f.count("--jobs", 2),
        base_seed: f.num("--seed", 1000),
    };
    match selfcheck::run(&opts) {
        Ok(summary) => println!("{summary}"),
        Err(e) => die(&e),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(sub) = args.first() else { usage() };
    let rest = &args[1..];
    match sub.as_str() {
        "serve" => serve_cmd(rest),
        "submit" => submit_cmd(rest),
        "cancel" => cancel_cmd(rest),
        "ping" | "status" | "shutdown" => simple_cmd(rest, sub),
        "selfcheck" => selfcheck_cmd(rest),
        _ => usage(),
    }
}

//! The checker's own regression harness: deliberately injected
//! mutations ([`Canary`]) that a working differential checker must
//! catch, plus the clean-pass control.
//!
//! This is the "who watches the watchmen" test the tentpole demands: a
//! checker that silently stops detecting divergence is worse than no
//! checker, so the self-test runs the real mode matrix with one leg
//! tampered and requires a failure verdict every time.

pub use crate::runner::Canary;

use std::path::Path;

use crate::program::{POp, Program};
use crate::runner::{check_program, check_program_tampered, Failure};
use crate::script::to_script_with_pins;

/// The fixed self-test program: touches compute, shipped I/O, the
/// clone/futex path, and both collective networks, on two nodes, so
/// every canary has machinery to perturb.
pub fn selftest_program() -> Program {
    Program {
        nodes: 2,
        seed: 0x5E1F,
        ops: vec![
            POp::Compute { cycles: 20_000 },
            POp::ConsoleWrite { bytes: 64 },
            POp::FileRoundtrip { bytes: 256 },
            POp::SpawnJoin { cycles: 10_000 },
            POp::Allreduce { bytes: 8 },
            POp::SendRing { bytes: 128 },
            POp::Barrier,
            POp::Gettid,
        ],
        faults: Default::default(),
    }
}

/// Run the self-test: the clean program must pass the full matrix, and
/// every canary mutation must be detected. Returns `Err` with a
/// description of the first canary the checker failed to catch (or of
/// a spurious failure on the clean program).
pub fn selftest() -> Result<(), String> {
    selftest_with_artifacts(None)
}

/// [`selftest`], optionally saving one `.bgck` script + replayed trace
/// tail per detected canary under `out` (CI keeps these as artifacts so
/// a checker regression comes with the evidence attached).
pub fn selftest_with_artifacts(out: Option<&Path>) -> Result<(), String> {
    let p = selftest_program();
    check_program(&p).map_err(|f| {
        format!(
            "clean self-test program failed the checker:\n{}",
            f.render()
        )
    })?;
    for c in Canary::ALL {
        let Err(f) = check_program_tampered(&p, Some(c)) else {
            return Err(format!("canary {c:?} was NOT detected by the checker"));
        };
        if let Some(dir) = out {
            write_canary_artifacts(dir, c, &p, &f)?;
        }
    }
    Ok(())
}

/// Save `canary-<name>.bgck` (the self-test program annotated with the
/// verdict) and `canary-<name>.flight.txt` (the failing run's evidence:
/// its replay's trace tail) under `dir`.
fn write_canary_artifacts(dir: &Path, c: Canary, p: &Program, f: &Failure) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let name = format!("{c:?}").to_lowercase();

    let mut script = to_script_with_pins(p, &[]);
    script.push_str(&format!("# canary: {c:?} (detected)\n"));
    for line in f.render().lines() {
        script.push_str(&format!("#   {line}\n"));
    }
    let spath = dir.join(format!("canary-{name}.bgck"));
    std::fs::write(&spath, &script).map_err(|e| format!("writing {}: {e}", spath.display()))?;

    let flight = f
        .flight
        .as_deref()
        .unwrap_or("(no replayed trace tail captured for this failure)");
    let fpath = dir.join(format!("canary-{name}.flight.txt"));
    std::fs::write(&fpath, flight).map_err(|e| format!("writing {}: {e}", fpath.display()))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_checker_catches_every_canary() {
        let dir = std::env::temp_dir().join(format!("bgcheck-canary-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        selftest_with_artifacts(Some(&dir)).expect("self-test");
        // Every detected canary left a repro script and a trace tail.
        for c in Canary::ALL {
            let name = format!("{c:?}").to_lowercase();
            assert!(dir.join(format!("canary-{name}.bgck")).exists());
            let flight = std::fs::read_to_string(dir.join(format!("canary-{name}.flight.txt")))
                .expect("trace tail file");
            assert!(
                !flight.starts_with("(no replayed"),
                "canary {c:?} failure carried no trace tail"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

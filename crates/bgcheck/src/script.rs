//! The replayable program-script format.
//!
//! Line-oriented, `#` comments, in the same spirit as
//! `FaultSchedule::parse` — and fault lines are exactly that format,
//! prefixed with the `fault` keyword and read by the same field parser
//! ([`FaultEvent::parse_fields`]):
//!
//! ```text
//! # minimal repro, shrunk from seed 77
//! nodes 2
//! seed 3735928559
//! op compute 5000
//! op spawn-join 2000
//! op allreduce 8
//! fault 200000 1 torus-drop 5000
//! digest cnk fast 1a2b3c4d5e6f7788 91283
//! ```
//!
//! `digest` lines are optional recorded expectations: kernel label,
//! mode label, trace digest (16 hex digits), final cycle. Replay
//! verifies every pin present; `bgcheck replay --record` mints them.

use bgsim::fault::{FaultEvent, FaultSchedule};

use crate::program::{POp, Program};

/// One recorded digest expectation from a script.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DigestPin {
    pub kernel: String,
    pub mode: String,
    pub digest: u64,
    pub final_cycle: u64,
}

/// A parsed script: the program plus any recorded digest pins.
#[derive(Clone, Debug)]
pub struct Replay {
    pub program: Program,
    pub pins: Vec<DigestPin>,
}

fn num(what: &str, s: &str, lineno: usize) -> Result<u64, String> {
    s.parse::<u64>()
        .map_err(|_| format!("script line {lineno}: {what} must be a number, got {s:?}"))
}

/// Parse a program script. Errors name the offending line.
pub fn parse_script(text: &str) -> Result<Replay, String> {
    let mut nodes: Option<u32> = None;
    let mut seed = 0u64;
    let mut ops = Vec::new();
    let mut faults = FaultSchedule::default();
    let mut pins = Vec::new();

    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let Some(key) = parts.next() else { continue };
        let rest: Vec<&str> = parts.collect();
        match key {
            "nodes" => {
                let [v] = rest[..] else {
                    return Err(format!("script line {lineno}: nodes takes one value"));
                };
                let n = num("nodes", v, lineno)?;
                if n == 0 || n > 1024 {
                    return Err(format!(
                        "script line {lineno}: nodes must be in 1..=1024, got {n}"
                    ));
                }
                nodes = Some(n as u32);
            }
            "seed" => {
                let [v] = rest[..] else {
                    return Err(format!("script line {lineno}: seed takes one value"));
                };
                seed = num("seed", v, lineno)?;
            }
            "op" => {
                let Some((name, args)) = rest.split_first() else {
                    return Err(format!("script line {lineno}: op needs a name"));
                };
                let args = args
                    .iter()
                    .map(|a| num("op argument", a, lineno))
                    .collect::<Result<Vec<u64>, String>>()?;
                let op = POp::from_parts(name, &args)
                    .map_err(|e| format!("script line {lineno}: {e}"))?;
                ops.push(op);
            }
            "fault" => {
                let ev = FaultEvent::parse_fields(&rest)
                    .map_err(|e| format!("script line {lineno}: {e}"))?;
                faults.push(ev);
            }
            "digest" => {
                let [kernel, mode, hex, cycle] = rest[..] else {
                    return Err(format!(
                        "script line {lineno}: digest takes <kernel> <mode> <hex> <cycle>"
                    ));
                };
                let digest = u64::from_str_radix(hex, 16).map_err(|_| {
                    format!("script line {lineno}: digest must be hex, got {hex:?}")
                })?;
                pins.push(DigestPin {
                    kernel: kernel.to_string(),
                    mode: mode.to_string(),
                    digest,
                    final_cycle: num("final cycle", cycle, lineno)?,
                });
            }
            other => {
                return Err(format!(
                    "script line {lineno}: unknown directive {other:?} \
                     (expected nodes/seed/op/fault/digest)"
                ));
            }
        }
    }

    let nodes = nodes.ok_or_else(|| "script is missing a `nodes` line".to_string())?;
    let program = Program {
        nodes,
        seed,
        ops,
        faults,
    };
    program
        .faults
        .check_nodes(program.nodes)
        .map_err(|e| format!("script: {e}"))?;
    Ok(Replay { program, pins })
}

/// Serialize a program as a script (no digest pins).
pub fn to_script(p: &Program) -> String {
    to_script_with_pins(p, &[])
}

/// Serialize a program plus recorded digest pins.
pub fn to_script_with_pins(p: &Program, pins: &[DigestPin]) -> String {
    let mut s = String::new();
    s.push_str("# bgcheck program script\n");
    s.push_str(&format!("nodes {}\n", p.nodes));
    s.push_str(&format!("seed {}\n", p.seed));
    for op in &p.ops {
        s.push_str("op ");
        s.push_str(op.name());
        for a in op.args() {
            s.push_str(&format!(" {a}"));
        }
        s.push('\n');
    }
    for ev in &p.faults.events {
        s.push_str(&format!(
            "fault {} {} {} {}\n",
            ev.at,
            ev.node,
            ev.kind.name(),
            ev.arg
        ));
    }
    for pin in pins {
        s.push_str(&format!(
            "digest {} {} {:016x} {}\n",
            pin.kernel, pin.mode, pin.digest, pin.final_cycle
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::generate;

    #[test]
    fn scripts_round_trip() {
        for seed in [1u64, 2, 3, 99] {
            let p = generate(seed);
            let text = to_script(&p);
            let back = parse_script(&text).expect("parse own output");
            assert_eq!(p.nodes, back.program.nodes);
            assert_eq!(p.seed, back.program.seed);
            assert_eq!(p.ops, back.program.ops);
            assert_eq!(p.faults.events, back.program.faults.events);
        }
    }

    #[test]
    fn pins_round_trip() {
        let p = generate(4);
        let pins = vec![DigestPin {
            kernel: "cnk".into(),
            mode: "fast".into(),
            digest: 0xDEAD_BEEF_0123_4567,
            final_cycle: 42_000,
        }];
        let text = to_script_with_pins(&p, &pins);
        let back = parse_script(&text).expect("parse");
        assert_eq!(back.pins, pins);
    }

    #[test]
    fn errors_name_the_line() {
        let e = parse_script("nodes 1\nop compute x\n").expect_err("bad arg");
        assert!(e.contains("line 2"), "{e}");
        let e = parse_script("nodes 1\nop no-such 5\n").expect_err("bad op");
        assert!(e.contains("line 2") && e.contains("no-such"), "{e}");
        let e = parse_script("nodes 1\nfault 5 0 not-a-kind\n").expect_err("bad kind");
        assert!(e.contains("not-a-kind"), "{e}");
        let e = parse_script("seed 3\n").expect_err("missing nodes");
        assert!(e.contains("nodes"), "{e}");
        let e = parse_script("nodes 0\n").expect_err("zero nodes");
        assert!(e.contains("1..=1024"), "{e}");
        let e = parse_script("nodes 1\nwat 5\n").expect_err("unknown directive");
        assert!(e.contains("wat"), "{e}");
        // Fault targeting a node the machine doesn't have.
        let e = parse_script("nodes 2\nfault 100 5 torus-drop 10\n").expect_err("bad node");
        assert!(e.contains("node 5"), "{e}");
    }

    #[test]
    fn a_fault_node_beyond_u32_is_refused_not_wrapped() {
        // 2^32 must not wrap to node 0, where it would replay as a fault
        // on node 0 and `replay --record` would write `fault 100 0 ...`.
        let e = parse_script("nodes 1\nfault 100 4294967296 torus-drop 5000\n")
            .expect_err("node beyond u32");
        assert!(e.contains("line 2: bad node \"4294967296\""), "{e}");
        // A fault script refuses the same line the same way.
        let f = FaultSchedule::parse("100 4294967296 torus-drop 5000").expect_err("node");
        assert!(f.contains("line 1: bad node \"4294967296\""), "{f}");
    }
}

//! Adversarial-input properties of the monitor JSONL path.
//!
//! `bgtop` reads monitor files written by other processes, possibly
//! mid-crash, possibly by two writers pointed at the same path by
//! mistake. Whatever bytes end up in that file, `json::parse` /
//! `last_snapshot` / `malformed_snapshots` must never panic, and
//! `last_snapshot` must never hand back a line that lacks the numeric
//! `seq`/`total` fields the renderer keys on. These properties sweep
//! byte-level truncations, interleaved concurrent appends, and
//! malformed escape sequences.

use proptest::prelude::*;

use bench::json::{parse, Json};
use bench::monitor::{last_snapshot, malformed_snapshots, snapshot_json};
use bgsim::{Domain, Profiler};

fn sample_line(bench: &str, seq: u64, done: usize, total: usize) -> String {
    let mut p = Profiler::standard(2);
    p.span(Domain::Torus, 250);
    p.span(Domain::Sched, 75);
    p.msg_enqueued(0, 1);
    snapshot_json(bench, seq, done, total, &p.snapshot())
}

fn valid_stream(lines: usize) -> String {
    (1..=lines as u64)
        .map(|s| format!("{}\n", sample_line("adv", s, s as usize, lines)))
        .collect()
}

/// The invariant under attack: whatever `last_snapshot` returns must be
/// renderable — numeric seq and total, no panics downstream.
fn assert_renderable(v: &Json) -> Result<(), TestCaseError> {
    prop_assert!(
        v.path_num(&["seq"]).is_some(),
        "snapshot missing seq: {v:?}"
    );
    prop_assert!(
        v.path_num(&["total"]).is_some(),
        "snapshot missing total: {v:?}"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A writer crashing mid-append leaves an arbitrary byte-level
    /// prefix of the stream. Parsing never panics, and as soon as one
    /// whole line is present the previous complete snapshot still wins.
    #[test]
    fn byte_truncations_fall_back_to_last_complete_line(
        lines in 1usize..5,
        frac in 0u64..=10_000,
    ) {
        let text = valid_stream(lines);
        // Truncate on a char boundary (the stream is ASCII-safe JSON,
        // but escaped payloads may not be — back off to a boundary).
        let mut cut = (text.len() as u64 * frac / 10_000) as usize;
        while cut < text.len() && !text.is_char_boundary(cut) {
            cut -= 1;
        }
        let torn = &text[..cut];
        let snap = last_snapshot(torn);
        let first_line_end = text.find('\n').unwrap();
        if cut > first_line_end {
            let v = snap.expect("at least one complete line present");
            assert_renderable(&v)?;
            // The surviving snapshot is one of the complete ones.
            let seq = v.path_num(&["seq"]).unwrap() as usize;
            prop_assert!(seq >= 1 && seq <= lines, "seq {seq} out of range");
        }
        // The torn tail itself parses to an error, never a panic.
        if let Some(tail) = torn.lines().last() {
            let _ = parse(tail);
        }
        let _ = malformed_snapshots(torn);
    }

    /// Two writers appending whole lines to one file: any interleaving
    /// of the two streams (plus an optional torn tail from each) still
    /// yields a renderable latest snapshot and no panics.
    #[test]
    fn interleaved_concurrent_appends_stay_parseable(
        picks in prop::collection::vec(0u8..2, 1..12),
        tear_a in 0u64..=100,
        tear_b in 0u64..=100,
    ) {
        let mut next = [1u64, 1u64];
        let mut out = String::new();
        for &w in &picks {
            let bench = if w == 0 { "writer-a" } else { "writer-b" };
            let seq = next[w as usize];
            next[w as usize] += 1;
            out.push_str(&sample_line(bench, seq, seq as usize, 64));
            out.push('\n');
        }
        // Each writer may additionally be mid-append: torn fragments of
        // a fresh line, spliced one after the other (what two
        // unsynchronized O_APPEND writers can leave at the tail).
        let frag_a = sample_line("writer-a", next[0], next[0] as usize, 64);
        let frag_b = sample_line("writer-b", next[1], next[1] as usize, 64);
        let cut = |s: &str, pct: u64| -> String {
            let mut c = (s.len() as u64 * pct / 100) as usize;
            while c < s.len() && !s.is_char_boundary(c) {
                c -= 1;
            }
            s[..c].to_string()
        };
        out.push_str(&cut(&frag_a, tear_a));
        out.push_str(&cut(&frag_b, tear_b));
        let snap = last_snapshot(&out).expect("complete lines exist");
        assert_renderable(&snap)?;
        // The winner is the last *complete* line, from either writer.
        let bench = snap.get("bench").and_then(Json::str).unwrap_or("?");
        prop_assert!(bench == "writer-a" || bench == "writer-b", "{bench}");
        let _ = malformed_snapshots(&out);
    }

    /// Random escape-sequence corruption (stray backslashes, truncated
    /// `\u` escapes, control bytes) anywhere in the stream: parsing may
    /// reject lines but must never panic, and `last_snapshot` must
    /// still refuse to hand back a field-missing line.
    #[test]
    fn malformed_escapes_never_panic(
        lines in 1usize..4,
        site in 0u64..=10_000,
        glitch in 0usize..6,
    ) {
        let text = valid_stream(lines);
        let insert = ["\\", "\\u00", "\\u{bad}", "\"", "\\x41", "\u{7f}"][glitch];
        let mut at = (text.len() as u64 * site / 10_000) as usize;
        while at < text.len() && !text.is_char_boundary(at) {
            at -= 1;
        }
        let mut corrupted = String::with_capacity(text.len() + insert.len());
        corrupted.push_str(&text[..at]);
        corrupted.push_str(insert);
        corrupted.push_str(&text[at..]);
        for line in corrupted.lines() {
            let _ = parse(line); // must not panic
        }
        if let Some(v) = last_snapshot(&corrupted) {
            assert_renderable(&v)?;
        }
        let _ = malformed_snapshots(&corrupted);
    }

    /// Lines that parse as valid JSON but omit `seq`/`total` (a buggy
    /// or foreign writer) are counted as malformed and never returned —
    /// the regression behind the stale-frame bgtop hang.
    #[test]
    fn field_missing_lines_are_skipped_not_returned(
        lines in 1usize..4,
        missing in 0usize..3,
    ) {
        let mut text = valid_stream(lines);
        let bogus = [
            "{\"bench\":\"x\",\"done\":3}",
            "{\"total\":9}",
            "{\"seq\":\"not-a-number\",\"total\":1}",
        ][missing];
        text.push_str(bogus);
        text.push('\n');
        let v = last_snapshot(&text).expect("valid lines exist");
        assert_renderable(&v)?;
        // The bogus tail is skipped: the winner is a real snapshot.
        prop_assert_eq!(
            v.get("bench").and_then(Json::str),
            Some("adv")
        );
        prop_assert_eq!(malformed_snapshots(&text), 1);
    }
}

//! Pins for `bench::json`'s string scanner: what each string literal
//! parses to, and the exact error text for each malformed one. Request
//! lines, disk-cache entries and monitor files all pass through it, so a
//! change to how it walks a string must leave every value and every
//! error the same.

use bench::json::{parse, Json, Writer};
use proptest::prelude::*;

/// Parse `lit`, a whole document that must be one string literal.
fn parse_str(lit: &str) -> Result<String, String> {
    match parse(lit)? {
        Json::Str(s) => Ok(s),
        other => panic!("{lit:?} parsed to {other:?}, not a string"),
    }
}

/// Characters weighted towards what the writer escapes or the scanner
/// must copy whole: quotes, backslashes, control characters, ASCII, and
/// any scalar value (multi-byte ones included).
fn any_char() -> impl Strategy<Value = char> {
    prop_oneof![
        Just('"'),
        Just('\\'),
        (0u8..0x20).prop_map(char::from),
        (0x20u8..0x7f).prop_map(char::from),
        (0u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('\u{fffd}')),
    ]
}

fn any_string() -> impl Strategy<Value = String> {
    prop::collection::vec(any_char(), 0..48).prop_map(|cs| cs.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn writer_rendered_strings_parse_back_to_themselves(s in any_string()) {
        let lit = Writer::default().str(&s).finish();
        prop_assert_eq!(parse_str(&lit), Ok(s.clone()), "literal {:?}", lit);
        let mut w = Writer::default();
        w.obj().key(&s).str(&s).end_obj();
        let obj = parse(&w.finish()).expect("object");
        prop_assert_eq!(obj, Json::Obj(vec![(s.clone(), Json::Str(s))]));
    }

    #[test]
    fn unescaped_text_is_copied_as_is(s in any_string()) {
        let raw: String = s.chars().filter(|c| !matches!(c, '"' | '\\')).collect();
        prop_assert_eq!(parse_str(&format!("\"{raw}\"")), Ok(raw.clone()));
    }
}

#[test]
fn raw_string_literals_parse_to_pinned_values() {
    let ok: &[(&str, &str)] = &[
        (r#""""#, ""),
        (r#""plain ascii""#, "plain ascii"),
        // Unescaped multi-byte runs: 2-, 3- and 4-byte UTF-8.
        ("\"héllo wörld\"", "héllo wörld"),
        ("\"日本語 ✓ 🦀🦀\"", "日本語 ✓ 🦀🦀"),
        ("\"🦀\"", "🦀"),
        // Raw control bytes are taken as they are, not refused.
        ("\"a\u{1}b\tc\u{1f}\nd\"", "a\u{1}b\tc\u{1f}\nd"),
        // An escape at the start of a run, at its end, and back to back.
        (r#""\"abc""#, "\"abc"),
        (r#""abc\n""#, "abc\n"),
        (r#""ab\\cd\/ef\r\t""#, "ab\\cd/ef\r\t"),
        (r#""\\\"\\""#, "\\\"\\"),
        ("\"é\\\"日\"", "é\"日"),
        // `\u` escapes: any case of hex, a lone surrogate becomes U+FFFD.
        (r#""\u00e9\u00C9""#, "éÉ"),
        (r#""x\u0041y\u65e5""#, "xAy日"),
        (r#""\u0000\u001f""#, "\u{0}\u{1f}"),
        (r#""\ud83e!""#, "\u{fffd}!"),
    ];
    for (lit, want) in ok {
        assert_eq!(parse_str(lit).as_deref(), Ok(*want), "literal {lit:?}");
    }
}

#[test]
fn malformed_string_literals_have_pinned_errors() {
    let bad: &[(&str, &str)] = &[
        (r#"""#, "unterminated string"),
        (r#""abc"#, "unterminated string"),
        ("\"日本", "unterminated string"),
        (r#""abc\""#, "unterminated string"),
        (r#""abc\"#, "unterminated escape"),
        (r#""\"#, "unterminated escape"),
        (r#""a\qb""#, "bad escape at offset 4"),
        (r#""日\x""#, "bad escape at offset 6"),
        (r#""\u12""#, "bad \\u escape"),
        (r#""\u12"#, "bad \\u escape"),
        (r#""\uzzzz""#, "bad \\u escape"),
        (r#"{"k\q":1}"#, "bad escape at offset 5"),
        (r#"{"k":"v"#, "unterminated string"),
        (r#"{"k"#, "unterminated string"),
    ];
    for (lit, want) in bad {
        assert_eq!(
            parse(lit).map(|_| ()),
            Err(want.to_string()),
            "literal {lit:?}"
        );
    }
}

//! Property tests of the NDJSON codec and the dispatched byte scanners
//! (`ees_iotrace::scan`; run the suite under `EES_SCAN_ISA=swar` — as
//! `ci.sh` does — to pin the portable fallback, and see `scan_prop.rs`
//! for the per-ISA kernel sweep).

use ees_iotrace::ndjson::{count_byte, find_byte, find_byte2, json_escape, parse_event_borrowed};
use proptest::prelude::*;

/// Character-at-a-time reference for [`json_escape`] — the pre-SIMD
/// behaviour the wide needs-escape scan must reproduce exactly.
fn naive_json_escape(s: &str) -> String {
    let mut out = String::new();
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders fields as a flat object with seeded whitespace padding.
fn render(fields: &[(String, String)], pad: u8) -> String {
    let sp = |on: bool| if on { " " } else { "" };
    let mut s = String::new();
    s.push_str(sp(pad & 1 != 0));
    s.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(sp(pad & 2 != 0));
        s.push('"');
        s.push_str(k);
        s.push('"');
        s.push_str(sp(pad & 4 != 0));
        s.push(':');
        s.push_str(sp(pad & 2 != 0));
        s.push_str(v);
    }
    s.push_str(sp(pad & 4 != 0));
    s.push('}');
    s.push_str(sp(pad & 1 != 0));
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// On well-formed complete lines the parser takes the first
    /// occurrence of each duplicated key.
    #[test]
    fn first_key_wins_on_complete_lines(
        ts in 0u64..1u64 << 40,
        item in 0u32..1u32 << 20,
        dup_ts in 0u64..1u64 << 40,
        dup_item in 0u32..1u32 << 20,
        pad in 0u8..8,
    ) {
        let fields = vec![
            ("ts".to_string(), ts.to_string()),
            ("item".to_string(), item.to_string()),
            ("offset".to_string(), "0".to_string()),
            ("len".to_string(), "4096".to_string()),
            ("kind".to_string(), "\"Read\"".to_string()),
            ("ts".to_string(), dup_ts.to_string()),
            ("item".to_string(), dup_item.to_string()),
        ];
        let line = render(&fields, pad);
        let rec = parse_event_borrowed(&line).expect("complete line parses");
        prop_assert_eq!(rec.ts.0, ts);
        prop_assert_eq!(rec.item.0, item);
    }

    /// The SWAR scanners agree with their naive equivalents on arbitrary
    /// byte strings, including lane-boundary and borrow-adjacent values.
    #[test]
    fn swar_find_matches_naive(
        hay in prop::collection::vec(any::<u8>(), 0..200),
        needle: u8,
        other: u8,
    ) {
        prop_assert_eq!(find_byte(&hay, needle), hay.iter().position(|&b| b == needle));
        prop_assert_eq!(
            find_byte2(&hay, needle, other),
            hay.iter().position(|&b| b == needle || b == other)
        );
        prop_assert_eq!(
            count_byte(&hay, needle),
            hay.iter().filter(|&&b| b == needle).count()
        );
    }

    /// The wide-scan `json_escape` is byte-identical to the old
    /// character loop on arbitrary strings (controls, quotes,
    /// backslashes, multi-byte characters, long clean prefixes), and
    /// still borrows exactly when nothing needs escaping.
    #[test]
    fn json_escape_matches_reference(
        parts in prop::collection::vec(
            prop_oneof![
                4 => prop::collection::vec(
                    prop::sample::select("abcxyz019 .:{}/".chars().collect::<Vec<char>>()),
                    0..40,
                ).prop_map(|v| v.into_iter().collect::<String>()),
                2 => Just("täble→ éñcoding".to_string()),
                1 => Just("\"".to_string()),
                1 => Just("\\".to_string()),
                1 => (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap().to_string()),
            ],
            0..8,
        ),
    ) {
        let s: String = parts.concat();
        let escaped = json_escape(&s);
        prop_assert_eq!(escaped.as_ref(), naive_json_escape(&s).as_str());
        let clean = s.chars().all(|c| c != '"' && c != '\\' && c as u32 >= 0x20);
        prop_assert_eq!(matches!(escaped, std::borrow::Cow::Borrowed(_)), clean);
    }

    /// The digit-run classify + scalar fold parses every numeric
    /// spelling exactly like `str::parse::<u64>`, including the
    /// overflow boundary around `u64::MAX` and over-long runs.
    #[test]
    fn digit_run_parse_matches_str_parse(
        lead_zeros in 0usize..3,
        value in prop_oneof![
            4 => any::<u64>().prop_map(|n| n.to_string()),
            2 => Just(u64::MAX.to_string()),
            2 => Just("18446744073709551616".to_string()), // MAX + 1
            1 => Just("999999999999999999999999999".to_string()),
            1 => (0u64..1000).prop_map(|n| n.to_string()),
        ],
    ) {
        let spelled = format!("{}{}", "0".repeat(lead_zeros), value);
        let line = format!(
            "{{\"ts\":{spelled},\"item\":3,\"offset\":0,\"len\":1,\"kind\":\"Read\"}}"
        );
        match spelled.parse::<u64>() {
            Ok(n) => {
                let rec = parse_event_borrowed(&line).expect("in-range number parses");
                prop_assert_eq!(rec.ts.0, n);
            }
            Err(_) => {
                let err = parse_event_borrowed(&line).expect_err("overflow must error");
                prop_assert!(
                    err.contains("number overflow in field \"ts\""),
                    "unexpected error: {}", err
                );
            }
        }
    }
}

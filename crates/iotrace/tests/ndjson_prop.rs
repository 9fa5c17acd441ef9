//! Property tests of the NDJSON codec and the dispatched byte scanners
//! (`ees_iotrace::scan`; run the suite under `EES_SCAN_ISA=swar` — as
//! `ci.sh` does — to pin the portable fallback, and see `scan_prop.rs`
//! for the per-ISA kernel sweep).

use ees_iotrace::ndjson::{
    count_byte, find_byte, find_byte2, format_event, json_escape, parse_canonical,
    parse_event_borrowed,
};
use ees_iotrace::{DataItemId, IoKind, LogicalIoRecord, Micros};
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

/// Field values weighted toward the edges the canonical decoder must
/// get exactly right: zero, one digit, the `u32`/`u64` extremes.
fn edge_u64() -> impl Strategy<Value = u64> {
    prop_oneof![
        4 => any::<u64>(),
        2 => 0u64..1000,
        1 => Just(0u64),
        1 => Just(u64::MAX),
        1 => Just(u32::MAX as u64),
    ]
}

fn edge_u32() -> impl Strategy<Value = u32> {
    prop_oneof![
        4 => any::<u32>(),
        2 => 0u32..1000,
        1 => Just(0u32),
        1 => Just(u32::MAX),
    ]
}

fn record() -> impl Strategy<Value = LogicalIoRecord> {
    (
        edge_u64(),
        edge_u32(),
        edge_u64(),
        edge_u32(),
        any::<bool>(),
    )
        .prop_map(|(ts, item, offset, len, write)| LogicalIoRecord {
            ts: Micros(ts),
            item: DataItemId(item),
            offset,
            len,
            kind: if write { IoKind::Write } else { IoKind::Read },
        })
}

/// The byte range of the `field`-th (0..4) number in a canonical line.
fn number_span(line: &[u8], field: usize) -> (usize, usize) {
    let key = [&b"\"ts\":"[..], b"\"item\":", b"\"offset\":", b"\"len\":"][field];
    let start = line
        .windows(key.len())
        .position(|w| w == key)
        .expect("canonical key")
        + key.len();
    let end = start
        + line[start..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
    (start, end)
}

fn splice(line: &[u8], from: usize, to: usize, with: &[u8]) -> Vec<u8> {
    [&line[..from], with, &line[to..]].concat()
}

/// One mutation of a canonical line, chosen by `op` and steered by the
/// two free parameters: each either keeps the line parseable with the
/// same meaning (where the fast path must decline or agree) or makes it
/// something else the general grammar decides.
fn mutate(line: &[u8], op: u8, a: usize, b: u64) -> Vec<u8> {
    let field = a % 4;
    let (start, end) = number_span(line, field);
    let at = a % (line.len() + 1);
    match op {
        // Leading zeros on any number.
        0 => splice(line, start, start, &b"000"[..1 + (b % 3) as usize]),
        // 20+ digits: past `u64::MAX`, right at it, or far beyond.
        1 => {
            let big = match b % 4 {
                0 => "18446744073709551616".to_string(),
                1 => u64::MAX.to_string(),
                2 => format!(
                    "{}",
                    18446744073709551616u128 + b as u128 % 81553255926290448384
                ),
                _ => "1".repeat(21 + (b % 5) as usize),
            };
            splice(line, start, end, big.as_bytes())
        }
        // `item`/`len` one past `u32::MAX`, or at it.
        2 => {
            let (s, e) = number_span(line, [1, 3][(b % 2) as usize]);
            let v = u32::MAX as u64 + (b / 2) % 2;
            splice(line, s, e, v.to_string().as_bytes())
        }
        // Whitespace anywhere.
        3 => splice(line, at, at, [&b" "[..], b"\t", b"\r"][(b % 3) as usize]),
        // Truncation at any byte.
        4 => line[..at].to_vec(),
        // Reordered keys: swap `ts` with another field.
        5 => {
            let text = std::str::from_utf8(line).unwrap();
            let inner = &text[1..text.len() - 1];
            let mut fields: Vec<&str> = inner.split(',').collect();
            fields.swap(0, 1 + (b % 4) as usize);
            format!("{{{}}}", fields.join(",")).into_bytes()
        }
        // Duplicate key, before or after the original.
        6 => {
            let dup = format!(
                "\"{}\":{},",
                ["ts", "item", "offset", "len"][field],
                b % 1000
            );
            if b & 1 == 0 {
                splice(line, 1, 1, dup.as_bytes())
            } else {
                let close = line.len() - 1;
                let tail = format!(",{}", dup.trim_end_matches(','));
                splice(line, close, close, tail.as_bytes())
            }
        }
        // Unknown key.
        7 => splice(line, 1, 1, b"\"x\":1,"),
        // Kind spellings: wrong case, prefixes, extensions, escapes.
        8 => {
            let kinds: [&[u8]; 8] = [
                b"read",
                b"READ",
                b"Rea",
                b"Writ",
                b"Reads",
                b"Writes",
                b"\\u0052ead",
                b"Wr\\u0069te",
            ];
            let k = line.windows(8).position(|w| w == b"\"kind\":\"").unwrap() + 8;
            splice(line, k, line.len() - 2, kinds[(b % 8) as usize])
        }
        // A string where a number belongs.
        9 => {
            let quoted = format!("\"{}\"", std::str::from_utf8(&line[start..end]).unwrap());
            splice(line, start, end, quoted.as_bytes())
        }
        // Trailing bytes after the object.
        10 => [line, [&b" "[..], b"x", b"}", b","][(b % 4) as usize]].concat(),
        // Any single byte overwritten.
        _ => {
            let mut m = line.to_vec();
            if at < m.len() {
                m[at] = b as u8;
            }
            m
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Every line `format_event` writes takes the fast path and decodes
    /// to the record it came from, `u64::MAX`/`u32::MAX` fields included.
    #[test]
    fn canonical_decodes_every_formatted_record(rec in record()) {
        prop_assert_eq!(parse_canonical(format_event(&rec).as_bytes()), Some(rec));
    }

    /// On mutated canonical lines the fast path either declines or agrees
    /// with the general grammar: it never accepts a line the grammar
    /// rejects, and never reads one differently.
    #[test]
    fn canonical_never_disagrees_with_the_general_grammar(
        rec in record(),
        op in 0u8..12,
        a in any::<usize>(),
        b in any::<u64>(),
    ) {
        let line = mutate(format_event(&rec).as_bytes(), op, a, b);
        if let Some(fast) = parse_canonical(&line) {
            let text = std::str::from_utf8(&line).expect("fast path accepts ASCII only");
            prop_assert_eq!(parse_event_borrowed(text), Ok(fast), "line {:?}", text);
        }
    }
}

/// Exhaustive companion to the mutation property on a few fixed lines:
/// every truncation and every single-byte insertion of a space, tab,
/// `\r`, zero or quote.
#[test]
fn canonical_declines_or_agrees_at_every_byte() {
    let recs = [
        LogicalIoRecord {
            ts: Micros(u64::MAX),
            item: DataItemId(u32::MAX),
            offset: u64::MAX,
            len: u32::MAX,
            kind: IoKind::Write,
        },
        LogicalIoRecord {
            ts: Micros(0),
            item: DataItemId(0),
            offset: 0,
            len: 0,
            kind: IoKind::Read,
        },
        LogicalIoRecord {
            ts: Micros(1_000_000),
            item: DataItemId(17),
            offset: 8192,
            len: 4096,
            kind: IoKind::Read,
        },
    ];
    for rec in recs {
        let line = format_event(&rec).into_bytes();
        let mut variants: Vec<Vec<u8>> = (0..line.len()).map(|i| line[..i].to_vec()).collect();
        for i in 0..=line.len() {
            for b in [b' ', b'\t', b'\r', b'0', b'"'] {
                variants.push(splice(&line, i, i, &[b]));
            }
        }
        for v in variants {
            if let Some(fast) = parse_canonical(&v) {
                let text = std::str::from_utf8(&v).unwrap();
                assert_eq!(parse_event_borrowed(text), Ok(fast), "line {text:?}");
            }
        }
    }
}

//! The JSON codec's string scanner: escapes next to multi-byte UTF-8,
//! empty and very long strings, truncation errors, and a property that
//! every value survives `to_compact` → `parse` unchanged, byte for
//! byte.

#![forbid(unsafe_code)]

use proptest::prelude::*;
use twl_telemetry::json::Json;

fn parse_str(text: &str) -> String {
    match Json::parse(text) {
        Ok(Json::Str(s)) => s,
        other => panic!("{text:?} did not parse to a string: {other:?}"),
    }
}

#[test]
fn multi_byte_scalars_next_to_escapes() {
    let escapes = [
        ("\\\"", "\""),
        ("\\\\", "\\"),
        ("\\n", "\n"),
        ("\\u00e9", "é"),
        ("\\u0001", "\u{1}"),
        ("\\/", "/"),
    ];
    for mb in ["é", "€", "𝄞", "ß€𝄞"] {
        for (escaped, plain) in escapes {
            for (text, want) in [
                (format!("\"{mb}{escaped}\""), format!("{mb}{plain}")),
                (format!("\"{escaped}{mb}\""), format!("{plain}{mb}")),
                (
                    format!("\"{mb}{escaped}{mb}{escaped}{mb}\""),
                    format!("{mb}{plain}{mb}{plain}{mb}"),
                ),
                (
                    format!("\"{escaped}{escaped}{mb}\""),
                    format!("{plain}{plain}{mb}"),
                ),
            ] {
                assert_eq!(parse_str(&text), want, "parsing {text:?}");
            }
        }
    }
}

#[test]
fn empty_strings_and_keys() {
    assert_eq!(parse_str("\"\""), "");
    let v = Json::parse("{\"\":\"\",\"k\":[\"\",\"\"]}").unwrap();
    assert_eq!(v.get("").and_then(Json::as_str), Some(""));
    assert_eq!(
        v.get("k"),
        Some(&Json::Arr(vec![Json::Str(String::new()); 2]))
    );
    assert_eq!(Json::parse(&v.to_compact()).unwrap(), v);
}

#[test]
fn megabyte_strings_round_trip() {
    // Long plain runs, long multi-byte runs, and escapes every few
    // hundred bytes, so both the run copy and the escape path carry
    // most of the document.
    let mut s = String::new();
    let mut i = 0u32;
    while s.len() < (1 << 20) + 7 {
        s.push_str(["plain ascii run ", "é€𝄞 ", "\"quoted\"\\ ", "\n\t"][i as usize % 4]);
        i += 1;
    }
    let plain = "x".repeat(1 << 20);
    let keyed = Json::Obj([(s.clone(), Json::Str(s.clone()))].into_iter().collect());
    for v in [Json::Str(s), Json::Str(plain), keyed] {
        let text = v.to_compact();
        let back = Json::parse(&text).expect("megabyte string parses");
        assert_eq!(back, v);
        assert_eq!(back.to_compact(), text);
    }
}

#[test]
fn truncated_strings_are_unterminated() {
    for text in [
        "\"",
        "\"abc",
        "\"é€𝄞",
        "\"abc\\\"",
        "\"a\\u00e9b",
        "{\"key",
        "{\"k\":\"v",
        "[\"a\",\"b",
    ] {
        let err = Json::parse(text).expect_err(text);
        assert!(err.contains("unterminated string"), "{text:?} gave `{err}`");
    }
}

/// A SplitMix64 stream, so one proptest seed expands into a whole
/// nested document.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn below_u32(&mut self, n: u32) -> u32 {
        u32::try_from(self.below(u64::from(n))).expect("below a u32 bound")
    }

    /// Any scalar value, weighted toward the bytes the scanner treats
    /// specially and toward each UTF-8 encoding length.
    fn char(&mut self) -> char {
        const SPECIAL: [char; 11] = [
            '"', '\\', '/', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{0}', '\u{1f}', '\u{7f}',
        ];
        loop {
            let c = match self.below(6) {
                0 => Some(SPECIAL[self.below_u32(11) as usize]),
                1 => char::from_u32(0x20 + self.below_u32(0x5f)),
                2 => char::from_u32(0x80 + self.below_u32(0x780)),
                3 => char::from_u32(0x800 + self.below_u32(0xF800)),
                4 => char::from_u32(0x1_0000 + self.below_u32(0x10_0000)),
                _ => char::from_u32(self.below_u32(0x11_0000)),
            };
            if let Some(c) = c {
                return c;
            }
        }
    }

    fn string(&mut self) -> String {
        (0..self.below(12)).map(|_| self.char()).collect()
    }

    fn value(&mut self, depth: u32) -> Json {
        match self.below(if depth == 0 { 5 } else { 7 }) {
            0 => Json::Null,
            1 => Json::Bool(self.next() & 1 == 1),
            2 => Json::Int(i128::from(self.next()) - i128::from(u64::MAX / 2)),
            3 => {
                // JSON has no NaN or infinity; every finite value,
                // huge integral ones included, must round-trip.
                let f = f64::from_bits(self.next());
                Json::Float(if f.is_finite() { f } else { 0.5 })
            }
            4 => Json::Str(self.string()),
            5 => Json::Arr((0..self.below(5)).map(|_| self.value(depth - 1)).collect()),
            _ => Json::Obj(
                (0..self.below(5))
                    .map(|_| (self.string(), self.value(depth - 1)))
                    .collect(),
            ),
        }
    }
}

proptest! {
    #[test]
    fn random_documents_round_trip_byte_for_byte(seed in any::<u64>()) {
        let v = Gen(seed).value(4);
        let text = v.to_compact();
        let back = Json::parse(&text);
        prop_assert_eq!(back.as_ref(), Ok(&v));
        prop_assert_eq!(back.map(|b| b.to_compact()), Ok(text));
    }
}

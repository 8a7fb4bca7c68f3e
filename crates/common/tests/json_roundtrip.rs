//! The codec's own law: for any value the writer can be handed,
//! `parse(write(v)) == v` — over nested arrays and objects, integers past
//! 2^53 (composite trace ids have the top bit set), strings with every
//! control character, and floats under the float rule (finite → the same
//! bits back, non-finite → `null`).

use hcq_common::det::{mix2, unit_range};
use hcq_common::json::{parse, write_f64, write_str, JsonValue};
use proptest::prelude::*;

/// A pseudo-random value tree: a pure function of `seed`, at most `depth`
/// containers deep. Keys are made distinct by their index (the parser
/// rejects duplicates by design).
fn value(seed: u64, depth: u32) -> JsonValue {
    let pick = unit_range(mix2(seed, 1), 0, if depth == 0 { 5 } else { 7 });
    let n = unit_range(mix2(seed, 2), 0, 4);
    match pick {
        0 => JsonValue::Null,
        1 => JsonValue::Bool(seed & 1 == 1),
        // Ids: the full u64 range, biased past 2^53.
        2 => JsonValue::from_u64(mix2(seed, 3) | (1 << 63)),
        3 => JsonValue::from_u64(mix2(seed, 3) >> unit_range(mix2(seed, 4), 0, 63)),
        4 => JsonValue::from_f64(float(mix2(seed, 5))),
        5 => JsonValue::Str(string(mix2(seed, 6))),
        6 => JsonValue::Arr(
            (0..n)
                .map(|i| value(mix2(seed, 10 + i), depth - 1))
                .collect(),
        ),
        _ => JsonValue::Obj(
            (0..n)
                .map(|i| {
                    let key = format!("{i}{}", string(mix2(seed, 20 + i)));
                    (key, value(mix2(seed, 30 + i), depth - 1))
                })
                .collect(),
        ),
    }
}

/// Any bit pattern, so NaN, ±∞, subnormals and -0.0 all occur; one draw in
/// four is forced non-finite.
fn float(bits: u64) -> f64 {
    match bits & 3 {
        0 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][(bits >> 2) as usize % 3],
        _ => f64::from_bits(bits),
    }
}

/// Up to eight scalars: control characters, quotes and backslashes, ASCII,
/// and arbitrary (possibly multibyte) scalars.
fn string(seed: u64) -> String {
    (0..unit_range(mix2(seed, 0), 0, 8))
        .map(|i| {
            let h = mix2(seed, 100 + i);
            match h & 3 {
                0 => char::from(unit_range(h >> 2, 0, 0x1f) as u8),
                1 => ['"', '\\', '/', '\u{7f}'][(h >> 2) as usize % 4],
                2 => char::from(unit_range(h >> 2, 0x20, 0x7e) as u8),
                _ => char::from_u32((h >> 2) as u32 % 0x11_0000).unwrap_or('\u{fffd}'),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_of_write_is_identity(seed in any::<u64>()) {
        let v = value(seed, 3);
        let text = v.to_string();
        prop_assert!(!text.contains('\n'), "compact output is one line: {text:?}");
        let back = parse(&text);
        prop_assert!(back.as_ref() == Ok(&v), "{v:?}\n wrote {text:?}\n read {back:?}");
        // Deterministic: writing the parsed value again is byte-identical.
        prop_assert_eq!(back.unwrap().to_string(), text);
    }

    #[test]
    fn primitives_round_trip(bits in any::<u64>(), seed in any::<u64>()) {
        let x = float(bits);
        let mut out = String::new();
        write_f64(&mut out, x);
        let back = parse(&out).expect("the float rule writes JSON");
        if x.is_finite() {
            prop_assert_eq!(back.as_f64().map(f64::to_bits), Some(x.to_bits()));
            prop_assert_eq!(JsonValue::from_f64(x).as_f64().map(f64::to_bits), Some(x.to_bits()));
        } else {
            prop_assert_eq!(&back, &JsonValue::Null);
            prop_assert_eq!(JsonValue::from_f64(x), JsonValue::Null);
        }
        let s = string(seed);
        out.clear();
        write_str(&mut out, &s);
        prop_assert_eq!(parse(&out), Ok(JsonValue::Str(s)));
    }
}

//! JSON text helpers. Writing is by hand (the output shapes are fixed and
//! small); reading goes through `hcq_inspect`'s strict parser.

pub use hcq_inspect::{parse_json as parse, JsonValue};

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with all its digits: Rust prints the shortest text that
/// parses back to the identical `f64`. Non-finite values have no JSON form
/// and become `null`, which the reader rejects as a missing number.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// `{"k":v,...}` from already-rendered values.
pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{}:{}", string(k), v))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// `{"name":number,...}` from named values.
pub fn number_map(pairs: &[(String, f64)]) -> String {
    object(pairs.iter().map(|(k, v)| (k.as_str(), num(*v))))
}

/// Read back a [`number_map`].
pub fn read_number_map(v: &JsonValue) -> Option<Vec<(String, f64)>> {
    v.as_obj()?
        .iter()
        .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_round_trip_bit_for_bit() {
        for x in [0.1 + 0.2, 1.0 / 3.0, 197.6682, 9.00092e5, 1e-9, 4.2e15] {
            let back = parse(&num(x)).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits());
        }
        assert_eq!(num(f64::NAN), "null");
    }

    #[test]
    fn strings_are_escaped() {
        let s = "a\"b\\c\nd\u{1}";
        assert_eq!(parse(&string(s)).unwrap().as_str(), Some(s));
    }

    #[test]
    fn number_maps_round_trip() {
        let pairs = vec![("a.b".to_string(), 1.5), ("c".to_string(), -2.0)];
        let text = number_map(&pairs);
        assert_eq!(read_number_map(&parse(&text).unwrap()).unwrap(), pairs);
    }
}

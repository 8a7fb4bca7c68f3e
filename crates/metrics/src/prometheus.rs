//! Prometheus text-exposition-format export.
//!
//! [`render_prometheus`] turns a [`TelemetrySnapshot`] into the text format
//! scraped by Prometheus (version 0.0.4): one `# HELP`/`# TYPE` pair per
//! metric family followed by its samples, counters suffixed `_total`,
//! summaries expanded into `quantile`-labeled lines plus `_sum`/`_count`.
//! Rendering is deterministic — families appear in registration order and
//! floats use Rust's shortest-roundtrip formatting.
//!
//! [`check_exposition`] is a small hand-written validator of the grammar
//! (no network, no regex crate): CI uses it to prove exported files parse
//! before anything scrapes them.

use crate::telemetry::{MetricValue, TelemetrySnapshot};

/// Render a snapshot in Prometheus text exposition format. Each family gets
/// `# HELP` and `# TYPE` lines at its first sample; families must be
/// registered contiguously (the registry's convention), which keeps the
/// output grammatical.
pub fn render_prometheus(snapshot: &TelemetrySnapshot) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    let mut last_family: Option<&str> = None;
    for m in &snapshot.metrics {
        if last_family != Some(m.name) {
            let _ = writeln!(out, "# HELP {} {}", m.name, m.help);
            let _ = writeln!(out, "# TYPE {} {}", m.name, m.kind().name());
            last_family = Some(m.name);
        }
        match &m.value {
            MetricValue::Counter(c) => {
                let _ = writeln!(out, "{}{} {}", m.name, labels(&m.labels, None), c);
            }
            MetricValue::Gauge(g) => {
                let _ = writeln!(out, "{}{} {}", m.name, labels(&m.labels, None), g);
            }
            MetricValue::Summary(s) => {
                for (q, v) in [
                    ("0.5", s.p50),
                    ("0.95", s.p95),
                    ("0.99", s.p99),
                    ("1", s.max),
                ] {
                    let _ = writeln!(out, "{}{} {}", m.name, labels(&m.labels, Some(q)), v);
                }
                let _ = writeln!(out, "{}_sum{} {}", m.name, labels(&m.labels, None), s.sum);
                let _ = writeln!(
                    out,
                    "{}_count{} {}",
                    m.name,
                    labels(&m.labels, None),
                    s.count
                );
            }
        }
    }
    out
}

/// Render a label set, optionally with a trailing `quantile` label. Empty
/// label sets render as nothing (no `{}`).
fn labels(pairs: &[(&'static str, String)], quantile: Option<&str>) -> String {
    if pairs.is_empty() && quantile.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&escape(v));
        out.push('"');
    }
    if let Some(q) = quantile {
        if !pairs.is_empty() {
            out.push(',');
        }
        out.push_str("quantile=\"");
        out.push_str(q);
        out.push('"');
    }
    out.push('}');
    out
}

/// Escape a label value the way the exposition format's grammar asks:
/// backslash, double quote, and newline — nothing else (this is not JSON).
fn escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Validate text against the exposition-format grammar. Checks line shapes
/// (`# HELP`, `# TYPE`, comments, samples), metric/label name charsets,
/// label-value escaping, numeric sample values, at most one HELP/TYPE per
/// family, TYPE declarations preceding their samples, known TYPE keywords,
/// and that family blocks do not interleave. Returns the first violation
/// with its 1-based line number.
pub fn check_exposition(text: &str) -> Result<(), String> {
    let mut declared_type: Vec<(String, String)> = Vec::new();
    let mut helped: Vec<String> = Vec::new();
    let mut closed: Vec<String> = Vec::new();
    let mut current: Option<String> = None;
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, _help) = rest
                .split_once(' ')
                .ok_or_else(|| format!("line {n}: HELP without help text"))?;
            check_metric_name(name).map_err(|e| format!("line {n}: {e}"))?;
            if helped.iter().any(|h| h == name) {
                return Err(format!("line {n}: duplicate HELP for family {name}"));
            }
            helped.push(name.to_string());
            enter_family(name, &mut current, &mut closed).map_err(|e| format!("line {n}: {e}"))?;
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest
                .split_once(' ')
                .ok_or_else(|| format!("line {n}: TYPE without a kind"))?;
            check_metric_name(name).map_err(|e| format!("line {n}: {e}"))?;
            if !matches!(
                kind,
                "counter" | "gauge" | "summary" | "histogram" | "untyped"
            ) {
                return Err(format!("line {n}: unknown TYPE kind {kind:?}"));
            }
            if declared_type.iter().any(|(f, _)| f == name) {
                return Err(format!("line {n}: duplicate TYPE for family {name}"));
            }
            declared_type.push((name.to_string(), kind.to_string()));
            enter_family(name, &mut current, &mut closed).map_err(|e| format!("line {n}: {e}"))?;
            continue;
        }
        if line.starts_with('#') {
            continue; // plain comment
        }
        parse_sample(line, &declared_type, &mut current, &mut closed)
            .map_err(|e| format!("line {n}: {e}"))?;
    }
    Ok(())
}

/// Track the family a line belongs to; re-entering a family after another
/// family's block began is the interleaving the grammar forbids.
fn enter_family(
    family: &str,
    current: &mut Option<String>,
    closed: &mut Vec<String>,
) -> Result<(), String> {
    if current.as_deref() == Some(family) {
        return Ok(());
    }
    if closed.iter().any(|c| c == family) {
        return Err(format!("family {family} interleaves with another family"));
    }
    if let Some(prev) = current.take() {
        closed.push(prev);
    }
    *current = Some(family.to_string());
    Ok(())
}

/// Validate one sample line and attribute it to its family (stripping the
/// summary/histogram `_sum`/`_count`/`_bucket` suffixes when the base name
/// was declared with a matching TYPE).
fn parse_sample(
    line: &str,
    declared_type: &[(String, String)],
    current: &mut Option<String>,
    closed: &mut Vec<String>,
) -> Result<(), String> {
    let name_end = line
        .find(['{', ' '])
        .ok_or_else(|| "sample without a value".to_string())?;
    let name = &line[..name_end];
    check_metric_name(name)?;
    let mut rest = &line[name_end..];
    if let Some(after_brace) = rest.strip_prefix('{') {
        let end = find_label_block_end(after_brace)
            .ok_or_else(|| "unterminated label block".to_string())?;
        check_labels(&after_brace[..end])?;
        rest = &after_brace[end + 1..];
    }
    let rest = rest
        .strip_prefix(' ')
        .ok_or_else(|| "missing space before sample value".to_string())?;
    let mut parts = rest.split(' ');
    let value = parts.next().unwrap_or("");
    if !is_valid_value(value) {
        return Err(format!("invalid sample value {value:?}"));
    }
    if let Some(ts) = parts.next() {
        if ts.parse::<i64>().is_err() {
            return Err(format!("invalid timestamp {ts:?}"));
        }
    }
    if parts.next().is_some() {
        return Err("trailing tokens after timestamp".to_string());
    }
    // Attribute the sample to its declared family, honoring suffixes.
    let family = family_of(name, declared_type);
    if let Some((_, kind)) = declared_type.iter().find(|(f, _)| f == family) {
        let suffix = &name[family.len()..];
        let ok = match kind.as_str() {
            "summary" => matches!(suffix, "" | "_sum" | "_count"),
            "histogram" => matches!(suffix, "" | "_sum" | "_count" | "_bucket"),
            _ => suffix.is_empty(),
        };
        if !ok {
            return Err(format!(
                "sample {name} not allowed for {kind} family {family}"
            ));
        }
        enter_family(family, current, closed)?;
    } else {
        // Untyped families are legal; samples must still not interleave,
        // and TYPE (if any) must come before the samples it describes.
        enter_family(name, current, closed)?;
    }
    Ok(())
}

/// Resolve the declared family a sample name belongs to, stripping the
/// `_sum`/`_count`/`_bucket` suffix when the base was declared.
fn family_of<'a>(name: &'a str, declared_type: &[(String, String)]) -> &'a str {
    for suffix in ["_sum", "_count", "_bucket"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if declared_type.iter().any(|(f, _)| f == base) {
                return base;
            }
        }
    }
    name
}

/// The end index of a label block's interior (position of the closing `}`),
/// skipping quoted strings with escapes.
fn find_label_block_end(s: &str) -> Option<usize> {
    let bytes = s.as_bytes();
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate() {
        if escaped {
            escaped = false;
            continue;
        }
        match b {
            b'\\' if in_quotes => escaped = true,
            b'"' => in_quotes = !in_quotes,
            b'}' if !in_quotes => return Some(i),
            _ => {}
        }
    }
    None
}

/// Validate a label block interior: `name="value"` pairs, comma-separated,
/// with only `\\`, `\"`, and `\n` escapes inside values.
fn check_labels(interior: &str) -> Result<(), String> {
    let mut rest = interior;
    loop {
        let eq = rest
            .find('=')
            .ok_or_else(|| "label without '='".to_string())?;
        check_label_name(&rest[..eq])?;
        let after_eq = &rest[eq + 1..];
        let value = after_eq
            .strip_prefix('"')
            .ok_or_else(|| "label value must be quoted".to_string())?;
        let mut end = None;
        let mut escaped = false;
        for (i, c) in value.char_indices() {
            if escaped {
                if !matches!(c, '\\' | '"' | 'n') {
                    return Err(format!("invalid escape \\{c} in label value"));
                }
                escaped = false;
                continue;
            }
            match c {
                '\\' => escaped = true,
                '"' => {
                    end = Some(i);
                    break;
                }
                _ => {}
            }
        }
        let end = end.ok_or_else(|| "unterminated label value".to_string())?;
        rest = &value[end + 1..];
        if rest.is_empty() {
            return Ok(());
        }
        rest = rest
            .strip_prefix(',')
            .ok_or_else(|| "labels must be comma-separated".to_string())?;
    }
}

fn check_metric_name(name: &str) -> Result<(), String> {
    let mut chars = name.chars();
    let ok_first = chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':');
    if !ok_first || !chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':') {
        return Err(format!("invalid metric name {name:?}"));
    }
    Ok(())
}

fn check_label_name(name: &str) -> Result<(), String> {
    let mut chars = name.chars();
    let ok_first = chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_');
    if !ok_first || !chars.all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return Err(format!("invalid label name {name:?}"));
    }
    Ok(())
}

fn is_valid_value(value: &str) -> bool {
    matches!(value, "+Inf" | "-Inf" | "NaN") || value.parse::<f64>().is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::TelemetryRegistry;
    use hcq_common::Nanos;

    #[test]
    fn escape_is_the_exposition_formats_three_rules() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\te");
    }

    fn sample_snapshot() -> TelemetrySnapshot {
        let mut reg = TelemetryRegistry::new();
        let c = reg.counter("hcq_emitted_total", "Tuples emitted", vec![]);
        let g0 = reg.gauge(
            "hcq_queue_depth",
            "Pending tuples",
            vec![("unit", "0".into())],
        );
        let g1 = reg.gauge(
            "hcq_queue_depth",
            "Pending tuples",
            vec![("unit", "1".into())],
        );
        let s = reg.summary("hcq_slowdown", "Windowed slowdown", vec![]);
        reg.set_counter(c, 42);
        reg.set_gauge(g0, 3.0);
        reg.set_gauge(g1, 0.5);
        reg.observe(s, 1.0);
        reg.observe(s, 4.0);
        reg.snapshot(Nanos::from_millis(100))
    }

    #[test]
    fn renders_families_in_exposition_format() {
        let text = render_prometheus(&sample_snapshot());
        let expected = "\
# HELP hcq_emitted_total Tuples emitted
# TYPE hcq_emitted_total counter
hcq_emitted_total 42
# HELP hcq_queue_depth Pending tuples
# TYPE hcq_queue_depth gauge
hcq_queue_depth{unit=\"0\"} 3
hcq_queue_depth{unit=\"1\"} 0.5
# HELP hcq_slowdown Windowed slowdown
# TYPE hcq_slowdown summary
hcq_slowdown{quantile=\"0.5\"} 1
hcq_slowdown{quantile=\"0.95\"} 4
hcq_slowdown{quantile=\"0.99\"} 4
hcq_slowdown{quantile=\"1\"} 4
hcq_slowdown_sum 5
hcq_slowdown_count 2
";
        assert_eq!(text, expected);
    }

    #[test]
    fn rendered_output_passes_the_checker() {
        check_exposition(&render_prometheus(&sample_snapshot())).unwrap();
    }

    #[test]
    fn checker_accepts_valid_corner_cases() {
        check_exposition("").unwrap();
        check_exposition("# a plain comment\n").unwrap();
        check_exposition("x 1\n").unwrap(); // untyped family, no declarations
        check_exposition("x{a=\"b\\\"c\\\\d\\ne\"} +Inf 123\n").unwrap();
        check_exposition("# TYPE h histogram\nh_bucket{le=\"1\"} 0\nh_sum 0\nh_count 0\n").unwrap();
    }

    #[test]
    fn checker_rejects_malformed_lines() {
        let cases: &[(&str, &str)] = &[
            ("1bad_name 1\n", "invalid metric name"),
            ("x{1a=\"v\"} 1\n", "invalid label name"),
            ("x{a=v} 1\n", "label value must be quoted"),
            ("x{a=\"v} 1\n", "unterminated label block"),
            ("x{a=\"\\x\"} 1\n", "invalid escape"),
            ("x notanumber\n", "invalid sample value"),
            ("x 1 notatimestamp\n", "invalid timestamp"),
            ("x 1 2 3\n", "trailing tokens"),
            ("# HELP x one\n# HELP x two\nx 1\n", "duplicate HELP"),
            ("# TYPE x gauge\n# TYPE x gauge\nx 1\n", "duplicate TYPE"),
            ("# TYPE x widget\nx 1\n", "unknown TYPE kind"),
            ("x 1\ny 2\nx 3\n", "interleaves"),
            ("# TYPE x gauge\nx_sum 1\n", "not allowed"),
            ("x\n", "sample without a value"),
        ];
        for (text, want) in cases {
            let err = check_exposition(text).unwrap_err();
            assert!(
                err.contains(want),
                "for {text:?}: expected {want:?} in error, got {err:?}"
            );
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = check_exposition("ok 1\nbroken !\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "got {err:?}");
    }
}

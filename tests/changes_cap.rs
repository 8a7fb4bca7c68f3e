//! CHANGES.md stays a readable log: one line per change says what changed
//! and what was measured, and the narrative of how lives in DESIGN.md or
//! EXPERIMENTS.md. An entry line (`PR N: …`, from `FIRST_CAPPED` on) is at
//! most `ENTRY_CAP` bytes and a `FOUND:` line at most `FOUND_CAP`; earlier
//! entries, written before the cap, are exempt.

/// The first entry number the cap binds.
const FIRST_CAPPED: u32 = 35;
const ENTRY_CAP: usize = 6_000;
const FOUND_CAP: usize = 1_500;

/// Every `(line number, limit, length)` of `text` over its cap.
fn over_cap(text: &str) -> Vec<(usize, usize, usize)> {
    (1..)
        .zip(text.lines())
        .filter_map(|(n, line)| {
            let entry = line
                .strip_prefix("PR ")
                .and_then(|rest| rest.split_once(':'))
                .and_then(|(number, _)| number.parse::<u32>().ok());
            let cap = match entry {
                Some(number) if number >= FIRST_CAPPED => ENTRY_CAP,
                _ if line.starts_with("FOUND:") => FOUND_CAP,
                _ => return None,
            };
            (line.len() > cap).then_some((n, cap, line.len()))
        })
        .collect()
}

#[test]
fn changes_entries_stay_under_their_caps() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/CHANGES.md"))
        .expect("CHANGES.md is readable");
    let over: Vec<String> = over_cap(&text)
        .into_iter()
        .map(|(n, cap, len)| format!("CHANGES.md:{n}: {len} bytes, cap {cap}"))
        .collect();
    assert!(
        over.is_empty(),
        "lines over their cap:\n{}",
        over.join("\n")
    );
}

#[test]
fn caps_bind_new_entries_and_every_found_line() {
    let long = "x".repeat(ENTRY_CAP);
    let text = format!(
        "PR 34: {long}\nPR 35: {long}\nPR 36: short\nFOUND: {}\nMENDED: {long}\n",
        "y".repeat(FOUND_CAP)
    );
    let lines: Vec<usize> = over_cap(&text).into_iter().map(|(n, _, _)| n).collect();
    assert_eq!(lines, [2, 4]);
}

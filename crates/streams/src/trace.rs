//! Trace record and replay.
//!
//! The Internet Traffic Archive distributes packet traces as text listings
//! whose first whitespace-separated column is a fractional-seconds
//! timestamp. [`TraceReplay`] reads that format (ignoring further columns,
//! blank lines, and `#` comments), so the paper's actual LBL-PKT-4 trace can
//! be dropped into any experiment; [`record_trace`] writes the same format,
//! letting synthetic workloads be archived and replayed bit-identically.

use std::io::{BufRead, BufReader, Read, Write};

use hcq_common::{HcqError, Nanos, Result};

use crate::source::ArrivalSource;

/// Replays arrivals parsed from a trace.
#[derive(Debug, Clone)]
pub struct TraceReplay {
    arrivals: Vec<Nanos>,
    cursor: usize,
}

impl TraceReplay {
    /// Replay an explicit timestamp list (must be non-decreasing).
    pub fn from_arrivals(arrivals: Vec<Nanos>) -> Result<Self> {
        if arrivals.windows(2).any(|w| w[0] > w[1]) {
            return Err(HcqError::trace("timestamps must be non-decreasing"));
        }
        Ok(TraceReplay {
            arrivals,
            cursor: 0,
        })
    }

    /// Parse an ITA-style text trace: first column is a fractional-seconds
    /// timestamp; `#`-prefixed lines and blank lines are skipped.
    pub fn parse<R: Read>(reader: R) -> Result<Self> {
        let mut arrivals = Vec::new();
        for (lineno, line) in BufReader::new(reader).lines().enumerate() {
            let line = line?;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let first = trimmed
                .split_whitespace()
                .next()
                .expect("non-empty trimmed line has a token");
            let secs: f64 = first.parse().map_err(|_| {
                HcqError::trace(format!(
                    "line {}: expected fractional-seconds timestamp, got {first:?}",
                    lineno + 1
                ))
            })?;
            if !secs.is_finite() || secs < 0.0 {
                return Err(HcqError::trace(format!(
                    "line {}: timestamp {secs} out of range",
                    lineno + 1
                )));
            }
            arrivals.push(Nanos::from_secs_f64(secs));
        }
        Self::from_arrivals(arrivals)
    }

    /// Number of arrivals remaining.
    pub fn remaining(&self) -> usize {
        self.arrivals.len() - self.cursor
    }

    /// Total arrivals in the trace.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// True when the trace holds no arrivals.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }
}

impl ArrivalSource for TraceReplay {
    fn next_arrival(&mut self) -> Option<Nanos> {
        let t = self.arrivals.get(self.cursor).copied()?;
        self.cursor += 1;
        Some(t)
    }
}

/// Write arrivals in the ITA-style text format consumed by
/// [`TraceReplay::parse`].
pub fn record_trace<W: Write>(writer: &mut W, arrivals: &[Nanos]) -> Result<()> {
    for &t in arrivals {
        writeln!(writer, "{:.9}", t.as_secs_f64())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::collect_arrivals;

    #[test]
    fn parse_ita_listing() {
        let text = "# LBL-PKT style\n0.001 src dst 42\n\n0.003 src dst 99\n1.5\n";
        let mut replay = TraceReplay::parse(text.as_bytes()).unwrap();
        assert_eq!(replay.len(), 3);
        let got = collect_arrivals(&mut replay, 10);
        assert_eq!(
            got,
            vec![
                Nanos::from_micros(1_000),
                Nanos::from_micros(3_000),
                Nanos::from_millis(1_500)
            ]
        );
        assert_eq!(replay.remaining(), 0);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(TraceReplay::parse("abc def".as_bytes()).is_err());
        assert!(TraceReplay::parse("-1.0".as_bytes()).is_err());
        assert!(TraceReplay::parse("inf".as_bytes()).is_err());
    }

    #[test]
    fn decreasing_timestamps_rejected() {
        assert!(TraceReplay::parse("2.0\n1.0".as_bytes()).is_err());
        assert!(TraceReplay::from_arrivals(vec![Nanos(5), Nanos(3)]).is_err());
    }

    #[test]
    fn roundtrip_record_parse() {
        let arrivals: Vec<Nanos> = (1..200u64).map(|i| Nanos::from_micros(i * 137)).collect();
        let mut buf = Vec::new();
        record_trace(&mut buf, &arrivals).unwrap();
        let mut replay = TraceReplay::parse(buf.as_slice()).unwrap();
        let got = collect_arrivals(&mut replay, arrivals.len());
        assert_eq!(got, arrivals);
    }

    #[test]
    fn empty_trace_is_fine() {
        let replay = TraceReplay::parse("# nothing\n".as_bytes()).unwrap();
        assert!(replay.is_empty());
        assert_eq!(replay.len(), 0);
    }
}

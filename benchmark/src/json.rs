//! The few JSON shapes the benchmark writes: the driver's result line,
//! `BENCHMARK.json`, and the trace file. Writing only — the one place
//! JSON is read back (`--repeat-check` parsing its own result lines)
//! lives next to the writer so the two cannot drift apart.

use std::fmt::Write as _;

/// A metric, workload or span name: `[A-Za-z0-9_.-]+`, at most 64
/// characters, starting with a letter or digit (the contract's rule).
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit the measurement has. Panics on a
/// non-finite value: a metric that is NaN or infinite is a bug in the
/// benchmark, not a result.
pub fn number(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    format!("{v}")
}

/// One measured value with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result line the driver reads: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`, on one line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Measured]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        assert!(valid_name(m.name), "bad metric name {:?}", m.name);
        assert!(!m.unit.is_empty(), "metric {} has no unit", m.name);
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            string(m.name),
            number(m.value),
            string(m.unit)
        );
    }
    out.push_str("}}");
    out
}

/// What `--repeat-check` needs back out of a result line.
#[derive(Debug, PartialEq)]
pub struct ParsedResult {
    pub correct: bool,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

/// Parses a line written by [`result_line`]. Not a general JSON
/// parser: it relies on that writer's exact layout.
pub fn parse_result_line(line: &str) -> Option<ParsedResult> {
    let correct = line.strip_prefix("{\"correct\": ")?.starts_with("true");
    let failed = line
        .split("\"failed\": ")
        .nth(1)?
        .split(',')
        .next()?
        .parse()
        .ok()?;
    const VALUE: &str = "\": {\"value\": ";
    let mut rest = line.split("\"metrics\": {").nth(1)?;
    let mut metrics = Vec::new();
    while let Some(name_end) = rest.find(VALUE) {
        let name_start = rest[..name_end].rfind('"')? + 1;
        let after = &rest[name_end + VALUE.len()..];
        let value_end = after.find(',')?;
        metrics.push((
            rest[name_start..name_end].to_string(),
            after[..value_end].parse().ok()?,
        ));
        rest = &after[value_end..];
    }
    Some(ParsedResult {
        correct,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_contract() {
        for ok in ["setup_s", "network.sp.node_dist_us", "p99-us", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".hidden", "a b", "µs", "a/b", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_round_trips() {
        let metrics = [
            Measured {
                name: "setup_s",
                value: 0.8127,
                unit: "s",
            },
            Measured {
                name: "query_p99_us",
                value: 1203.4567891,
                unit: "us",
            },
        ];
        let line = result_line(true, 1000, 0, &metrics);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"query_p99_us\": {\"value\": 1203.4567891, \"unit\": \"us\"}}}"
        );
        assert!(!line.contains('\n'));
        let parsed = parse_result_line(&line).unwrap();
        assert!(parsed.correct);
        assert_eq!(parsed.failed, 0);
        assert_eq!(
            parsed.metrics,
            vec![
                ("setup_s".to_string(), 0.8127),
                ("query_p99_us".to_string(), 1203.4567891)
            ]
        );
    }

    #[test]
    #[should_panic(expected = "has no unit")]
    fn a_metric_without_a_unit_is_refused() {
        result_line(
            true,
            1,
            0,
            &[Measured {
                name: "x",
                value: 1.0,
                unit: "",
            }],
        );
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}

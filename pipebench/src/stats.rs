//! Order statistics and the naming rules the harness enforces on itself.

/// Samples that must lie strictly above a reported percentile. A tail
/// percentile resting on fewer samples is refused rather than reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `0..1`) of `samples`, plus the number
/// of samples strictly beyond its rank. Refuses when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Result<(f64, usize), String> {
    assert!(
        (0.0..1.0).contains(&q),
        "percentile rank must lie in [0, 1)"
    );
    let n = samples.len();
    if n == 0 {
        return Err(format!("p{}: no samples", q * 100.0));
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    let beyond = n - 1 - rank;
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{} over {n} samples leaves {beyond} beyond it; at least {MIN_BEYOND} are needed",
            q * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok((sorted[rank], beyond))
}

/// The median of `samples` (the mean of the middle pair for even counts);
/// `0.0` when empty, which is how layers that did not run report.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Whether `name` is a valid metric or workload name: it starts with a
/// letter or digit and holds at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.99), Ok((990.0, 10)));
        let err = percentile(&samples[..999], 0.99).unwrap_err();
        assert!(err.contains("leaves 9 beyond it"), "{err}");
    }

    #[test]
    fn percentile_reports_the_count_beyond_its_rank() {
        let samples: Vec<f64> = (0..100).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), Ok((49.0, 50)));
        assert_eq!(percentile(&samples, 0.0), Ok((0.0, 99)));
        assert!(percentile(&[], 0.5).is_err());
        assert!(percentile(&[1.0; 10], 0.5).is_err());
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn names_follow_the_metric_naming_rule() {
        for ok in ["dtg-plain", "slide_p99_us", "core.apply_us_p50", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "-lead",
            ".dot",
            "has space",
            "slash/name",
            "é",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        for ok in ["ms", "1/s", "%", "count", "MiB", "records/s"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "µs", "a unit", "x".repeat(17).as_str()] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }
}

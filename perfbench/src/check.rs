//! The correctness checks every run applies to the program's outputs.

use gnna_bench::accuracy::{compare_rows, Accuracy};

/// Grades simulated rows against the functional reference: a pass needs
/// zero label flips, zero non-finite values and a maximum relative error
/// within `tolerance`.
///
/// # Errors
///
/// A message naming the first violated condition.
pub fn grade(
    reference: &[Vec<f32>],
    simulated: &[Vec<f32>],
    tolerance: f64,
) -> Result<Accuracy, String> {
    let acc = sound(reference, simulated)?;
    if acc.max_rel_err > tolerance {
        return Err(format!(
            "max relative error {:e} exceeds the tolerance {tolerance:e}",
            acc.max_rel_err
        ));
    }
    Ok(acc)
}

/// [`compare_rows`] plus the conditions every graded output must meet:
/// zero label flips and zero non-finite values.
fn sound(reference: &[Vec<f32>], simulated: &[Vec<f32>]) -> Result<Accuracy, String> {
    let acc = compare_rows(reference, simulated).map_err(|e| e.to_string())?;
    if acc.label_flips > 0 {
        return Err(format!(
            "{} label flips against the reference",
            acc.label_flips
        ));
    }
    if acc.nonfinite > 0 {
        return Err(format!("{} non-finite output values", acc.nonfinite));
    }
    Ok(acc)
}

/// Like [`grade`], but bounds each row's largest absolute error relative
/// to the row's largest reference magnitude, which stays meaningful for
/// outputs near zero where the element-wise relative error does not.
///
/// # Errors
///
/// A message naming the first violated condition.
pub fn grade_scaled(
    reference: &[Vec<f32>],
    simulated: &[Vec<f32>],
    tolerance: f64,
) -> Result<(), String> {
    sound(reference, simulated)?;
    for (r, s) in reference.iter().zip(simulated) {
        let scale = r
            .iter()
            .map(|v| f64::from(v.abs()))
            .fold(f64::MIN_POSITIVE, f64::max);
        let err = r
            .iter()
            .zip(s)
            .map(|(a, b)| (f64::from(*a) - f64::from(*b)).abs())
            .fold(0.0, f64::max);
        if err / scale > tolerance {
            return Err(format!(
                "error {:e} of the row scale exceeds the tolerance {tolerance:e}",
                err / scale
            ));
        }
    }
    Ok(())
}

/// Checks a simulated cycle count against its pin, which holds only for
/// the seed it was taken on.
///
/// # Errors
///
/// A message when the seed is the pinned one and the counts differ.
pub fn pinned_cycles(pin: Option<(u64, u64)>, seed: u64, cycles: u64) -> Result<(), String> {
    match pin {
        Some((pin_seed, pin_cycles)) if pin_seed == seed && pin_cycles != cycles => Err(format!(
            "simulated {cycles} cycles on seed {seed}; pinned value is {pin_cycles}"
        )),
        _ => Ok(()),
    }
}

/// Compares the raw `"rows"` bytes of a response body with the expected
/// serialization, without reparsing any float.
///
/// # Errors
///
/// A message when the body has no rows or they differ.
pub fn rows_bytes(body: &str, expected: &str) -> Result<(), String> {
    match gnna_serve::loadgen::raw_rows(body) {
        None => Err("response has no rows".into()),
        Some(rows) if rows != expected => Err(format!(
            "rows differ from the reference serialization ({} vs {} bytes)",
            rows.len(),
            expected.len()
        )),
        Some(_) => Ok(()),
    }
}

/// Parses the `"rows"` array of a response body into floats, for
/// tolerance grading of simulated (cycle-mode) outputs.
pub fn parse_rows(body: &str) -> Option<Vec<Vec<f32>>> {
    let raw = gnna_serve::loadgen::raw_rows(body)?;
    let inner = raw.strip_prefix('[')?.strip_suffix(']')?;
    if inner.is_empty() {
        return Some(Vec::new());
    }
    inner
        .split("],[")
        .map(|row| {
            row.trim_matches(|c| c == '[' || c == ']')
                .split(',')
                .map(|v| {
                    if v == "null" {
                        Some(f32::NAN)
                    } else {
                        v.parse().ok()
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grade_rejects_flips_nonfinite_and_error() {
        let reference = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        assert!(grade(&reference, &reference, 0.0).is_ok());
        let flipped = vec![vec![0.0, 1.0], vec![0.0, 1.0]];
        assert!(grade(&reference, &flipped, 1e9)
            .unwrap_err()
            .contains("flip"));
        let nan = vec![vec![1.0, f32::NAN], vec![0.0, 1.0]];
        assert!(grade(&reference, &nan, 1e40)
            .unwrap_err()
            .contains("non-finite"));
        let off = vec![vec![1.01, 0.0], vec![0.0, 1.0]];
        assert!(grade(&reference, &off, 1e-3)
            .unwrap_err()
            .contains("tolerance"));
        assert!(grade(&reference, &off, 2e-2).is_ok());
        assert!(grade(&reference, &reference[..1], 1.0).is_err());
    }

    #[test]
    fn scaled_grading_ignores_near_zero_noise_but_not_real_error() {
        let reference = vec![vec![1.0, 1e-6, -0.5]];
        let noisy = vec![vec![1.0, 2e-6, -0.5]];
        assert!(grade(&reference, &noisy, 1e-3).is_err());
        assert!(grade_scaled(&reference, &noisy, 1e-3).is_ok());
        let wrong = vec![vec![1.0, 1e-6, -0.49]];
        assert!(grade_scaled(&reference, &wrong, 1e-3).is_err());
        let flipped = vec![vec![1.0, 2.0, -0.5]];
        assert!(grade_scaled(&reference, &flipped, 10.0)
            .unwrap_err()
            .contains("flip"));
    }

    #[test]
    fn a_wrong_pinned_cycle_count_is_rejected() {
        assert!(pinned_cycles(Some((42, 1000)), 42, 1000).is_ok());
        assert!(pinned_cycles(Some((42, 1000)), 42, 1001).is_err());
        assert!(pinned_cycles(Some((42, 999)), 42, 1000).is_err());
        // Another seed makes other inputs, so the pin does not apply.
        assert!(pinned_cycles(Some((42, 1000)), 7, 1234).is_ok());
        assert!(pinned_cycles(None, 42, 1234).is_ok());
    }

    #[test]
    fn mismatched_rows_are_rejected_bytewise() {
        let body = r#"{"id":"a","rows":[[1,0.5],[2,3]],"telemetry":{}}"#;
        assert!(rows_bytes(body, "[[1,0.5],[2,3]]").is_ok());
        // Same values, other spelling: still a mismatch, floats are never reparsed.
        assert!(rows_bytes(body, "[[1.0,0.5],[2,3]]").is_err());
        assert!(rows_bytes(body, "[[1,0.5],[2,4]]").is_err());
        assert!(rows_bytes(r#"{"id":"a"}"#, "[]").is_err());
    }

    #[test]
    fn rows_parse_back_for_grading() {
        let body = r#"{"rows":[[1,0.5],[-2e-3,null]],"x":1}"#;
        let rows = parse_rows(body).unwrap();
        assert_eq!(rows[0], vec![1.0, 0.5]);
        assert_eq!(rows[1][0], -2e-3);
        assert!(rows[1][1].is_nan());
        assert_eq!(parse_rows(r#"{"rows":[[7]]}"#).unwrap(), vec![vec![7.0]]);
    }
}

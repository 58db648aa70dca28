//! The sustained-rate sweep: which rates it climbs and how its windows
//! add up to one rate.

/// Rates from `from`, each `step` times the one before (rounded to
/// 10/s), up to `to`.
pub fn rates(from: f64, step: f64, to: f64) -> Vec<f64> {
    let mut rates = Vec::new();
    let mut rate = from;
    while rate <= to {
        rates.push((rate / 10.0).round() * 10.0);
        rate *= step;
    }
    rates
}

/// Runs one window per rate of `rates`, in order, until `stop` windows
/// in a row fail; `pass` runs a window and says whether it passed. With
/// `k` passing windows the result is the `k`-th rate: a noisy failure
/// below the knee and a lucky pass above it cancel instead of ending the
/// climb. `None` when no window passes: the stack sustained none of the
/// rates, not even the first.
pub fn sustained<E>(
    rates: &[f64],
    stop: usize,
    mut pass: impl FnMut(f64) -> Result<bool, E>,
) -> Result<Option<f64>, E> {
    let (mut passed, mut failed_in_row) = (0usize, 0usize);
    for &rate in rates {
        if pass(rate)? {
            passed += 1;
            failed_in_row = 0;
        } else {
            failed_in_row += 1;
            if failed_in_row == stop {
                break;
            }
        }
    }
    Ok(passed.checked_sub(1).map(|k| rates[k]))
}

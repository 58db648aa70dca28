//! The sustained-rate sweep reports only rates the stack held.

use perfbench::sweep::{rates, sustained};

fn climb(rates: &[f64], stop: usize, pass: impl Fn(f64) -> bool) -> Option<f64> {
    sustained::<()>(rates, stop, |r| Ok(pass(r))).unwrap()
}

#[test]
fn rates_climb_geometrically_from_the_first() {
    let r = rates(700.0, 1.05, 20000.0);
    assert_eq!(r[0], 700.0);
    assert_eq!(r[1], 740.0);
    assert!(r.windows(2).all(|w| w[0] < w[1]));
    assert!(*r.last().unwrap() <= 20000.0);
}

#[test]
fn a_stack_that_fails_every_window_reports_no_rate() {
    let r = rates(700.0, 1.05, 20000.0);
    assert_eq!(climb(&r, 6, |_| false), None);
    // It stops after `stop` failures in a row instead of walking the
    // whole ladder.
    let mut tried = 0;
    let got = sustained::<()>(&r, 6, |_| {
        tried += 1;
        Ok(false)
    });
    assert_eq!((got, tried), (Ok(None), 6));
}

#[test]
fn the_result_is_the_rate_reached_by_the_passing_windows() {
    let r = rates(1000.0, 1.05, 20000.0);
    let knee = 3000.0;
    let below = r.iter().filter(|&&x| x <= knee).count();
    assert_eq!(climb(&r, 6, |x| x <= knee), Some(r[below - 1]));
    // One noisy failure below the knee and one lucky pass above it
    // cancel.
    let noisy = r[3];
    let lucky = r[below + 2];
    let got = climb(&r, 6, |x| (x <= knee && x != noisy) || x == lucky);
    assert_eq!(got, Some(r[below - 1]));
    // A collapse of the stack shows as a collapse of the result.
    assert_eq!(climb(&r, 6, |x| x < 1100.0), Some(r[1]));
}

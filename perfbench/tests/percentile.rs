//! The percentile rule: a percentile is reported only with at least ten
//! samples beyond it, and always with its sample count.

use perfbench::stats::{median, percentile, tail, MIN_BEYOND};

fn sample(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn p99_needs_a_thousand_samples() {
    assert!(percentile(&sample(999), 0.99).is_none());
    let p = percentile(&sample(1000), 0.99).expect("1000 samples support p99");
    assert_eq!(p.value, 990.0);
    assert_eq!(p.samples, 1000);
    assert_eq!(p.beyond, MIN_BEYOND);
    assert_eq!(p.label(), "p99");
}

#[test]
fn p50_needs_twenty_samples() {
    assert!(percentile(&sample(19), 0.5).is_none());
    let p = percentile(&sample(20), 0.5).expect("20 samples support p50");
    assert_eq!((p.value, p.samples, p.beyond), (10.0, 20, 10));
}

#[test]
fn tail_is_the_highest_supported_percentile() {
    assert_eq!(
        tail(&sample(5000)).map(|p| p.label()),
        Some("p99".to_string())
    );
    assert_eq!(
        tail(&sample(500)).map(|p| p.label()),
        Some("p90".to_string())
    );
    assert_eq!(
        tail(&sample(50)).map(|p| p.label()),
        Some("p50".to_string())
    );
    assert!(tail(&sample(19)).is_none());
    assert!(tail(&[]).is_none());
}

#[test]
fn every_reported_percentile_has_ten_beyond() {
    for n in [20, 21, 99, 100, 101, 999, 1000, 1001, 4321] {
        let s = sample(n);
        for q in [0.5, 0.9, 0.99] {
            if let Some(p) = percentile(&s, q) {
                let beyond = s.iter().filter(|&&x| x > p.value).count();
                assert_eq!(beyond, p.beyond, "n={n} q={q}");
                assert!(beyond >= MIN_BEYOND, "n={n} q={q}");
            }
        }
    }
}

#[test]
fn median_of_small_samples() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    assert!(median(&[]).is_nan());
}

//! Order statistics of latency samples.

/// Median of `v` (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// A tail percentile and how many samples lie beyond it.
#[derive(Clone, Copy, Debug)]
pub struct Tail {
    pub pct: f64,
    pub value: f64,
    pub beyond: usize,
    pub samples: usize,
}

/// Percentiles tried for the tail, highest first.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of [`LADDER`] with at least ten samples beyond
/// it (nearest-rank definition); the median when there are too few.
pub fn tail(v: &[f64]) -> Tail {
    let s = sorted(v);
    let n = s.len();
    for pct in LADDER {
        let rank = ((pct / 100.0) * n as f64).ceil() as usize;
        if rank >= 1 && n - rank >= 10 {
            return Tail {
                pct,
                value: s[rank - 1],
                beyond: n - rank,
                samples: n,
            };
        }
    }
    Tail {
        pct: 50.0,
        value: median(v),
        beyond: n / 2,
        samples: n,
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 990.0, 10));
        let t = tail(&v[..100]);
        assert_eq!((t.pct, t.value, t.beyond), (90.0, 90.0, 10));
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }
}

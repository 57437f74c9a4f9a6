//! Summary statistics for benchmark outputs.

/// Basic summary of a sample vector.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub max: f64,
    pub mean: f64,
    pub stddev: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "summary of empty sample set");
        let n = samples.len();
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        Summary {
            n,
            min,
            max,
            mean,
            stddev: var.sqrt(),
        }
    }

    /// (max - min) as a fraction of min — the paper's "maximum variation"
    /// metric for FWQ and LINPACK stability.
    pub fn max_variation_frac(&self) -> f64 {
        if self.min == 0.0 {
            return 0.0;
        }
        (self.max - self.min) / self.min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.stddev - (1.25f64).sqrt()).abs() < 1e-12);
        assert!((s.max_variation_frac() - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn summary_rejects_empty() {
        Summary::of(&[]);
    }
}

//! Linux's Table II / Table III feature matrix.

use bgsim::features::{Capability, Ease, EaseRange, FeatureEntry, FeatureMatrix};

/// The Linux (2.6.30-generation) column of Tables II and III.
pub fn matrix() -> FeatureMatrix {
    use Capability::*;
    use Ease::*;
    let e = |cap, use_ease, implement_ease| FeatureEntry {
        cap,
        use_ease,
        implement_ease,
    };
    FeatureMatrix {
        kernel: "Linux",
        entries: vec![
            e(LargePageUse, EaseRange::exact(Medium), None),
            // Footnote 1: "multiple page sizes just became available".
            e(MultipleLargePageSizes, EaseRange::exact(Medium), None),
            // Footnote 2: "easy to request, but depending on memory
            // layout may not be granted"; Table III: medium to implement.
            e(
                LargePhysContiguous,
                EaseRange::range(Easy, Hard),
                Some(Medium),
            ),
            // Table III: hard to implement in Linux.
            e(NoTlbMisses, EaseRange::exact(NotAvailable), Some(Hard)),
            e(FullMemoryProtection, EaseRange::exact(Easy), None),
            e(GeneralDynamicLinking, EaseRange::exact(Easy), None),
            e(FullMmap, EaseRange::exact(Easy), None),
            e(PredictableScheduling, EaseRange::exact(Medium), None),
            e(ThreadOvercommit, EaseRange::exact(Medium), None),
            e(
                PerformanceReproducible,
                EaseRange::range(Medium, Hard),
                None,
            ),
            // Table III: medium to implement cycle reproducibility.
            e(
                CycleReproducible,
                EaseRange::exact(NotAvailable),
                Some(Medium),
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_all_rows() {
        let m = matrix();
        for cap in Capability::ALL {
            assert!(m.get(cap).is_some(), "{cap:?}");
        }
    }

    #[test]
    fn paper_spot_checks() {
        let m = matrix();
        assert_eq!(
            m.get(Capability::LargePhysContiguous).unwrap().use_ease,
            EaseRange::range(Ease::Easy, Ease::Hard)
        );
        assert_eq!(
            m.get(Capability::CycleReproducible).unwrap().implement_ease,
            Some(Ease::Medium)
        );
    }
}

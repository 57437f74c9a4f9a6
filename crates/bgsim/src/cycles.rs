//! Cycle counts and wall-clock conversion.
//!
//! All simulated time is measured in processor cycles of the 850 MHz
//! PPC450 core clock, matching how the paper reports its measurements
//! ("658,958 processor cycles", "1.6 µs latency", ...).

/// The BG/P core clock in MHz.
pub const CLOCK_MHZ: u64 = 850;

/// A point in simulated time, in core clock cycles since machine reset.
pub type Cycle = u64;

/// Convert cycles to microseconds at the BG/P clock.
#[inline]
pub fn cycles_to_us(c: Cycle) -> f64 {
    c as f64 / CLOCK_MHZ as f64
}

/// Convert nanoseconds to cycles (rounded).
#[inline]
pub fn ns_to_cycles(ns: f64) -> Cycle {
    (ns * CLOCK_MHZ as f64 / 1e3).round() as Cycle
}

/// Bytes-per-cycle for a bandwidth expressed in MB/s at the core clock.
/// (425 MB/s torus link ⇒ 0.5 B/cycle at 850 MHz.)
#[inline]
pub fn mbs_to_bytes_per_cycle(mbs: f64) -> f64 {
    mbs * 1e6 / (CLOCK_MHZ as f64 * 1e6)
}

/// Cycles needed to move `bytes` at `bytes_per_cycle` (ceiling).
#[inline]
pub fn transfer_cycles(bytes: u64, bytes_per_cycle: f64) -> Cycle {
    if bytes == 0 {
        return 0;
    }
    (bytes as f64 / bytes_per_cycle).ceil() as Cycle
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn us_conversion() {
        // 1360 cycles at 850 MHz is 1.6 us (DCMF eager latency).
        assert!((cycles_to_us(1360) - 1.6).abs() < 1e-9);
    }

    #[test]
    fn torus_link_rate() {
        let bpc = mbs_to_bytes_per_cycle(425.0);
        assert!((bpc - 0.5).abs() < 1e-9);
        // 1 MB at 0.5 B/cycle takes 2M cycles.
        assert_eq!(transfer_cycles(1 << 20, bpc), 2 << 20);
    }

    #[test]
    fn zero_transfer_is_free() {
        assert_eq!(transfer_cycles(0, 0.5), 0);
    }

    #[test]
    fn ns_conversion() {
        // 100 ns = 85 cycles.
        assert_eq!(ns_to_cycles(100.0), 85);
    }
}

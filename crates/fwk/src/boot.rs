//! Linux boot model (§III).
//!
//! "During chip design the VHDL cycle-accurate simulator runs at 10HZ. In
//! such an environment, CNK boots in a couple of hours, while Linux takes
//! weeks. Even stripped down, Linux takes days to boot."

use bgsim::machine::BootReport;

/// Instruction counts per Linux boot phase (full distribution image).
/// Tuned so the full boot is ≈ 1.4 × 10⁷ instructions ⇒ ~2.3 weeks at
/// 10 Hz, and the stripped image ≈ 2.2 × 10⁶ ⇒ ~2.5 days.
const DECOMPRESS: u64 = 2_600_000;
const CORE_INIT: u64 = 900_000;
const DEVICE_PROBE: u64 = 4_200_000;
const FILESYSTEMS: u64 = 2_400_000;
const NETWORK: u64 = 1_700_000;
const DAEMONS: u64 = 1_900_000;
const USERSPACE: u64 = 600_000;

/// Phases for a stripped-down embedded image.
const S_DECOMPRESS: u64 = 500_000;
const S_CORE_INIT: u64 = 500_000;
const S_DEVICE_PROBE: u64 = 600_000;
const S_FILESYSTEMS: u64 = 300_000;
const S_DAEMONS: u64 = 200_000;
const S_USERSPACE: u64 = 100_000;

/// Boot report for the FWK.
pub fn boot_report(stripped: bool) -> BootReport {
    let phases: Vec<(&'static str, u64)> = if stripped {
        vec![
            ("decompress", S_DECOMPRESS),
            ("core-init", S_CORE_INIT),
            ("device-probe", S_DEVICE_PROBE),
            ("filesystems", S_FILESYSTEMS),
            ("daemons", S_DAEMONS),
            ("userspace", S_USERSPACE),
        ]
    } else {
        vec![
            ("decompress", DECOMPRESS),
            ("core-init", CORE_INIT),
            ("device-probe", DEVICE_PROBE),
            ("filesystems", FILESYSTEMS),
            ("network", NETWORK),
            ("daemons", DAEMONS),
            ("userspace", USERSPACE),
        ]
    };
    BootReport {
        kernel: if stripped { "linux-stripped" } else { "linux" },
        instructions: phases.iter().map(|(_, c)| c).sum(),
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_linux_boot_is_weeks_at_10hz() {
        let r = boot_report(false);
        let days = r.vhdl_sim_seconds(10.0) / 86_400.0;
        assert!(days > 7.0, "full Linux boot {days} days — paper says weeks");
    }

    #[test]
    fn stripped_linux_boot_is_days_at_10hz() {
        let r = boot_report(true);
        let days = r.vhdl_sim_seconds(10.0) / 86_400.0;
        assert!(
            (1.0..7.0).contains(&days),
            "stripped boot {days} days — paper says days"
        );
    }
}

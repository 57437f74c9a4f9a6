//! Application images and job specifications.
//!
//! We do not parse real ELF binaries; `AppImage` carries exactly the
//! information CNK's loader extracts from ELF section headers (§IV.C:
//! "the ELF section information of the application indicates the location
//! and size of the text and data segments") plus the dynamic-library list
//! the ld.so model needs (§IV.B.2).

/// A dynamic shared object the application loads (at startup or later via
/// `dlopen`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DynLib {
    pub name: String,
    /// Text + read-only data bytes.
    pub text_bytes: u64,
    /// Writable data + bss bytes.
    pub data_bytes: u64,
}

/// What the job loader knows about an application binary.
#[derive(Clone, PartialEq, Debug)]
pub struct AppImage {
    pub name: String,
    /// .text + .rodata bytes.
    pub text_bytes: u64,
    /// .data + .bss bytes.
    pub data_bytes: u64,
    /// Initial heap request (brk arena) in bytes.
    pub initial_heap: u64,
    /// Main-thread stack bytes.
    pub main_stack: u64,
    /// True if dynamically linked (needs the ld.so model).
    pub dynamic: bool,
    /// Libraries needed at startup.
    pub dynlibs: Vec<DynLib>,
}

impl AppImage {
    /// A small statically linked test binary.
    pub fn static_test(name: &str) -> AppImage {
        AppImage {
            name: name.to_string(),
            text_bytes: 2 << 20,
            data_bytes: 1 << 20,
            initial_heap: 64 << 20,
            main_stack: 8 << 20,
            dynamic: false,
            dynlibs: Vec::new(),
        }
    }

    /// A Python-driven dynamically linked application in the style of the
    /// UMT benchmark (§IV.B.2, §V.B).
    pub fn umt_like() -> AppImage {
        AppImage {
            name: "umt".to_string(),
            text_bytes: 24 << 20,
            data_bytes: 8 << 20,
            initial_heap: 256 << 20,
            main_stack: 8 << 20,
            dynamic: true,
            dynlibs: vec![
                DynLib {
                    name: "libpython2.5.so".into(),
                    text_bytes: 6 << 20,
                    data_bytes: 1 << 20,
                },
                DynLib {
                    name: "libmpi.so".into(),
                    text_bytes: 4 << 20,
                    data_bytes: 512 << 10,
                },
                DynLib {
                    name: "libumt_physics.so".into(),
                    text_bytes: 12 << 20,
                    data_bytes: 2 << 20,
                },
            ],
        }
    }
}

/// How many processes share a node. BG/P job modes (§IV.C: "the number of
/// processes per node ... are specified by the user").
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum NodeMode {
    /// One process per node, all four cores available to its threads.
    Smp,
    /// Two processes per node, two cores each.
    Dual,
    /// Virtual node mode: four processes per node, one core each.
    Vn,
}

impl NodeMode {
    #[inline]
    pub fn procs_per_node(self) -> u32 {
        match self {
            NodeMode::Smp => 1,
            NodeMode::Dual => 2,
            NodeMode::Vn => 4,
        }
    }

    /// Cores assigned to each process on a 4-core node.
    #[inline]
    pub fn cores_per_proc(self) -> u32 {
        4 / self.procs_per_node()
    }
}

/// A job launch specification.
#[derive(Clone, Debug)]
pub struct JobSpec {
    pub image: AppImage,
    pub nodes: u32,
    pub mode: NodeMode,
    /// Size of the shared-memory region, which CNK "requires the user to
    /// define ... up-front as the application is launched" (§VII.B).
    pub shared_mem_bytes: u64,
    /// Names of persistent-memory regions this job may re-attach (§IV.D).
    pub persist_grants: Vec<String>,
}

impl JobSpec {
    pub fn new(image: AppImage, nodes: u32, mode: NodeMode) -> JobSpec {
        JobSpec {
            image,
            nodes,
            mode,
            shared_mem_bytes: 16 << 20,
            persist_grants: Vec::new(),
        }
    }

    pub fn ranks(&self) -> u32 {
        self.nodes * self.mode.procs_per_node()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_arithmetic() {
        assert_eq!(NodeMode::Smp.procs_per_node(), 1);
        assert_eq!(NodeMode::Smp.cores_per_proc(), 4);
        assert_eq!(NodeMode::Dual.procs_per_node(), 2);
        assert_eq!(NodeMode::Dual.cores_per_proc(), 2);
        assert_eq!(NodeMode::Vn.procs_per_node(), 4);
        assert_eq!(NodeMode::Vn.cores_per_proc(), 1);
    }

    #[test]
    fn job_rank_count() {
        let j = JobSpec::new(AppImage::static_test("a"), 16, NodeMode::Vn);
        assert_eq!(j.ranks(), 64);
    }

    #[test]
    fn umt_totals() {
        let u = AppImage::umt_like();
        assert!(u.dynamic);
        // Text and writable data across the main image and its startup
        // libraries.
        let text: u64 = u.text_bytes + u.dynlibs.iter().map(|l| l.text_bytes).sum::<u64>();
        let data: u64 = u.data_bytes + u.dynlibs.iter().map(|l| l.data_bytes).sum::<u64>();
        assert_eq!(text, (24 << 20) + (6 << 20) + (4 << 20) + (12 << 20));
        assert!(data > u.data_bytes);
    }
}

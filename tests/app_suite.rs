//! §V.B functionality: the application suite runs to completion on CNK
//! without modification (and, for portability's sake, on the FWK too).

use bgsim::machine::{Machine, Recorder, Workload};
use bgsim::MachineConfig;
use cnk::Cnk;
use dcmf::Dcmf;
use fwk::Fwk;
use sysabi::{AppImage, JobSpec, NodeMode, Rank};
use workloads::apps::AppProfiles;

fn run_app(
    kernel: Box<dyn bgsim::Kernel>,
    image: AppImage,
    nodes: u32,
    mk: &mut dyn FnMut(Rank, Recorder) -> Box<dyn Workload>,
) -> (Machine, Recorder) {
    let mut m = Machine::new(
        MachineConfig::nodes(nodes).with_seed(0x517e),
        kernel,
        Box::new(Dcmf::with_defaults()),
    );
    m.boot();
    let rec = Recorder::new();
    let rec2 = rec.clone();
    m.launch(
        &JobSpec::new(image, nodes, NodeMode::Smp),
        &mut move |r: Rank| mk(r, rec2.clone()),
    )
    .unwrap();
    let out = m.run();
    assert!(out.completed(), "{out:?}");
    (m, rec)
}

fn all_exited_cleanly(m: &Machine) {
    for t in &m.sc.threads {
        assert_eq!(t.exit_code, Some(0), "{} died", t.tid);
    }
}

#[test]
fn amg_runs_on_cnk() {
    let (m, _) = run_app(
        Box::new(Cnk::with_defaults()),
        AppImage::static_test("amg"),
        1,
        &mut |_r, _rec| AppProfiles::amg(),
    );
    all_exited_cleanly(&m);
    // Two parallel regions spawned 3 workers each.
    assert_eq!(m.sc.threads.len(), 7);
}

#[test]
fn sphot_runs_on_cnk() {
    let (m, _) = run_app(
        Box::new(Cnk::with_defaults()),
        AppImage::static_test("sphot"),
        1,
        &mut |_r, _rec| AppProfiles::sphot(),
    );
    all_exited_cleanly(&m);
}

#[test]
fn irs_runs_on_cnk_with_checkpoint() {
    let (m, rec) = run_app(
        Box::new(Cnk::with_defaults()),
        AppImage::static_test("irs"),
        1,
        &mut |r, rec| AppProfiles::irs(r.0, rec),
    );
    all_exited_cleanly(&m);
    assert_eq!(rec.len("ckpt_io_cycles_rank0"), 1, "checkpoint missing");
}

#[test]
fn umt_runs_on_cnk_with_dynamic_linking() {
    let image = AppImage::umt_like();
    let libs = image.dynlibs.clone();
    let (m, rec) = run_app(
        Box::new(Cnk::with_defaults()),
        image,
        1,
        &mut move |_r, rec| AppProfiles::umt(libs.clone(), rec),
    );
    all_exited_cleanly(&m);
    assert_eq!(rec.len("dlopen_cycles"), 1, "dlopen phase missing");
    // Python + physics libs loaded, then OpenMP spawned workers.
    assert!(m.sc.threads.len() >= 4);
}

#[test]
fn stencil_runs_on_cnk_across_nodes() {
    let (m, _) = run_app(
        Box::new(Cnk::with_defaults()),
        AppImage::static_test("flash"),
        8,
        &mut |r, _rec| AppProfiles::stencil(r, 8),
    );
    all_exited_cleanly(&m);
}

#[test]
fn the_suite_also_runs_on_fwk() {
    // The same binaries run on the full-weight kernel — the other half
    // of the "no modification" claim.
    let (m, _) = run_app(
        Box::new(Fwk::with_defaults()),
        AppImage::static_test("amg"),
        1,
        &mut |_r, _rec| AppProfiles::amg(),
    );
    all_exited_cleanly(&m);
    let image = AppImage::umt_like();
    let libs = image.dynlibs.clone();
    // UMT needs its libraries present on the FWK's filesystem too.
    let mut m2 = Machine::new(
        MachineConfig::single_node().with_seed(1),
        Box::new(Fwk::with_defaults()),
        Box::new(Dcmf::with_defaults()),
    );
    {
        let k: &mut Fwk = m2.kernel_as_mut().unwrap();
        let vfs = k.vfs_mut();
        let root = vfs.root();
        let lib = vfs.mkdir_at(root, "lib", 0o755, 0, 0).unwrap();
        for l in &libs {
            let ino = vfs.create_at(lib, &l.name, 0o755, 0, 0).unwrap();
            vfs.truncate(ino, l.text_bytes + l.data_bytes).unwrap();
        }
    }
    m2.boot();
    let rec = Recorder::new();
    let rec2 = rec.clone();
    let libs2 = libs.clone();
    m2.launch(
        &JobSpec::new(image, 1, NodeMode::Smp),
        &mut move |_r: Rank| AppProfiles::umt(libs2.clone(), rec2.clone()),
    )
    .unwrap();
    let out = m2.run();
    assert!(out.completed(), "umt on fwk: {out:?}");
    all_exited_cleanly(&m2);
}

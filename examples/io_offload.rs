//! Function-shipped I/O (§IV.A): a checkpointing job on CNK, the CIOD
//! pipeline, and the client-count arithmetic of §VII.A ("up to two
//! orders of magnitude reduction in filesystem clients").
//!
//! Run: `cargo run --example io_offload`

use bgsim::machine::{Machine, Recorder, Workload};
use bgsim::trace::TraceEvent;
use bgsim::MachineConfig;
use cnk::Cnk;
use dcmf::Dcmf;
use sysabi::{AppImage, JobSpec, NodeMode, Rank};
use workloads::io_kernel::CheckpointApp;

fn main() {
    let nodes = 8;
    let mut cfg = MachineConfig::nodes(nodes).with_seed(7).with_trace();
    cfg.io_ratio = 8; // one I/O node per 8 compute nodes in this partition
    let io_nodes = cfg.io_nodes();
    let mut m = Machine::new(
        cfg,
        Box::new(Cnk::with_defaults()),
        Box::new(Dcmf::with_defaults()),
    );
    m.boot();

    let rec = Recorder::new();
    let rec2 = rec.clone();
    m.launch(
        &JobSpec::new(AppImage::static_test("ckpt"), nodes, NodeMode::Smp),
        &mut move |r: Rank| Box::new(CheckpointApp::new(r.0, 2, rec2.clone())) as Box<dyn Workload>,
    )
    .unwrap();
    let out = m.run();
    println!("checkpoint job: {out:?}");
    // The job only function-ships I/O, so every message the trace
    // holds crossed the collective network.
    let (msgs, bytes) =
        m.sc.trace
            .entries()
            .iter()
            .fold((0, 0), |(n, b), e| match e.what {
                TraceEvent::MsgSend { bytes, .. } => (n + 1, b + bytes),
                _ => (n, b),
            });
    println!("collective-network messages: {msgs} ({bytes} bytes)");

    // Inspect the resulting filesystem on the I/O nodes.
    let cnk: &Cnk = m.kernel_as().expect("booted with CNK");
    let vfs = cnk.vfs();
    let ckpt = vfs.resolve(vfs.root(), "/ckpt").expect("/ckpt missing");
    println!("\nfiles under /ckpt on the I/O-node filesystem:");
    if let ciod::vfs::InodeData::Dir(entries) = &vfs.inode(ckpt).data {
        for (name, &ino) in entries {
            println!("  /ckpt/{name:<16} {:>8} bytes", vfs.inode(ino).size());
        }
    }

    for r in 0..nodes {
        let t = rec.series(&format!("ckpt_io_cycles_rank{r}"));
        let avg = t.iter().sum::<f64>() / t.len() as f64;
        println!("rank {r}: avg checkpoint I/O time {:.1} us", avg / 850.0);
    }

    println!("\nfilesystem clients: {io_nodes} I/O nodes serve {nodes} compute nodes here;");
    println!("at BG/P scale the same design put 1 client per 16-128 compute nodes —");
    println!("\"up to two orders of magnitude reduction in filesystem clients\" (§VII.A).");
}

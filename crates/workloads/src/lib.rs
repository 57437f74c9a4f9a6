//! `workloads` — the application programs of the evaluation.
//!
//! Every workload is a [`bgsim::Workload`]: a generator of ops that runs
//! unmodified on CNK and on the FWK (the reproduction analogue of §V.B's
//! "run on CNK without modification").
//!
//! * [`nptl`] — the glibc/NPTL runtime model: pthread_create lowered to
//!   mmap + mprotect + clone exactly as §IV.B.1 describes, pthread_join
//!   via the CLEARTID futex, and the uname version gate.
//! * [`fwq`] — the Fixed Work Quanta noise benchmark of Figs. 5-7.
//! * [`linpack`] — a blocked-LU LINPACK-like run for §V.D's stability
//!   experiment.
//! * [`allreduce`] — the mpiBench_Allreduce loop of §V.D.
//! * [`nn_exchange`] — the near-neighbor rendezvous exchange of Fig. 8.
//! * [`dynlink`] — a Python/UMT-style dynamic-linking startup (§IV.B.2).
//! * [`io_kernel`] — a checkpoint-style I/O phase over function-shipped
//!   POSIX calls (§IV.A).

pub mod allreduce;
pub mod apps;
pub mod dynlink;
pub mod fwq;
pub mod io_kernel;
pub mod linpack;
pub mod nn_exchange;
pub mod nptl;
pub mod sync;

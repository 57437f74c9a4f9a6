//! `bgbench <experiment> [positional] [flags]` — regenerate one of the
//! paper's tables or figures. `bgbench` alone lists the experiments;
//! `bench::cli` documents the flags.

fn main() {
    bench::experiments::run(&bench::cli::Command::parse());
}

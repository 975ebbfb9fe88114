//! The data-parallel training worker, built beside `perfbench` so the
//! `fit_dp` coordinator finds it next to its own executable.

fn main() -> std::process::ExitCode {
    ifair::core::dp::worker_main()
}

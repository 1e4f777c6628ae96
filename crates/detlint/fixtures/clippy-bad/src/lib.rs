//! One module per determinism invariant that clippy enforces; each must
//! fail `cargo clippy`.

// Mirrors the library crate roots of the workspace.
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod allow_justify;
pub mod no_print;
pub mod nondet_seam;
pub mod thread_spawn;
pub mod wall_clock;

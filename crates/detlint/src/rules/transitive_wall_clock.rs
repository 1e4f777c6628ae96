//! `transitive-wall-clock`: nothing reachable from the simulation's event
//! loop may touch wall-clock time or spawn raw threads.
//!
//! Clippy's `disallowed_types` and `disallowed_methods` (`clippy.toml`)
//! catch *direct* seams: an `Instant::now()` in the DES core, a
//! `thread::spawn` outside the pool. What they cannot see is a
//! legal-looking call chain that ends in one: `Simulation::run → helper →
//! bench::wallclock::measure`. Each hop is individually clean (the
//! wall-clock seam file is allowed to exist, the helper just calls a
//! function), but the composition smuggles
//! host time into the deterministic core — output then varies with
//! machine load, which is exactly what the byte-identical goldens exist
//! to forbid.
//!
//! This rule closes the composition gap with call-graph reachability:
//! from the event-loop roots (`Simulation::run`/`run_observed`, the free
//! `run` of the DES module, every `Handler` impl method), every reachable
//! function is checked against the wall-clock sinks (functions containing
//! `Instant`/`SystemTime` uses or raw `thread::spawn` sites outside the two
//! seam files, and every function declared in the benchmark wall-clock
//! seam file). A clippy `#[expect]` on a direct site does not exempt it
//! here: the event loop must not reach host time even where a caller may.
//! Resolution is conservative — unresolved calls add no edges — so a
//! finding here is a real, named chain, rendered hop by hop.

use crate::index::Workspace;
use crate::rules::{Finding, LintRule, RuleCtx};
use std::collections::BTreeSet;

/// This rule's stable id.
pub const ID: &str = "transitive-wall-clock";

/// The only file allowed to read host time.
const WALLCLOCK_SEAM: &str = "crates/bench/src/wallclock.rs";

/// The only file allowed to spawn threads.
const POOL_SEAM: &str = "crates/sim-core/src/pool.rs";

/// See module docs.
#[derive(Debug)]
pub struct TransitiveWallClock;

impl LintRule for TransitiveWallClock {
    fn id(&self) -> &'static str {
        ID
    }

    fn summary(&self) -> &'static str {
        "no call chain from Simulation::run / DES handlers to wall-clock or \
         thread-spawn seams"
    }

    fn check(&self, _ctx: &RuleCtx<'_>) -> Vec<Finding> {
        Vec::new()
    }

    fn check_workspace(&self, ws: &Workspace<'_>) -> Vec<Finding> {
        let roots: Vec<usize> = ws
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| !f.in_test)
            .filter(|(_, f)| {
                let sim_loop = f.impl_ty.as_deref() == Some("Simulation")
                    && (f.name == "run" || f.name == "run_observed");
                let des_run = f.impl_ty.is_none()
                    && f.name == "run"
                    && ws.files[f.file].path.ends_with("des.rs");
                let handler = f.trait_name.as_deref() == Some("Handler");
                sim_loop || des_run || handler
            })
            .map(|(i, _)| i)
            .collect();
        if roots.is_empty() {
            return Vec::new();
        }

        let sinks = wall_clock_sinks(ws);
        if sinks.is_empty() {
            return Vec::new();
        }

        let reach = ws.reachable(&roots);
        let mut findings = Vec::new();
        for &(sink, ref why) in &sinks {
            let Some(parent_edge) = reach.get(&sink) else {
                continue;
            };
            let (file, line, col) = match parent_edge {
                Some((parent, call)) => (ws.files[ws.fns[*parent].file], call.line, call.col),
                // The sink IS a root: report at its declaration.
                None => (
                    ws.files[ws.fns[sink].file],
                    ws.fns[sink].line,
                    ws.fns[sink].col,
                ),
            };
            findings.push(Finding::in_file(
                ID,
                file,
                line,
                col,
                format!(
                    "event-loop code reaches {why} via {} — sim-time logic must never \
                     observe host time or raw threads",
                    ws.chain(&reach, sink)
                ),
            ));
        }
        findings
    }
}

/// Every function that ends at a wall-clock or raw-thread seam, with a
/// human-readable description of why. One entry per function.
fn wall_clock_sinks(ws: &Workspace<'_>) -> Vec<(usize, String)> {
    let mut seen: BTreeSet<usize> = BTreeSet::new();
    let mut out = Vec::new();
    // Class 3: everything declared in the benchmark wall-clock seam file.
    for (i, f) in ws.fns.iter().enumerate() {
        if ws.files[f.file].path == WALLCLOCK_SEAM && !f.in_test && seen.insert(i) {
            out.push((i, format!("the wall-clock seam fn `{}`", f.label())));
        }
    }
    // Classes 1 and 2: direct Instant/SystemTime or thread::spawn sites
    // outside the seam files.
    for (fi, file) in ws.files.iter().enumerate() {
        for ci in 0..file.code.len() {
            let Some(t) = ws.tok(fi, ci) else { continue };
            if t.in_test {
                continue;
            }
            let clock =
                file.path != WALLCLOCK_SEAM && (t.is_ident("Instant") || t.is_ident("SystemTime"));
            let spawn = file.path != POOL_SEAM
                && t.is_ident("spawn")
                && ci >= 2
                && ws
                    .tok(fi, ci - 1)
                    .map(|p| p.is_punct("::"))
                    .unwrap_or(false)
                && ws
                    .tok(fi, ci - 2)
                    .map(|p| p.is_ident("thread"))
                    .unwrap_or(false);
            if !clock && !spawn {
                continue;
            }
            let Some(owner) = ws.enclosing_fn(fi, ci) else {
                continue;
            };
            if seen.insert(owner) {
                let why = if clock {
                    format!("a `{}` use in `{}`", t.text, ws.fns[owner].label())
                } else {
                    format!("a raw thread::spawn in `{}`", ws.fns[owner].label())
                };
                out.push((owner, why));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn scan(files: &[(&str, &str)]) -> Vec<Finding> {
        let sources: Vec<SourceFile> = files.iter().map(|(p, s)| SourceFile::parse(p, s)).collect();
        let ws = Workspace::build(sources.iter().collect());
        TransitiveWallClock.check_workspace(&ws)
    }

    const SIM: &str = "pub struct Simulation;\n\
        impl Simulation {\n\
            pub fn run(&mut self) { helper(); }\n\
        }\n\
        fn helper() { measure(); }\n";

    #[test]
    fn chain_into_the_wallclock_seam_is_flagged() {
        let findings = scan(&[
            ("crates/fabric-sim/src/sim.rs", SIM),
            (
                "crates/bench/src/wallclock.rs",
                "pub fn measure() -> u64 { 0 }",
            ),
        ]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0]
                .message
                .contains("Simulation::run → helper → measure"),
            "{findings:?}"
        );
    }

    #[test]
    fn direct_instant_in_reachable_code_is_flagged() {
        let findings = scan(&[(
            "crates/fabric-sim/src/sim.rs",
            "pub struct Simulation;\n\
             impl Simulation {\n\
                 pub fn run(&mut self) { self.tick(); }\n\
                 fn tick(&mut self) { let t = Instant::now(); }\n\
             }",
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("Instant"), "{findings:?}");
    }

    #[test]
    fn handler_impls_are_roots() {
        let findings = scan(&[(
            "crates/fabric-sim/src/sim.rs",
            "struct Engine;\n\
             impl Handler for Engine {\n\
                 fn handle(&mut self) { stamp(); }\n\
             }\n\
             fn stamp() { let t = SystemTime::now(); }",
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
    }

    #[test]
    fn unreachable_wall_clock_code_is_not_flagged_here() {
        let findings = scan(&[
            (
                "crates/fabric-sim/src/sim.rs",
                "pub struct Simulation;\nimpl Simulation { pub fn run(&mut self) {} }",
            ),
            (
                "crates/bench/src/table.rs",
                "pub fn bench_only() { let t = Instant::now(); }",
            ),
        ]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn clippy_expected_direct_sites_still_become_sinks() {
        let findings = scan(&[(
            "crates/fabric-sim/src/sim.rs",
            "pub struct Simulation;\n\
             impl Simulation {\n\
                 pub fn run(&mut self) { self.tick(); }\n\
                 fn tick(&mut self) {\n\
                     #[expect(clippy::disallowed_types, reason = \"diagnostic only\")]\n\
                     let t = Instant::now();\n\
                 }\n\
             }",
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("Instant"), "{findings:?}");
    }

    #[test]
    fn pool_seam_spawns_are_exempt() {
        let findings = scan(&[
            (
                "crates/fabric-sim/src/sim.rs",
                "pub struct Simulation;\nimpl Simulation { pub fn run(&mut self) { dispatch(); } }",
            ),
            (
                "crates/sim-core/src/pool.rs",
                "pub fn dispatch() { thread::spawn(|| {}); }",
            ),
        ]);
        assert!(findings.is_empty(), "{findings:?}");
    }
}

//! Facts about the machine, the build and the workload's inputs, printed
//! in the header so a reader can tell whether two result files compare.

use crate::trace::Tracer;
use fabric_sim::ledger::Ledger;
use fabric_sim::report::SimReport;
use std::path::{Path, PathBuf};

/// The benchmark package's directory, `crates/bench/perfbench`.
fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The repository root, three levels above the package.
fn repo_root() -> PathBuf {
    package_dir()
        .ancestors()
        .nth(3)
        .expect("the benchmark package sits at crates/bench/perfbench")
        .to_path_buf()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit checked out, read from `.git` without running git; `none`
/// when the tree is not a git checkout.
pub fn git_commit() -> String {
    let git = repo_root().join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|c| c.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(git.join("packed-refs")).map(|packed| {
                    packed
                        .lines()
                        .find(|l| l.ends_with(reference))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
    }
}

/// FNV-1a over the paths and contents of every source file and manifest
/// the benchmark is built from: identifies the code when there is no git
/// commit to name.
pub fn source_digest() -> String {
    let root = repo_root();
    let mut files = Vec::new();
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor"] {
        collect(&root.join(top), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let rel = file.strip_prefix(&root).unwrap_or(&file);
        let bytes = rel.to_string_lossy().into_owned().into_bytes();
        for b in bytes
            .iter()
            .chain(&std::fs::read(&file).unwrap_or_default())
        {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn collect(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        let keep = path
            .extension()
            .is_some_and(|e| e == "rs" || e == "toml" || e == "lock");
        if keep {
            out.push(path.to_path_buf());
        }
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for entry in entries.flatten() {
            let p = entry.path();
            if p.file_name().is_some_and(|n| n != "target") {
                collect(&p, out);
            }
        }
    }
}

pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Workload property counters, as a JSON object: the shares a later change
/// that helps one property can cite.
pub fn properties(
    report: &SimReport,
    ledger: &Ledger,
    json_bytes: usize,
    evicted: Option<usize>,
) -> String {
    let records = report.committed;
    let failed = records - report.successes;
    let share = |n: usize| n as f64 / records.max(1) as f64;
    format!(
        "{{\"records\": {records}, \"blocks\": {}, \"des_events\": {}, \"failed_share\": {}, \
         \"read_conflict_share\": {}, \"json_bytes_per_record\": {}, \"evicted_records\": {}}}",
        ledger.blocks().len(),
        report.events,
        share(failed),
        share(report.mvcc_conflicts + report.phantom_conflicts),
        json_bytes as f64 / records.max(1) as f64,
        evicted.map_or("null".to_string(), |e| e.to_string()),
    )
}

/// Write every span to the build directory, one JSON object per line.
pub fn write_spans(workload: &str, seed: u64, tracer: &Tracer) {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| package_dir().join("target"));
    let path = dir.join(format!("perfbench-spans-{workload}-{seed}.jsonl"));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_json_lines()))
    {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

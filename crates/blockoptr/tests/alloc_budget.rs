//! Allocation budget of the simulator, the session fold and the log export.
//!
//! A simulation allocates per transaction it executes, and a monitoring
//! loop folds every committed block into the running metric trackers, so
//! heap allocations set both rates as much as the arithmetic does. This
//! binary counts them with its own global allocator and holds four paths
//! to a committed budget:
//!
//! * one simulation run (`bundle.run`), per committed transaction: the
//!   chaincode runs, read-write sets, validation and the ledger;
//! * `ingest_log` of a whole log into an unbounded session (the fold
//!   alone: the records are built before counting starts);
//! * a `LastBlocks(10)` watch, block by block with a snapshot per block, as
//!   a live monitor runs it (record conversion, fold, eviction and
//!   snapshot);
//! * `export::to_json` of a whole log, per record (the log is built before
//!   counting starts): the writer streams into one `String`, so only that
//!   string's growth allocates.
//!
//! The counter is a `const` thread-local, so only allocations made on the
//! test's own thread count; the harness's threads cannot skew it. Budgets
//! sit a little above the counts of the shared-handle hand-off, well below
//! what copying every key and record costs.

use blockoptr::export;
use blockoptr::log::BlockchainLog;
use blockoptr::session::{Analyzer, WindowPolicy};
use fabric_sim::ledger::Ledger;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use workload::ScenarioSpec;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot may already be gone while a thread shuts down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// destructor-free thread-local `Cell`, so touching it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (including reallocations) `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

const TRANSACTIONS: usize = 2_000;
const SEED: u64 = 42;

/// The scenario's ledger, and the allocations per committed transaction
/// of the run that built it.
fn run_per_tx(scenario: &str) -> (Ledger, f64) {
    let spec = ScenarioSpec::builtin(scenario)
        .expect("builtin scenario")
        .with_transactions(TRANSACTIONS)
        .with_seed(SEED);
    let (bundle, config) = spec.build().expect("builtin spec builds");
    let (output, n) = allocations(|| bundle.run(config));
    let txs = output.ledger.tx_count();
    (output.ledger, n as f64 / txs as f64)
}

/// Every knob the library would otherwise read from the environment is
/// set, so `BLOCKOPTR_WINDOW` and `BLOCKOPTR_THREADS` leave the counts be.
fn analyzer(window: WindowPolicy) -> Analyzer {
    Analyzer::new().threads(1).window(window)
}

/// Allocations per record of one `ingest_log` into an unbounded session.
fn ingest_log_per_record(ledger: &Ledger) -> f64 {
    let log = BlockchainLog::from_ledger(ledger);
    let records = log.len();
    let mut session = analyzer(WindowPolicy::Unbounded).session().unwrap();
    let (added, n) = allocations(|| session.ingest_log(log).unwrap());
    assert_eq!(added, records);
    n as f64 / records as f64
}

/// Allocations per record of a `LastBlocks(10)` watch: each block is
/// ingested, then snapshotted, and the snapshot dropped before the next.
fn watch_per_record(ledger: &Ledger) -> f64 {
    let mut session = analyzer(WindowPolicy::LastBlocks(10)).session().unwrap();
    let (records, n) = allocations(|| {
        let mut records = 0;
        for block in ledger.blocks() {
            records += session.ingest_block(block).unwrap();
            drop(session.snapshot().unwrap());
        }
        records
    });
    assert!(session.evicted() > 0, "the window evicts");
    n as f64 / records as f64
}

/// Allocations per record of `export::to_json` of the whole log.
fn export_per_record(ledger: &Ledger) -> f64 {
    let log = BlockchainLog::from_ledger(ledger);
    let (json, n) = allocations(|| export::to_json(&log));
    assert!(json.len() > log.len(), "the export writes every record");
    n as f64 / log.len() as f64
}

/// The log export's budget, per record: room for the output `String`'s
/// growth only (0.009 on scm, 0.010 on drm), where building a value tree
/// and rendering it made 67.4 and 74.7.
const BUDGET_EXPORT: f64 = 0.1;

fn check(scenario: &str, budget_run: f64, budget_ingest_log: f64, budget_watch: f64) {
    let (ledger, run) = run_per_tx(scenario);
    let ingest = ingest_log_per_record(&ledger);
    let watch = watch_per_record(&ledger);
    let export = export_per_record(&ledger);
    eprintln!(
        "{scenario}: run {run:.2} per transaction; ingest_log {ingest:.2}, \
         watch {watch:.2}, export {export:.3} per record (allocations)"
    );
    assert!(
        export <= BUDGET_EXPORT,
        "{scenario} export::to_json: {export:.3} allocations per record, budget {BUDGET_EXPORT}"
    );
    assert!(
        run <= budget_run,
        "{scenario} run: {run:.2} allocations per committed transaction, budget {budget_run}"
    );
    assert!(
        ingest <= budget_ingest_log,
        "{scenario} ingest_log: {ingest:.2} allocations per record, budget {budget_ingest_log}"
    );
    assert!(
        watch <= budget_watch,
        "{scenario} LastBlocks(10) watch: {watch:.2} allocations per record, budget {budget_watch}"
    );
}

// Budgets: the counts at 2 000 transactions, seed 42, plus about 10 %
// headroom. A run makes 8.55 allocations per committed transaction on scm
// and 15.22 on drm; the session fold makes 5.93 (`ingest_log`) and 8.09
// (watch) per record on scm, 5.17 and 7.83 on drm. Records and conflict
// pairs share the ledger's keys, names, arguments and read-write sets:
// copying them cost 10.58 and 16.93 per run transaction, and 9.41 and
// 19.56 (scm), 11.59 and 26.39 (drm) per folded record. Listing a
// record's keys anew for each tracker, on ingest and again on eviction,
// with a string-keyed hotkey index beside the key counts, cost 7.45 and
// 9.07 (scm), 7.54 and 10.12 (drm) per folded record.

#[test]
fn scm_session_fold_stays_within_its_allocation_budget() {
    check("scm", 9.4, 6.5, 8.9);
}

#[test]
fn drm_session_fold_stays_within_its_allocation_budget() {
    check("drm", 16.7, 5.7, 8.6);
}

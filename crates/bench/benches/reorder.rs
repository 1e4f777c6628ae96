//! Block-scheduler ablation: per-block cost of the Fabric++ and FabricSharp
//! reordering algorithms versus vanilla FIFO — the quantitative side of the
//! paper's "reordering algorithms are expensive" argument (§3).

use criterion::{criterion_group, criterion_main, Criterion};
use fabric_sim::config::SchedulerKind;
use fabric_sim::rwset::{ReadWriteSet, Version};
use fabric_sim::scheduler::{schedule_block, SchedTx};
use fabric_sim::types::{Key, Value};
use sim_core::dist::Zipf;
use sim_core::rng::SimRng;
use sim_core::time::SimDuration;
use std::hint::black_box;

/// A block of update transactions over a Zipf-skewed key space — the
/// conflict-heavy shape where reordering has the most work to do.
fn conflict_block(n: usize, keys: usize, skew: f64) -> Vec<ReadWriteSet> {
    let zipf = Zipf::new(keys, skew);
    let mut rng = SimRng::seed_from_u64(7);
    (0..n)
        .map(|i| {
            let mut rw = ReadWriteSet::new();
            let k: Key = format!("k{}", zipf.sample(&mut rng)).into();
            rw.record_read(k.clone(), Some(Version::new(0, 0)));
            rw.record_write(k, Some(Value::Int(i as i64)));
            rw
        })
        .collect()
}

fn bench_reorder(c: &mut Criterion) {
    let mut group = c.benchmark_group("block_scheduler");
    group.sample_size(30);

    for (label, block_size, skew) in [
        ("100tx_uniform", 100usize, 0.0),
        ("100tx_zipf1", 100, 1.0),
        ("300tx_zipf1", 300, 1.0),
        ("300tx_zipf15", 300, 1.5),
    ] {
        let rwsets = conflict_block(block_size, 200, skew);
        let txs: Vec<SchedTx<'_>> = rwsets
            .iter()
            .map(|rw| SchedTx {
                rwset: rw,
                endorse_spread: SimDuration::ZERO,
            })
            .collect();
        for kind in [
            SchedulerKind::Vanilla,
            SchedulerKind::FabricPlusPlus,
            SchedulerKind::FabricSharp,
        ] {
            group.bench_function(format!("{label}/{}", kind.label()), |b| {
                b.iter(|| black_box(schedule_block(kind, &txs)))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_reorder);
criterion_main!(benches);

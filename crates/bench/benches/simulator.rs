//! Simulator throughput: how many simulated transactions per second of
//! wall-clock the EOV pipeline processes, across workload shapes and
//! schedulers: the simulated substrate must stay cheap enough to sweep
//! every experiment configuration.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fabric_sim::config::SchedulerKind;
use std::hint::black_box;
use workload::spec::{ControlVariables, WorkloadType};

fn bench_simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);

    for (name, workload) in [
        ("uniform", WorkloadType::Uniform),
        ("update_heavy", WorkloadType::UpdateHeavy),
        ("rangeread_heavy", WorkloadType::RangeReadHeavy),
    ] {
        let cv = ControlVariables {
            workload,
            transactions: 2_000,
            ..Default::default()
        };
        let bundle = workload::synthetic::generate(&cv);
        group.throughput(Throughput::Elements(cv.transactions as u64));
        group.bench_function(format!("run_2k_{name}"), |b| {
            b.iter(|| black_box(bundle.run(cv.network_config())))
        });
    }

    // Scheduler overhead ablation at the whole-run level.
    let cv = ControlVariables {
        workload: WorkloadType::UpdateHeavy,
        key_skew: 2.0,
        transactions: 2_000,
        ..Default::default()
    };
    let bundle = workload::synthetic::generate(&cv);
    for scheduler in [
        SchedulerKind::Vanilla,
        SchedulerKind::FabricPlusPlus,
        SchedulerKind::FabricSharp,
    ] {
        group.bench_function(format!("run_2k_{}", scheduler.label()), |b| {
            b.iter(|| black_box(bundle.run(cv.network_config().with_scheduler(scheduler))))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_simulator);
criterion_main!(benches);

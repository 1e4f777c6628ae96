//! Calibration scratchpad: run key workload configurations and print the
//! three paper metrics, to tune `ResourceProfile` against the paper's
//! reported shapes. Not part of the experiment suite proper.

use bench::FigureTable;
use fabric_sim::config::NetworkConfig;
use workload::spec::{ControlVariables, PolicyChoice, WorkloadType};
use workload::{drm, dv, ehr, lap, scm, synthetic, WorkloadBundle};

/// `bundle` with the prepared rewrite registered as `id` installed in place
/// of its contract: the same schedule and genesis.
fn rewritten(bundle: &WorkloadBundle, id: &str) -> WorkloadBundle {
    let contract = chaincode::registry::resolve(id).expect("a registered contract id");
    bundle.clone().with_contracts(vec![contract])
}

fn main() {
    let mut t = FigureTable::new("calibration");

    // Default synthetic workload (paper regime: ~80-92% success, multi-second
    // latency, ~170-230 tps at send rate 300).
    let cv = ControlVariables::default();
    let b = synthetic::generate(&cv);
    let r = b.run(cv.network_config()).report;
    t.add("synthetic defaults (send 300)", "W/O", &r);
    eprintln!(
        "defaults detail: epf={} mvcc={} (intra {} inter {}) phantom={} blocks={} bsize={:.0} util c/e/o/v = {:.2}/{:.2}/{:.2}/{:.2}",
        r.endorsement_failures,
        r.mvcc_conflicts,
        r.intra_block_conflicts,
        r.inter_block_conflicts,
        r.phantom_conflicts,
        r.blocks,
        r.avg_block_size,
        r.client_utilization,
        r.endorser_utilization,
        r.orderer_utilization,
        r.validator_utilization,
    );

    // Rate control 100 tps (paper: ~95-99 tps, ~1-2 s, 97-99 %).
    let cv100 = ControlVariables {
        send_rate: 100.0,
        ..Default::default()
    };
    let b100 = synthetic::generate(&cv100);
    t.add(
        "synthetic defaults",
        "rate 100",
        &b100.run(cv100.network_config()).report,
    );

    // P1 endorsement bottleneck (paper: 107 tps, 16.8 s, 87.5 %).
    let cv_p1 = ControlVariables {
        policy: PolicyChoice::P1,
        ..Default::default()
    };
    let bp1 = synthetic::generate(&cv_p1);
    t.add("policy P1", "W/O", &bp1.run(cv_p1.network_config()).report);
    // Restructured to P4 (paper: 151 tps, 10.4 s, 89.4 %).
    let mut cfg_p4 = cv_p1.network_config();
    cfg_p4.endorsement_policy = fabric_sim::policy::EndorsementPolicy::p4();
    t.add("policy P1", "→P4", &bp1.run(cfg_p4).report);

    // Block count 50 (paper: ~15 tps, 3.3 s, 13.8 % — severe).
    let cv50 = ControlVariables {
        block_count: 50,
        ..Default::default()
    };
    let b50 = synthetic::generate(&cv50);
    t.add(
        "block count 50",
        "W/O",
        &b50.run(cv50.network_config()).report,
    );
    // Adapted to 300 (paper: 217.9 tps, 4.9 s, 92.8 %).
    let mut cfg300 = cv50.network_config();
    cfg300.block_count = 300;
    t.add("block count 50", "→300", &b50.run(cfg300).report);

    // Block count 1000 (paper: ~189-211 tps, 6-11 s, 63-92 %).
    let cv1000 = ControlVariables {
        block_count: 1000,
        ..Default::default()
    };
    let b1000 = synthetic::generate(&cv1000);
    t.add(
        "block count 1000",
        "W/O",
        &b1000.run(cv1000.network_config()).report,
    );

    // Update-heavy (paper: 179 tps, 6.1 s, 83.5 %).
    let cv_uh = ControlVariables {
        workload: WorkloadType::UpdateHeavy,
        ..Default::default()
    };
    let buh = synthetic::generate(&cv_uh);
    t.add(
        "update-heavy",
        "W/O",
        &buh.run(cv_uh.network_config()).report,
    );

    // Read-heavy (paper: 231.8 tps, 4.3 s, 95.2 %).
    let cv_rh = ControlVariables {
        workload: WorkloadType::ReadHeavy,
        ..Default::default()
    };
    let brh = synthetic::generate(&cv_rh);
    t.add("read-heavy", "W/O", &brh.run(cv_rh.network_config()).report);

    // RangeRead-heavy (paper: 12.4 tps, 27.3 s, 11.5 %).
    let cv_rr = ControlVariables {
        workload: WorkloadType::RangeReadHeavy,
        ..Default::default()
    };
    let brr = synthetic::generate(&cv_rr);
    t.add(
        "rangeread-heavy",
        "W/O",
        &brr.run(cv_rr.network_config()).report,
    );

    // Key skew 2 (paper: 99.3 tps, 2.9 s, 37.7 %).
    let cv_ks = ControlVariables {
        key_skew: 2.0,
        ..Default::default()
    };
    let bks = synthetic::generate(&cv_ks);
    t.add("key skew 2", "W/O", &bks.run(cv_ks.network_config()).report);

    // Tx dist skew 70% (paper: 160.8 tps, 3.3 s, 59.9 %; boost → 190.6, 0.8, 64.4).
    let cv_tds = ControlVariables {
        tx_dist_skew: 0.7,
        ..Default::default()
    };
    let btds = synthetic::generate(&cv_tds);
    t.add(
        "tx dist skew 70%",
        "W/O",
        &btds.run(cv_tds.network_config()).report,
    );
    let mut cfg_boost = cv_tds.network_config();
    cfg_boost.client_boost = Some((0, 2));
    t.add(
        "tx dist skew 70%",
        "client boost",
        &btds.run(cfg_boost).report,
    );

    // SCM (paper: 207.5 tps, 7.3 s, 79.8 %).
    let scm_spec = scm::ScmSpec::default();
    let bscm = scm::generate(&scm_spec);
    t.add("SCM", "W/O", &bscm.run(NetworkConfig::default()).report);
    t.add(
        "SCM",
        "pruned",
        &rewritten(&bscm, "scm:pruned")
            .run(NetworkConfig::default())
            .report,
    );

    // DRM (paper: 35.1 tps, 14 s, 20.1 %).
    let drm_spec = drm::DrmSpec::default();
    let bdrm = drm::generate(&drm_spec);
    t.add("DRM", "W/O", &bdrm.run(NetworkConfig::default()).report);
    t.add(
        "DRM",
        "delta",
        &rewritten(&bdrm, "drm:delta")
            .run(NetworkConfig::default())
            .report,
    );
    t.add(
        "DRM",
        "partitioned",
        &drm::partitioned(bdrm.clone(), &drm_spec)
            .run(NetworkConfig::default())
            .report,
    );

    // EHR (paper: 55.6 tps, 6.4 s, 19.7 %).
    let ehr_spec = ehr::EhrSpec::default();
    let behr = ehr::generate(&ehr_spec);
    t.add("EHR", "W/O", &behr.run(NetworkConfig::default()).report);

    // DV (paper: 4.2 tps, 4.6 s, 10.2 %; altered → 54.3 tps, 100 %).
    let dv_spec = dv::DvSpec::default();
    let bdv = dv::generate(&dv_spec);
    t.add("DV", "W/O", &bdv.run(NetworkConfig::default()).report);
    t.add(
        "DV",
        "per-voter",
        &rewritten(&bdv, "dv:per-voter")
            .run(NetworkConfig::default())
            .report,
    );

    // LAP @10tps (paper: 3.2 tps, 1.5 s, 31.8 %; altered → 6.6, 1.2, 66.0).
    let lap_spec = lap::LapSpec::default();
    let blap = lap::generate(&lap_spec);
    t.add("LAP @10", "W/O", &blap.run(NetworkConfig::default()).report);
    t.add(
        "LAP @10",
        "by-application",
        &rewritten(&blap, "lap:by-application")
            .run(NetworkConfig::default())
            .report,
    );

    println!("{}", t.render());
}

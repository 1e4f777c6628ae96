//! Log export (paper §4.1: the tool saves the chain as JSON and converts the
//! cleaned log to CSV).
//!
//! JSON round-trips losslessly through serde; CSV is the flattened
//! analyst-facing view (one row per transaction, multi-valued attributes
//! joined with `;`).

use crate::log::{BlockchainLog, TxRecord};
use crate::session::AnalyzeError;
use fabric_sim::types::Value;

/// Serialize the log as pretty JSON.
pub fn to_json(log: &BlockchainLog) -> String {
    serde_json::to_string_pretty(log).expect("log serializes")
}

/// Parse a log back from JSON. Malformed input surfaces as
/// [`AnalyzeError::Json`], the same error type every other fallible
/// analysis path uses.
pub fn from_json(json: &str) -> Result<BlockchainLog, AnalyzeError> {
    serde_json::from_str(json).map_err(|e| AnalyzeError::Json(e.to_string()))
}

/// CSV header matching [`to_csv`] rows.
pub const CSV_HEADER: &str = "commit_index,block,client_ts_us,commit_ts_us,contract,activity,args,invoker,endorsers,status,tx_type,reads,writes";

fn csv_escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

fn row(r: &TxRecord) -> String {
    let args = r
        .args
        .iter()
        .map(Value::to_string)
        .collect::<Vec<_>>()
        .join(";");
    let endorsers = r
        .endorsers
        .iter()
        .map(|p| p.to_string())
        .collect::<Vec<_>>()
        .join(";");
    let reads = r
        .rwset
        .reads
        .iter()
        .map(|x| x.key.clone())
        .collect::<Vec<_>>()
        .join(";");
    let writes = r
        .rwset
        .writes
        .iter()
        .map(|x| x.key.clone())
        .collect::<Vec<_>>()
        .join(";");
    [
        r.commit_index.to_string(),
        r.block.to_string(),
        r.client_ts.as_micros().to_string(),
        r.commit_ts.as_micros().to_string(),
        csv_escape(&r.contract),
        csv_escape(&r.activity),
        csv_escape(&args),
        r.invoker.to_string(),
        csv_escape(&endorsers),
        r.status.to_string(),
        r.tx_type.to_string(),
        csv_escape(&reads),
        csv_escape(&writes),
    ]
    .join(",")
}

/// Render the whole log as CSV (header + one row per transaction).
pub fn to_csv(log: &BlockchainLog) -> String {
    let mut out = String::with_capacity(log.len() * 96 + CSV_HEADER.len());
    out.push_str(CSV_HEADER);
    out.push('\n');
    for r in log.records() {
        out.push_str(&row(r));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::test_support::{log_of, Rec};
    use fabric_sim::ledger::TxStatus;

    fn sample() -> BlockchainLog {
        log_of(vec![
            Rec::new(0, "pushASN")
                .args(vec!["P0001".into()])
                .reads(&["scm/P0001"])
                .writes(&["scm/P0001"])
                .build(),
            Rec::new(1, "queryProducts")
                .args(vec!["P0001".into(), "P0002".into()])
                .reads(&["scm/P0001", "scm/P0002"])
                .status(TxStatus::MvccReadConflict)
                .build(),
        ])
    }

    #[test]
    fn json_round_trips() {
        let log = sample();
        let json = to_json(&log);
        let back = from_json(&json).unwrap();
        assert_eq!(back.len(), log.len());
        assert_eq!(&*back.records()[1].activity, "queryProducts");
        assert_eq!(back.records()[1].status, TxStatus::MvccReadConflict);
        assert_eq!(back.records()[0].rwset, log.records()[0].rwset);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = to_csv(&sample());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], CSV_HEADER);
        assert!(lines[1].contains("pushASN"));
        assert!(lines[2].contains("MVCC_READ_CONFLICT"));
        assert!(lines[2].contains("P0001;P0002"), "{:?}", lines[2]);
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn row_field_count_matches_header() {
        let log = sample();
        let line = row(&log.records()[0]);
        // No embedded commas in this sample → field count is comma count+1.
        assert_eq!(
            line.split(',').count(),
            CSV_HEADER.split(',').count(),
            "{line}"
        );
    }

    #[test]
    fn malformed_json_errors() {
        assert!(from_json("{not json").is_err());
    }
}

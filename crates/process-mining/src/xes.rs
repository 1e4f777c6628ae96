//! XES export.
//!
//! [XES](http://xes-standard.org/) (eXtensible Event Stream, IEEE 1849) is
//! the interchange format of the process-mining ecosystem — ProM, Disco and
//! Celonis (the tools the paper lists in §2.2) all import it. Exporting the
//! generated event logs lets the paper's "preprocessed blockchain log can be
//! directly obtained" claim extend to external tooling.

use crate::eventlog::EventLog;
use std::fmt::Write as _;

fn xml_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            other => out.push(other),
        }
    }
    out
}

/// Serialize an event log as an XES document.
///
/// Each trace carries its CaseID as `concept:name`; each event carries the
/// activity as `concept:name` and its position as `blockoptr:commit_order`
/// (the paper orders events by commit order rather than timestamp, §4.2).
pub fn to_xes(log: &EventLog) -> String {
    let mut out = String::with_capacity(log.event_count() * 96 + 512);
    out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    out.push_str(
        "<log xes.version=\"1.0\" xes.features=\"\" xmlns=\"http://www.xes-standard.org/\">\n",
    );
    out.push_str("  <extension name=\"Concept\" prefix=\"concept\" uri=\"http://www.xes-standard.org/concept.xesext\"/>\n");
    out.push_str("  <string key=\"concept:name\" value=\"blockoptr blockchain log\"/>\n");
    for trace in log.traces() {
        out.push_str("  <trace>\n");
        let _ = writeln!(
            out,
            "    <string key=\"concept:name\" value=\"{}\"/>",
            xml_escape(&trace.case_id)
        );
        for (i, activity) in trace.activities.iter().enumerate() {
            out.push_str("    <event>\n");
            let _ = writeln!(
                out,
                "      <string key=\"concept:name\" value=\"{}\"/>",
                xml_escape(activity)
            );
            let _ = writeln!(
                out,
                "      <int key=\"blockoptr:commit_order\" value=\"{i}\"/>"
            );
            out.push_str("    </event>\n");
        }
        out.push_str("  </trace>\n");
    }
    out.push_str("</log>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eventlog::log_from;

    #[test]
    fn export_structure() {
        let log = log_from(&[&["pushASN", "ship"], &["pushASN"]]);
        let xes = to_xes(&log);
        assert!(xes.starts_with("<?xml"));
        assert_eq!(xes.matches("<trace>").count(), 2);
        assert_eq!(xes.matches("<event>").count(), 3);
        assert!(xes.contains("value=\"pushASN\""));
        assert!(xes.contains("xes-standard.org"));
    }

    #[test]
    fn traces_list_their_case_and_activities_in_order() {
        let log = log_from(&[&["a", "b", "c"], &["a", "c"], &["b"]]);
        let xes = to_xes(&log);
        let mut rest = xes.as_str();
        for trace in log.traces() {
            let case = format!("<string key=\"concept:name\" value=\"{}\"/>", trace.case_id);
            let at = rest.find(&case).expect("trace case id");
            rest = &rest[at + case.len()..];
            for activity in &trace.activities {
                let event = format!("<string key=\"concept:name\" value=\"{activity}\"/>");
                let at = rest.find(&event).expect("event in trace order");
                rest = &rest[at + event.len()..];
            }
        }
        assert_eq!(xes.matches("<trace>").count(), log.len());
        assert_eq!(xes.matches("<event>").count(), log.event_count());
    }

    #[test]
    fn escapes_special_characters() {
        let log = log_from(&[&["a<b>&\"c'\""]]);
        let xes = to_xes(&log);
        assert!(xes.contains("value=\"a&lt;b&gt;&amp;&quot;c&apos;&quot;\""));
        assert!(!xes.contains("a<b>"));
    }

    #[test]
    fn empty_log() {
        let xes = to_xes(&EventLog::new());
        assert_eq!(xes.matches("<trace>").count(), 0);
        assert_eq!(xes.matches("<event>").count(), 0);
        assert!(xes.trim_end().ends_with("</log>"));
    }

    #[test]
    fn events_carry_commit_order() {
        let log = log_from(&[&["x", "y"]]);
        let xes = to_xes(&log);
        assert!(xes.contains("blockoptr:commit_order\" value=\"0\""));
        assert!(xes.contains("blockoptr:commit_order\" value=\"1\""));
    }
}

//! The flight recorder's post-mortem dump: a deterministic, line-oriented
//! text rendering of the last N trace events plus the component's queue and
//! occupancy state at the instant a terminal failure fired (DESIGN §12).
//!
//! The format is fixed so same-seed runs produce byte-identical dumps:
//!
//! ```text
//! === paella flight recorder ===
//! trigger: node-crash-sole-replica
//! at_ns: 123456
//! state: jobs_inflight=3
//! state: queued_ingest=1
//! event: at_ns=123000 seq=41 kind=kernel-dispatched KernelDispatched { .. }
//! === end flight recorder ===
//! ```

use paella_sim::SimTime;

use crate::tracer::TraceLog;

/// Renders one post-mortem dump. `state` pairs print in the order given —
/// callers must pass a fixed order. The log's events print oldest first,
/// each with its sequence number ([`TraceLog::numbered`]), via the event's
/// derived `Debug` (stable for a fixed enum definition).
pub fn render(trigger: &str, at: SimTime, state: &[(&str, u64)], log: &TraceLog) -> String {
    let mut out = String::new();
    out.push_str("=== paella flight recorder ===\n");
    out.push_str(&format!("trigger: {trigger}\n"));
    out.push_str(&format!("at_ns: {}\n", at.as_nanos()));
    for (k, v) in state {
        out.push_str(&format!("state: {k}={v}\n"));
    }
    for (seq, e) in log.numbered() {
        out.push_str(&format!(
            "event: at_ns={} seq={seq} kind={} {:?}\n",
            e.at.as_nanos(),
            e.event.kind(),
            e.event
        ));
    }
    out.push_str("=== end flight recorder ===\n");
    out
}

/// Validates a dump's structure: header and trailer lines, a `trigger:`
/// line, a parseable `at_ns:` line, and every body line being a `state:`
/// or `event:` record (events with parseable `at_ns=`/`seq=` fields and a
/// non-empty `kind=`).
pub fn validate_dump(dump: &str) -> Result<(), String> {
    let mut lines = dump.lines();
    if lines.next() != Some("=== paella flight recorder ===") {
        return Err("missing header line".into());
    }
    match lines.next() {
        Some(l) if l.starts_with("trigger: ") && l.len() > "trigger: ".len() => {}
        other => return Err(format!("bad trigger line: {other:?}")),
    }
    match lines.next() {
        Some(l) => {
            let v = l
                .strip_prefix("at_ns: ")
                .ok_or_else(|| format!("bad at_ns line: {l:?}"))?;
            v.parse::<u64>()
                .map_err(|e| format!("unparseable at_ns {v:?}: {e}"))?;
        }
        None => return Err("truncated before at_ns".into()),
    }
    let mut saw_trailer = false;
    for l in lines {
        if saw_trailer {
            return Err(format!("content after trailer: {l:?}"));
        }
        if l == "=== end flight recorder ===" {
            saw_trailer = true;
        } else if let Some(rest) = l.strip_prefix("state: ") {
            let (_, v) = rest
                .split_once('=')
                .ok_or_else(|| format!("bad state line: {l:?}"))?;
            v.parse::<u64>()
                .map_err(|e| format!("unparseable state value {v:?}: {e}"))?;
        } else if let Some(rest) = l.strip_prefix("event: ") {
            let at = rest
                .strip_prefix("at_ns=")
                .and_then(|r| r.split(' ').next())
                .ok_or_else(|| format!("bad event line: {l:?}"))?;
            at.parse::<u64>()
                .map_err(|e| format!("unparseable event at_ns {at:?}: {e}"))?;
            let mut fields = rest.split(' ').skip(1);
            let seq = (fields.next())
                .and_then(|f| f.strip_prefix("seq="))
                .ok_or_else(|| format!("event line missing seq: {l:?}"))?;
            seq.parse::<u64>()
                .map_err(|e| format!("unparseable event seq {seq:?}: {e}"))?;
            match fields.next().and_then(|f| f.strip_prefix("kind=")) {
                Some(kind) if !kind.is_empty() => {}
                _ => return Err(format!("event line missing kind: {l:?}")),
            }
        } else {
            return Err(format!("unrecognized line: {l:?}"));
        }
    }
    if !saw_trailer {
        return Err("missing trailer line".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use crate::tracer::TracedEvent;

    fn sample() -> String {
        let mut log = TraceLog::from(vec![
            TracedEvent {
                at: SimTime::from_micros(10),
                event: TraceEvent::KernelCompleted { kernel: 7 },
            },
            TracedEvent {
                at: SimTime::from_micros(12),
                event: TraceEvent::NodeCrash { node: 0 },
            },
        ]);
        log.first_seq = 3;
        render(
            "node-crash-sole-replica",
            SimTime::from_micros(12),
            &[("jobs_inflight", 3), ("queued_ingest", 1)],
            &log,
        )
    }

    #[test]
    fn rendered_dump_validates_and_is_deterministic() {
        let a = sample();
        let b = sample();
        assert_eq!(a, b);
        validate_dump(&a).unwrap();
        assert!(a.contains("trigger: node-crash-sole-replica"));
        assert!(a.contains("state: jobs_inflight=3"));
        assert!(a.contains("event: at_ns=12000 seq=4 kind=node-crash NodeCrash { node: 0 }"));
    }

    #[test]
    fn validator_rejects_malformed_dumps() {
        assert!(validate_dump("").is_err());
        assert!(validate_dump("=== paella flight recorder ===\n").is_err());
        let good = sample();
        let no_trailer = good.replace("=== end flight recorder ===\n", "");
        assert!(validate_dump(&no_trailer).is_err());
        let bad_state = good.replace("jobs_inflight=3", "jobs_inflight=x");
        assert!(validate_dump(&bad_state).is_err());
        let stray = good.replace("state: queued_ingest=1\n", "garbage\n");
        assert!(validate_dump(&stray).is_err());
        let after = format!("{good}extra\n");
        assert!(validate_dump(&after).is_err());
        let bad_seq = good.replace("seq=4", "seq=x");
        assert!(validate_dump(&bad_seq).unwrap_err().contains("seq"));
        let no_seq = good.replace("seq=4 ", "");
        assert!(validate_dump(&no_seq).unwrap_err().contains("seq"));
        let no_kind = good.replace("kind=node-crash", "kind=");
        assert!(validate_dump(&no_kind).unwrap_err().contains("kind"));
    }
}

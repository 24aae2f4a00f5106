//! Health alerts: the bounded ring, the schema-v3 JSON-lines encoding,
//! and its strict parser.

use crate::spec::Severity;
use std::collections::VecDeque;
use stem_obs::json::{self, Value};

/// The `v` field of every alert line (in lockstep with the other
/// schema-v3 exporters, [`stem_obs::SCHEMA_VERSION`]).
pub const ALERT_SCHEMA_VERSION: u64 = 3;

/// Cap on the constituent snapshot seqs an alert carries: enough to
/// resolve the whole sustain window of any sane rule, bounded so a
/// months-long episode cannot bloat the ring.
pub const MAX_CONSTITUENTS: usize = 32;

/// One fired watch rule, with full provenance: which rule, over which
/// shard, confirmed at which snapshot, built from which snapshot seqs.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthAlert {
    /// The [`crate::WatchSpec`] name that fired.
    pub rule: String,
    /// The rule's severity.
    pub severity: Severity,
    /// The shard the rule held on (`None` for engine-wide rules).
    pub shard: Option<u64>,
    /// The run epoch the alert was raised in.
    pub epoch: u64,
    /// Snapshot seq at which the condition started holding.
    pub began_seq: u64,
    /// Snapshot seq at which the sustain window was reached and the
    /// alert fired.
    pub fired_seq: u64,
    /// The stream-clock high water at fire time, when known.
    pub ticks: Option<u64>,
    /// The metric value at fire time.
    pub value: u64,
    /// The rule's threshold.
    pub threshold: u64,
    /// The constituent snapshot seqs (`began_seq..=fired_seq`, newest
    /// kept when capped at 32, `MAX_CONSTITUENTS`) — each resolves to a
    /// real `ObsSnapshot` in the registry ring or export.
    pub constituents: Vec<u64>,
}

impl HealthAlert {
    /// Encodes the alert as one JSON object on one line (no trailing
    /// newline).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(160);
        out.push_str(&format!(
            "{{\"v\":{ALERT_SCHEMA_VERSION},\"kind\":\"alert\",\"epoch\":{},\"rule\":\"{}\",\"severity\":\"{}\"",
            self.epoch,
            escape(&self.rule),
            self.severity.name()
        ));
        match self.shard {
            Some(shard) => out.push_str(&format!(",\"shard\":{shard}")),
            None => out.push_str(",\"shard\":null"),
        }
        out.push_str(&format!(
            ",\"seq\":{},\"began\":{}",
            self.fired_seq, self.began_seq
        ));
        match self.ticks {
            Some(t) => out.push_str(&format!(",\"ticks\":{t}")),
            None => out.push_str(",\"ticks\":null"),
        }
        out.push_str(&format!(
            ",\"value\":{},\"threshold\":{},\"constituents\":[",
            self.value, self.threshold
        ));
        for (i, c) in self.constituents.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&c.to_string());
        }
        out.push_str("]}");
        out
    }
}

/// Escapes a rule name for embedding in a JSON string literal (rule
/// names are user-chosen, unlike the static telemetry keys).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

const ALLOWED_FIELDS: &[&str] = &[
    "v",
    "kind",
    "epoch",
    "rule",
    "severity",
    "shard",
    "seq",
    "began",
    "ticks",
    "value",
    "threshold",
    "constituents",
];

/// Parses and validates one schema-v3 alert line.
///
/// Strictness mirrors the trace parser
/// ([`stem_obs::parse_trace_line_epoch`]): one complete JSON object,
/// exact version, exact field set, known severity, `began <= seq`, and
/// non-empty strictly-increasing constituents all at or before `seq`.
///
/// # Errors
///
/// Returns a message naming the first violated rule.
pub fn parse_alert_line(line: &str) -> Result<HealthAlert, String> {
    let value = json::parse(line)?;
    let Value::Object(map) = &value else {
        return Err("alert record must be a JSON object".to_string());
    };
    let v = field_u64(&value, "v")?;
    if v != ALERT_SCHEMA_VERSION {
        return Err(format!("unsupported alert schema v{v}"));
    }
    let kind = value
        .get("kind")
        .and_then(Value::as_str)
        .ok_or("missing or non-string \"kind\"")?;
    if kind != "alert" {
        return Err(format!("unknown alert kind {kind:?}"));
    }
    for key in map.keys() {
        if !ALLOWED_FIELDS.contains(&key.as_str()) {
            return Err(format!("unknown field {key:?} in alert record"));
        }
    }
    let severity = value
        .get("severity")
        .and_then(Value::as_str)
        .ok_or("missing or non-string \"severity\"")?;
    let severity =
        Severity::from_name(severity).ok_or_else(|| format!("unknown severity {severity:?}"))?;
    let shard = match value.get("shard") {
        Some(Value::Null) => None,
        Some(v) => Some(v.as_u64().ok_or("non-u64 \"shard\"")?),
        None => return Err("missing \"shard\"".to_string()),
    };
    let ticks = match value.get("ticks") {
        Some(Value::Null) => None,
        Some(v) => Some(v.as_u64().ok_or("non-u64 \"ticks\"")?),
        None => return Err("missing \"ticks\"".to_string()),
    };
    let fired_seq = field_u64(&value, "seq")?;
    let began_seq = field_u64(&value, "began")?;
    if began_seq > fired_seq {
        return Err(format!("began ({began_seq}) after seq ({fired_seq})"));
    }
    let items = value
        .get("constituents")
        .and_then(Value::as_array)
        .ok_or("missing or non-array \"constituents\"")?;
    if items.is_empty() {
        return Err("alert must carry at least one constituent".to_string());
    }
    let mut constituents = Vec::with_capacity(items.len());
    let mut last: Option<u64> = None;
    for (i, item) in items.iter().enumerate() {
        let seq = item
            .as_u64()
            .ok_or_else(|| format!("constituent {i} is not a u64"))?;
        if last.is_some_and(|prev| seq <= prev) {
            return Err("constituent seqs must be strictly increasing".to_string());
        }
        if seq > fired_seq {
            return Err(format!(
                "constituent {seq} after the firing seq {fired_seq}"
            ));
        }
        last = Some(seq);
        constituents.push(seq);
    }
    Ok(HealthAlert {
        rule: value
            .get("rule")
            .and_then(Value::as_str)
            .ok_or("missing or non-string \"rule\"")?
            .to_owned(),
        severity,
        shard,
        epoch: field_u64(&value, "epoch")?,
        began_seq,
        fired_seq,
        ticks,
        value: field_u64(&value, "value")?,
        threshold: field_u64(&value, "threshold")?,
        constituents,
    })
}

/// Parses a whole exported alert stream (one record per line, blank
/// lines ignored).
///
/// # Errors
///
/// Fails on the first invalid line, naming its 1-based line number.
pub fn parse_alert_stream(text: &str) -> Result<Vec<HealthAlert>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(parse_alert_line(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

fn field_u64(value: &Value, key: &str) -> Result<u64, String> {
    value
        .get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing or non-u64 {key:?}"))
}

/// A bounded ring of alerts: pushing past capacity evicts the oldest
/// (the same shape as the engine's flight-recorder ring).
#[derive(Debug)]
pub struct AlertRing {
    alerts: VecDeque<HealthAlert>,
    capacity: usize,
    evicted: u64,
}

impl AlertRing {
    /// An empty ring holding at most `capacity` alerts (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        AlertRing {
            alerts: VecDeque::new(),
            capacity: capacity.max(1),
            evicted: 0,
        }
    }

    /// Appends an alert, evicting the oldest if the ring is full.
    pub fn push(&mut self, alert: HealthAlert) {
        if self.alerts.len() == self.capacity {
            self.alerts.pop_front();
            self.evicted += 1;
        }
        self.alerts.push_back(alert);
    }

    /// The retained alerts, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<HealthAlert> {
        self.alerts.iter().cloned().collect()
    }

    /// Alerts evicted so far.
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Number of retained alerts.
    #[must_use]
    pub fn len(&self) -> usize {
        self.alerts.len()
    }

    /// Whether the ring holds nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.alerts.is_empty()
    }
}

/// The health section of an engine report: the alert ring's contents
/// at shutdown.
#[derive(Debug, Clone, Default)]
pub struct HealthReport {
    /// Every alert retained at shutdown, oldest first.
    pub alerts: Vec<HealthAlert>,
    /// Alerts the ring evicted over the run.
    pub evicted: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alert() -> HealthAlert {
        HealthAlert {
            rule: "shard-backlog".to_owned(),
            severity: Severity::Warning,
            shard: Some(2),
            epoch: 1,
            began_seq: 12,
            fired_seq: 14,
            ticks: Some(9_000),
            value: 5_000,
            threshold: 4_096,
            constituents: vec![12, 13, 14],
        }
    }

    #[test]
    fn alerts_round_trip_through_json() {
        let a = alert();
        let line = a.to_json_line();
        assert_eq!(parse_alert_line(&line).expect("own output parses"), a);
        // Engine-scoped, unknown-clock variant.
        let b = HealthAlert {
            shard: None,
            ticks: None,
            rule: "watermark-stall".to_owned(),
            severity: Severity::Critical,
            ..alert()
        };
        assert_eq!(parse_alert_line(&b.to_json_line()).unwrap(), b);
        let stream = format!("{}\n\n{}\n", a.to_json_line(), b.to_json_line());
        assert_eq!(parse_alert_stream(&stream).unwrap(), vec![a, b]);
    }

    #[test]
    fn rule_names_are_escaped() {
        let tricky = HealthAlert {
            rule: "odd \"rule\"\\name\nwith control".to_owned(),
            ..alert()
        };
        let line = tricky.to_json_line();
        assert_eq!(parse_alert_line(&line).unwrap().rule, tricky.rule);
    }

    #[test]
    fn truncations_never_parse() {
        let line = alert().to_json_line();
        for cut in 1..line.len() {
            assert!(
                parse_alert_line(&line[..cut]).is_err(),
                "accepted truncation at byte {cut}"
            );
        }
    }

    #[test]
    fn strictness_rules_are_enforced() {
        let cases = [
            // Wrong version.
            r#"{"v":2,"kind":"alert","epoch":0,"rule":"r","severity":"info","shard":null,"seq":1,"began":0,"ticks":null,"value":1,"threshold":1,"constituents":[0,1]}"#,
            // Wrong kind.
            r#"{"v":3,"kind":"alarm","epoch":0,"rule":"r","severity":"info","shard":null,"seq":1,"began":0,"ticks":null,"value":1,"threshold":1,"constituents":[0,1]}"#,
            // Unknown field.
            r#"{"v":3,"kind":"alert","epoch":0,"rule":"r","severity":"info","shard":null,"seq":1,"began":0,"ticks":null,"value":1,"threshold":1,"constituents":[0,1],"note":"x"}"#,
            // Unknown severity.
            r#"{"v":3,"kind":"alert","epoch":0,"rule":"r","severity":"meh","shard":null,"seq":1,"began":0,"ticks":null,"value":1,"threshold":1,"constituents":[0,1]}"#,
            // began after seq.
            r#"{"v":3,"kind":"alert","epoch":0,"rule":"r","severity":"info","shard":null,"seq":1,"began":2,"ticks":null,"value":1,"threshold":1,"constituents":[1]}"#,
            // Empty constituents.
            r#"{"v":3,"kind":"alert","epoch":0,"rule":"r","severity":"info","shard":null,"seq":1,"began":0,"ticks":null,"value":1,"threshold":1,"constituents":[]}"#,
            // Non-monotone constituents.
            r#"{"v":3,"kind":"alert","epoch":0,"rule":"r","severity":"info","shard":null,"seq":1,"began":0,"ticks":null,"value":1,"threshold":1,"constituents":[1,1]}"#,
            // Constituent after the firing seq.
            r#"{"v":3,"kind":"alert","epoch":0,"rule":"r","severity":"info","shard":null,"seq":1,"began":0,"ticks":null,"value":1,"threshold":1,"constituents":[0,1,2]}"#,
            // Missing epoch.
            r#"{"v":3,"kind":"alert","rule":"r","severity":"info","shard":null,"seq":1,"began":0,"ticks":null,"value":1,"threshold":1,"constituents":[0,1]}"#,
            // Not an object.
            r#"[1]"#,
        ];
        for bad in cases {
            assert!(parse_alert_line(bad).is_err(), "accepted {bad}");
        }
        let err = parse_alert_stream("not json\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
    }

    #[test]
    fn ring_evicts_oldest_and_counts() {
        let mut ring = AlertRing::new(2);
        assert!(ring.is_empty());
        for fired in 0..4u64 {
            ring.push(HealthAlert {
                fired_seq: fired,
                ..alert()
            });
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.evicted(), 2);
        let kept: Vec<u64> = ring.snapshot().iter().map(|a| a.fired_seq).collect();
        assert_eq!(kept, vec![2, 3], "oldest gave way");
    }
}

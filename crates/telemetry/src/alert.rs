//! A declarative alert engine over registry metrics.
//!
//! Rules load from a small TOML subset or JSON (`disc run --alerts
//! rules.toml`), evaluate once per slide against a metric-lookup closure,
//! and run a firing→resolved state machine per rule: a rule fires after
//! its condition holds for `for_slides` consecutive evaluations and
//! resolves after it clears for `clear_slides`. Transitions are emitted as
//! [`AlertEvent`]s — JSONL lines through the one codec ([`JsonlRecord`])
//! every telemetry stream uses — and the current firing set is
//! published as `disc_alert_active{rule="..."}` gauges.
//!
//! The TOML subset is deliberately tiny (no deps, no tables-in-tables):
//!
//! ```toml
//! [[rule]]
//! name = "quality-floor"        # required, unique
//! metric = "disc_quality_ari"   # required: a gauge or counter name
//! op = "lt"                     # gt | ge | lt | le
//! threshold = 0.80
//! for_slides = 2                # optional, default 1
//! clear_slides = 1              # optional, default 1
//! severity = "critical"        # optional, default "warning"
//! trend = false                 # optional: compare per-slide delta instead
//! ```
//!
//! The same rules in JSON: `{"rules": [{"name": ..., "metric": ...}]}` or
//! a bare array.

use crate::json::Json;
use crate::record::{field, Field, JsonlRecord};
use crate::recorder::Recorder;

/// Comparison operator of a rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlertOp {
    /// value > threshold
    Gt,
    /// value ≥ threshold
    Ge,
    /// value < threshold
    Lt,
    /// value ≤ threshold
    Le,
}

impl AlertOp {
    /// Parses `"gt"`, `"ge"`, `"lt"`, `"le"` (or the symbols).
    pub fn parse(s: &str) -> Option<AlertOp> {
        match s {
            "gt" | ">" => Some(AlertOp::Gt),
            "ge" | ">=" => Some(AlertOp::Ge),
            "lt" | "<" => Some(AlertOp::Lt),
            "le" | "<=" => Some(AlertOp::Le),
            _ => None,
        }
    }

    /// The canonical spelling (what the JSONL stream carries).
    pub fn as_str(&self) -> &'static str {
        match self {
            AlertOp::Gt => "gt",
            AlertOp::Ge => "ge",
            AlertOp::Lt => "lt",
            AlertOp::Le => "le",
        }
    }

    /// Whether `value` breaches `threshold` under this operator.
    pub fn holds(&self, value: f64, threshold: f64) -> bool {
        match self {
            AlertOp::Gt => value > threshold,
            AlertOp::Ge => value >= threshold,
            AlertOp::Lt => value < threshold,
            AlertOp::Le => value <= threshold,
        }
    }
}

/// One declarative alert rule.
#[derive(Clone, Debug, PartialEq)]
pub struct AlertRule {
    /// Unique rule name (the `rule` label of `disc_alert_active`).
    pub name: String,
    /// Metric to look up each slide (gauge or counter).
    pub metric: String,
    /// Comparison operator.
    pub op: AlertOp,
    /// Threshold the metric is compared against.
    pub threshold: f64,
    /// Consecutive breaching evaluations before the rule fires.
    pub for_slides: u64,
    /// Consecutive clear evaluations before a firing rule resolves.
    pub clear_slides: u64,
    /// Free-form severity string carried on events.
    pub severity: String,
    /// Trend mode: evaluate the per-slide delta instead of the level.
    pub trend: bool,
}

impl AlertRule {
    /// A level rule with defaults (`for_slides` 1, `clear_slides` 1,
    /// severity `"warning"`).
    pub fn new(name: &str, metric: &str, op: AlertOp, threshold: f64) -> Self {
        AlertRule {
            name: name.to_string(),
            metric: metric.to_string(),
            op,
            threshold,
            for_slides: 1,
            clear_slides: 1,
            severity: "warning".to_string(),
            trend: false,
        }
    }
}

/// Parses an alert-rules document: JSON when it parses as JSON (an array
/// of rule objects or `{"rules": [...]}`), the TOML subset otherwise.
pub fn parse_rules(text: &str) -> Result<Vec<AlertRule>, String> {
    let trimmed = text.trim_start();
    if trimmed.starts_with('{') || (trimmed.starts_with('[') && !trimmed.starts_with("[[")) {
        parse_rules_json(text)
    } else {
        parse_rules_toml(text)
    }
}

fn parse_rules_json(text: &str) -> Result<Vec<AlertRule>, String> {
    let doc = Json::parse(text)?;
    let items = match (&doc, doc.get("rules")) {
        (_, Some(Json::Arr(items))) => items.as_slice(),
        (Json::Arr(items), _) => items.as_slice(),
        _ => return Err("expected a JSON array of rules or {\"rules\": [...]}".to_string()),
    };
    let mut rules = Vec::new();
    for (i, item) in items.iter().enumerate() {
        let ctx = |e: String| format!("rule {}: {e}", i + 1);
        let str_key = |k: &str| -> Result<Option<String>, String> {
            match item.get(k) {
                None => Ok(None),
                Some(Json::Str(s)) => Ok(Some(s.clone())),
                Some(_) => Err(ctx(format!("key {k:?} is not a string"))),
            }
        };
        let num_key = |k: &str| -> Result<Option<f64>, String> {
            match item.get(k) {
                None => Ok(None),
                Some(v) => v
                    .as_f64()
                    .map(Some)
                    .ok_or_else(|| ctx(format!("key {k:?} is not a number"))),
            }
        };
        let name = str_key("name")?.ok_or_else(|| ctx("missing \"name\"".into()))?;
        let metric = str_key("metric")?.ok_or_else(|| ctx("missing \"metric\"".into()))?;
        let op_s = str_key("op")?.unwrap_or_else(|| "gt".to_string());
        let op = AlertOp::parse(&op_s)
            .ok_or_else(|| ctx(format!("bad op {op_s:?} (gt, ge, lt, le)")))?;
        let threshold = num_key("threshold")?.ok_or_else(|| ctx("missing \"threshold\"".into()))?;
        let mut rule = AlertRule::new(&name, &metric, op, threshold);
        if let Some(v) = num_key("for_slides")? {
            rule.for_slides = v as u64;
        }
        if let Some(v) = num_key("clear_slides")? {
            rule.clear_slides = v as u64;
        }
        if let Some(s) = str_key("severity")? {
            rule.severity = s;
        }
        if let Some(Json::Bool(b)) = item.get("trend") {
            rule.trend = *b;
        }
        rules.push(rule);
    }
    finish_rules(rules)
}

fn parse_rules_toml(text: &str) -> Result<Vec<AlertRule>, String> {
    struct Draft {
        name: Option<String>,
        metric: Option<String>,
        op: AlertOp,
        threshold: Option<f64>,
        for_slides: u64,
        clear_slides: u64,
        severity: String,
        trend: bool,
        header_line: usize,
    }
    let fresh = |line| Draft {
        name: None,
        metric: None,
        op: AlertOp::Gt,
        threshold: None,
        for_slides: 1,
        clear_slides: 1,
        severity: "warning".to_string(),
        trend: false,
        header_line: line,
    };
    let mut rules = Vec::new();
    let mut current: Option<Draft> = None;
    let close = |d: Draft, rules: &mut Vec<AlertRule>| -> Result<(), String> {
        let name = d
            .name
            .ok_or_else(|| format!("line {}: rule has no name", d.header_line))?;
        let metric = d
            .metric
            .ok_or_else(|| format!("rule {name:?}: missing metric"))?;
        let threshold = d
            .threshold
            .ok_or_else(|| format!("rule {name:?}: missing threshold"))?;
        let mut rule = AlertRule::new(&name, &metric, d.op, threshold);
        rule.for_slides = d.for_slides;
        rule.clear_slides = d.clear_slides;
        rule.severity = d.severity;
        rule.trend = d.trend;
        rules.push(rule);
        Ok(())
    };
    for (i, raw) in text.lines().enumerate() {
        let line = match raw.split_once('#') {
            Some((head, _)) => head.trim(),
            None => raw.trim(),
        };
        if line.is_empty() {
            continue;
        }
        if line == "[[rule]]" {
            if let Some(d) = current.take() {
                close(d, &mut rules)?;
            }
            current = Some(fresh(i + 1));
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!(
                "line {}: expected `key = value` or [[rule]]",
                i + 1
            ));
        };
        let (key, value) = (key.trim(), value.trim());
        let d = current
            .as_mut()
            .ok_or_else(|| format!("line {}: {key:?} appears before any [[rule]]", i + 1))?;
        let as_str = |v: &str| -> Result<String, String> {
            let v = v
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .ok_or_else(|| format!("line {}: {key} wants a quoted string", i + 1))?;
            Ok(v.to_string())
        };
        let as_num = |v: &str| -> Result<f64, String> {
            v.parse::<f64>()
                .map_err(|_| format!("line {}: {key} wants a number, got {v:?}", i + 1))
        };
        match key {
            "name" => d.name = Some(as_str(value)?),
            "metric" => d.metric = Some(as_str(value)?),
            "op" => {
                let s = as_str(value)?;
                d.op = AlertOp::parse(&s)
                    .ok_or_else(|| format!("line {}: bad op {s:?} (gt, ge, lt, le)", i + 1))?;
            }
            "threshold" => d.threshold = Some(as_num(value)?),
            "for_slides" => d.for_slides = as_num(value)? as u64,
            "clear_slides" => d.clear_slides = as_num(value)? as u64,
            "severity" => d.severity = as_str(value)?,
            "trend" => {
                d.trend = match value {
                    "true" => true,
                    "false" => false,
                    other => {
                        return Err(format!(
                            "line {}: trend wants true/false, got {other:?}",
                            i + 1
                        ))
                    }
                }
            }
            other => return Err(format!("line {}: unknown key {other:?}", i + 1)),
        }
    }
    if let Some(d) = current.take() {
        close(d, &mut rules)?;
    }
    finish_rules(rules)
}

fn finish_rules(rules: Vec<AlertRule>) -> Result<Vec<AlertRule>, String> {
    if rules.is_empty() {
        return Err("no rules defined".to_string());
    }
    for (i, r) in rules.iter().enumerate() {
        if rules[..i].iter().any(|o| o.name == r.name) {
            return Err(format!("duplicate rule name {:?}", r.name));
        }
        if r.for_slides == 0 || r.clear_slides == 0 {
            return Err(format!(
                "rule {:?}: for_slides/clear_slides must be ≥ 1",
                r.name
            ));
        }
    }
    Ok(rules)
}

/// A firing→resolved transition, as a flat JSONL record.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AlertEvent {
    /// Slide of the transition.
    pub slide: u64,
    /// Rule name.
    pub rule: String,
    /// Metric the rule watches.
    pub metric: String,
    /// Operator (canonical spelling).
    pub op: &'static str,
    /// The rule's threshold.
    pub threshold: f64,
    /// The metric value that drove the transition.
    pub value: f64,
    /// Rule severity.
    pub severity: String,
    /// `"firing"` or `"resolved"`.
    pub state: &'static str,
}

/// The line: `op` and `state` out of their closed sets, `slide` a
/// non-negative integer, `threshold`/`value` finite numbers (a non-finite
/// one is written as 0).
impl JsonlRecord for AlertEvent {
    const NAME: &'static str = "alert";
    const FIELDS: &'static [Field<Self>] = &[
        field!(uint slide),
        field!(text rule),
        field!(text metric),
        field!(one_of op, &["gt", "ge", "lt", "le"]),
        field!(num threshold),
        field!(num value),
        field!(text severity),
        field!(one_of state, &["firing", "resolved"]),
    ];
}

#[derive(Clone, Debug, Default)]
struct RuleState {
    breached: u64,
    cleared: u64,
    firing: bool,
    prev: Option<f64>,
}

/// The per-slide alert evaluator.
pub struct AlertEngine {
    rules: Vec<AlertRule>,
    states: Vec<RuleState>,
    fired_total: u64,
}

impl AlertEngine {
    /// An engine over `rules` (see [`parse_rules`]).
    pub fn new(rules: Vec<AlertRule>) -> Self {
        let states = rules.iter().map(|_| RuleState::default()).collect();
        AlertEngine {
            rules,
            states,
            fired_total: 0,
        }
    }

    /// The rules under evaluation.
    pub fn rules(&self) -> &[AlertRule] {
        &self.rules
    }

    /// Evaluates every rule against `lookup` for `slide`, returning the
    /// state transitions. A metric `lookup` cannot resolve counts as
    /// not-breached (no data never fires an alert, but it can resolve one).
    pub fn evaluate(
        &mut self,
        slide: u64,
        lookup: &dyn Fn(&str) -> Option<f64>,
    ) -> Vec<AlertEvent> {
        let mut events = Vec::new();
        for (rule, st) in self.rules.iter().zip(self.states.iter_mut()) {
            let raw = lookup(&rule.metric);
            let value = match (rule.trend, raw, st.prev) {
                (false, v, _) => v,
                (true, Some(v), Some(p)) => Some(v - p),
                (true, _, _) => None,
            };
            if rule.trend {
                st.prev = raw;
            }
            let breach = value.is_some_and(|v| rule.op.holds(v, rule.threshold));
            if breach {
                st.breached += 1;
                st.cleared = 0;
            } else {
                st.cleared += 1;
                st.breached = 0;
            }
            let transition = if !st.firing && st.breached >= rule.for_slides {
                st.firing = true;
                self.fired_total += 1;
                Some("firing")
            } else if st.firing && st.cleared >= rule.clear_slides {
                st.firing = false;
                Some("resolved")
            } else {
                None
            };
            if let Some(state) = transition {
                events.push(AlertEvent {
                    slide,
                    rule: rule.name.clone(),
                    metric: rule.metric.clone(),
                    op: rule.op.as_str(),
                    threshold: rule.threshold,
                    value: value.unwrap_or(0.0),
                    severity: rule.severity.clone(),
                    state,
                });
            }
        }
        events
    }

    /// Names of the rules currently firing.
    pub fn active(&self) -> Vec<&str> {
        self.rules
            .iter()
            .zip(self.states.iter())
            .filter(|(_, st)| st.firing)
            .map(|(r, _)| r.name.as_str())
            .collect()
    }

    /// Total firing transitions so far (what `--alerts-fatal` gates on).
    pub fn fired_total(&self) -> u64 {
        self.fired_total
    }

    /// Publishes one `disc_alert_active{rule="..."}` gauge per rule
    /// (1 firing, 0 clear).
    pub fn publish(&self, rec: &dyn Recorder) {
        for (rule, st) in self.rules.iter().zip(self.states.iter()) {
            rec.gauge_set_labeled(
                "disc_alert_active",
                "rule",
                &rule.name,
                if st.firing { 1.0 } else { 0.0 },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOML: &str = r#"
# Stream-health alert rules.
[[rule]]
name = "quality-floor"
metric = "disc_quality_ari"
op = "lt"
threshold = 0.8
for_slides = 2
severity = "critical"

[[rule]]
name = "drift"
metric = "disc_drift_score"
op = "gt"          # trailing comment
threshold = 3.0
clear_slides = 3
trend = false
"#;

    #[test]
    fn toml_subset_parses_both_rules() {
        let rules = parse_rules(TOML).unwrap();
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[0].name, "quality-floor");
        assert_eq!(rules[0].op, AlertOp::Lt);
        assert_eq!(rules[0].threshold, 0.8);
        assert_eq!(rules[0].for_slides, 2);
        assert_eq!(rules[0].severity, "critical");
        assert_eq!(rules[1].clear_slides, 3);
        assert_eq!(rules[1].severity, "warning");
        assert!(!rules[1].trend);
    }

    #[test]
    fn json_rules_parse_in_both_shapes() {
        let body = r#"{"name": "hot", "metric": "disc_drift_score", "op": "ge",
                       "threshold": 2.5, "for_slides": 3, "trend": true}"#;
        for doc in [format!("[{body}]"), format!("{{\"rules\": [{body}]}}")] {
            let rules = parse_rules(&doc).unwrap();
            assert_eq!(rules.len(), 1);
            assert_eq!(rules[0].op, AlertOp::Ge);
            assert_eq!(rules[0].for_slides, 3);
            assert!(rules[0].trend);
        }
    }

    #[test]
    fn malformed_rules_are_rejected_with_context() {
        for (text, needle) in [
            ("", "no rules"),
            ("[[rule]]\nmetric = \"m\"\nthreshold = 1\n", "no name"),
            ("[[rule]]\nname = \"a\"\nthreshold = 1\n", "missing metric"),
            (
                "[[rule]]\nname = \"a\"\nmetric = \"m\"\n",
                "missing threshold",
            ),
            ("name = \"orphan\"\n", "before any [[rule]]"),
            (
                "[[rule]]\nname = \"a\"\nmetric = \"m\"\nthreshold = 1\nop = \"between\"\n",
                "bad op",
            ),
            (
                "[[rule]]\nname = \"a\"\nmetric = \"m\"\nthreshold = 1\nbogus = 2\n",
                "unknown key",
            ),
            ("just some words\n", "key = value"),
            (
                "[[rule]]\nname = \"a\"\nmetric = \"m\"\nthreshold = 1\n\
                 [[rule]]\nname = \"a\"\nmetric = \"m\"\nthreshold = 1\n",
                "duplicate",
            ),
            ("{\"rules\": 4}", "array"),
            ("[{\"metric\": \"m\", \"threshold\": 1}]", "name"),
        ] {
            let err = parse_rules(text).unwrap_err();
            assert!(err.contains(needle), "{text:?} → {err:?}");
        }
    }

    #[test]
    fn state_machine_fires_after_for_slides_and_resolves_after_clear() {
        let mut rule = AlertRule::new("f", "m", AlertOp::Gt, 10.0);
        rule.for_slides = 2;
        rule.clear_slides = 2;
        let mut eng = AlertEngine::new(vec![rule]);
        let at = |v: f64| move |_: &str| Some(v);
        // One breaching slide: pending, not firing.
        assert!(eng.evaluate(1, &at(11.0)).is_empty());
        assert!(eng.active().is_empty());
        // Second consecutive breach: fires.
        let evs = eng.evaluate(2, &at(12.0));
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].state, "firing");
        assert_eq!(evs[0].value, 12.0);
        assert_eq!(eng.active(), vec!["f"]);
        // A single clear slide does not resolve…
        assert!(eng.evaluate(3, &at(5.0)).is_empty());
        assert_eq!(eng.active(), vec!["f"]);
        // …the second does.
        let evs = eng.evaluate(4, &at(5.0));
        assert_eq!(evs[0].state, "resolved");
        assert!(eng.active().is_empty());
        assert_eq!(eng.fired_total(), 1);
        // A breach streak interrupted by a clear starts over.
        assert!(eng.evaluate(5, &at(11.0)).is_empty());
        assert!(eng.evaluate(6, &at(5.0)).is_empty());
        assert!(eng.evaluate(7, &at(11.0)).is_empty());
        assert_eq!(eng.evaluate(8, &at(11.0))[0].state, "firing");
    }

    #[test]
    fn missing_metric_never_fires_but_resolves() {
        let mut eng = AlertEngine::new(vec![AlertRule::new("m", "gone", AlertOp::Gt, 1.0)]);
        for slide in 1..=5 {
            assert!(eng.evaluate(slide, &|_| None).is_empty());
        }
        // Fire it, then withdraw the metric: the alert resolves.
        assert_eq!(eng.evaluate(6, &|_| Some(5.0))[0].state, "firing");
        assert_eq!(eng.evaluate(7, &|_| None)[0].state, "resolved");
    }

    #[test]
    fn trend_rules_compare_consecutive_deltas() {
        let mut rule = AlertRule::new("jump", "m", AlertOp::Gt, 9.0);
        rule.trend = true;
        let mut eng = AlertEngine::new(vec![rule]);
        // First sample has no delta yet.
        assert!(eng.evaluate(1, &|_| Some(100.0)).is_empty());
        // +5 per slide: under the threshold.
        assert!(eng.evaluate(2, &|_| Some(105.0)).is_empty());
        // +20 in one slide: fires.
        let evs = eng.evaluate(3, &|_| Some(125.0));
        assert_eq!(evs[0].state, "firing");
        assert_eq!(evs[0].value, 20.0);
    }

    #[test]
    fn publish_renders_active_gauges() {
        use crate::registry::Registry;
        let mut eng = AlertEngine::new(vec![
            AlertRule::new("hot", "m", AlertOp::Gt, 1.0),
            AlertRule::new("cold", "m", AlertOp::Lt, 0.0),
        ]);
        eng.evaluate(1, &|_| Some(2.0));
        let reg = Registry::new();
        eng.publish(&reg);
        assert_eq!(
            reg.labeled_gauge_value("disc_alert_active", "rule", "hot"),
            Some(1.0)
        );
        assert_eq!(
            reg.labeled_gauge_value("disc_alert_active", "rule", "cold"),
            Some(0.0)
        );
        let text = reg.render_prometheus();
        assert!(text.contains("disc_alert_active{rule=\"hot\"} 1"), "{text}");
        crate::prom::parse_prometheus(&text).unwrap();
    }

    #[test]
    fn alert_event_round_trips_and_validates_strictly() {
        let ev = AlertEvent {
            slide: 42,
            rule: "quality-floor".to_string(),
            metric: "disc_quality_ari".to_string(),
            op: "lt",
            threshold: 0.8,
            value: 0.62,
            severity: "critical".to_string(),
            state: "firing",
        };
        let line = ev.to_jsonl();
        AlertEvent::assert_valid_jsonl(&line);
        assert_eq!(AlertEvent::from_jsonl(&line).unwrap(), ev);

        let missing = line.replace("\"severity\":\"critical\",", "");
        assert!(AlertEvent::validate_jsonl(&missing)
            .unwrap_err()
            .contains("severity"));
        let unknown = line.replace("\"state\":\"firing\"", "\"state\":\"firing\",\"x\":1");
        assert!(AlertEvent::validate_jsonl(&unknown)
            .unwrap_err()
            .contains("unknown"));
        let bad_state = line.replace("\"state\":\"firing\"", "\"state\":\"armed\"");
        assert!(AlertEvent::validate_jsonl(&bad_state)
            .unwrap_err()
            .contains("armed"));
        let bad_slide = line.replace("\"slide\":42", "\"slide\":4.5");
        assert!(AlertEvent::validate_jsonl(&bad_slide).is_err());
        assert!(AlertEvent::validate_jsonl("{}").is_err());
    }
}

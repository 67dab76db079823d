//! The JSONL validators are run against operator-supplied files (CI smoke
//! checks, offline analysis), so they must *reject*, never *crash*: for
//! arbitrary input — binary garbage, truncated JSON, deeply nested
//! structures, near-miss schema lines — `Json::parse`, `validate_jsonl`,
//! and `from_jsonl` must return an `Err`, not panic.

use disc_telemetry::record::Kind;
use disc_telemetry::{
    AlertEvent, HealthEvent, IngestEvent, Json, JsonlRecord, ProvenanceEvent, ProvenanceKind,
    SlideEvent,
};
use proptest::prelude::*;

type Validator = fn(&str) -> Result<(), String>;

/// Every stream's validator.
const VALIDATORS: [(&str, Validator); 5] = [
    ("slide", SlideEvent::validate_jsonl),
    ("health", HealthEvent::validate_jsonl),
    ("ingest", IngestEvent::validate_jsonl),
    ("alert", AlertEvent::validate_jsonl),
    ("provenance", ProvenanceEvent::validate_jsonl),
];

fn alert_sample() -> AlertEvent {
    AlertEvent {
        slide: 42,
        rule: "quality \"floor\"".to_string(),
        metric: "disc_quality_ari".to_string(),
        op: "lt",
        threshold: 0.8,
        value: -0.25,
        severity: "critical".to_string(),
        state: "firing",
    }
}

fn terminated_sample() -> ProvenanceEvent {
    ProvenanceEvent {
        slide: 9,
        kind: ProvenanceKind::MsBfsTerminated {
            rep: 4,
            reason: disc_telemetry::MsBfsReason::Exhausted,
            rounds: 14,
        },
    }
}

/// One valid line per stream with its first key repeated at the end.
fn repeated_key_lines() -> Vec<String> {
    let repeat = |line: String, key: &str, value: &str| {
        assert!(line.starts_with(&format!("{{\"{key}\":")), "{line}");
        format!("{},\"{key}\":{value}}}", &line[..line.len() - 1])
    };
    vec![
        repeat(SlideEvent::default().to_jsonl(), "seq", "7"),
        repeat(HealthEvent::default().to_jsonl(), "slide", "7"),
        repeat(IngestEvent::default().to_jsonl(), "slide", "7"),
        repeat(alert_sample().to_jsonl(), "slide", "7"),
        repeat(ProvenanceEvent::default().to_jsonl(), "slide", "7"),
    ]
}

/// Near-miss corpus: lines adjacent to the real schemas, plus classic
/// parser-killers. None may panic; the schema validators must reject all.
#[test]
fn corpus_of_hostile_lines_is_rejected_without_panicking() {
    let corpus = [
        "",
        "}",
        "{",
        "[",
        "[[[[[[[[[[[[[[[[[[[[[[[[[[[[",
        "{\"slide\":}",
        "{\"slide\": 1e309}",
        "{\"slide\": -1, \"kind\": \"ex_core_detected\", \"id\": 0, \"rep\": 0, \"n\": 0, \"reason\": \"\"}",
        "{\"slide\": 1, \"kind\": \"no_such_kind\", \"id\": 0, \"rep\": 0, \"n\": 0, \"reason\": \"\"}",
        "{\"slide\": 1, \"kind\": \"ex_core_detected\", \"id\": 0, \"rep\": 0, \"n\": 0, \"reason\": \"\", \"extra\": 1}",
        "{\"slide\": 1, \"slide\": 1, \"kind\": \"ex_core_detected\", \"id\": 0, \"rep\": 0, \"n\": 0, \"reason\": \"\"}",
        "null",
        "true",
        "\"just a string\"",
        "{\"seq\": \"not a number\"}",
        "{\"engine\": 7}",
        "\u{0}\u{0}\u{0}",
        "{\"slide\": 18446744073709551616}",
        "{\"a\": \"\\udead\"}",
        "{\"a\": \"unterminated",
    ];
    let repeated = repeated_key_lines();
    for line in corpus
        .iter()
        .copied()
        .chain(repeated.iter().map(String::as_str))
    {
        for (name, validate) in VALIDATORS {
            assert!(validate(line).is_err(), "{name} accepted {line:?}");
        }
        assert!(SlideEvent::from_jsonl(line).is_err());
        assert!(HealthEvent::from_jsonl(line).is_err());
        assert!(IngestEvent::from_jsonl(line).is_err());
        assert!(AlertEvent::from_jsonl(line).is_err());
        assert!(ProvenanceEvent::from_jsonl(line).is_err());
    }
}

/// A key given twice is a schema violation on every stream, even when both
/// values are valid (the parser keeps both members; the validator must
/// not look at only one of them).
#[test]
fn every_schema_rejects_a_repeated_key() {
    for ((name, validate), line) in VALIDATORS.into_iter().zip(repeated_key_lines()) {
        let err = validate(&line).unwrap_err();
        assert!(err.contains("duplicate key"), "{name}: {err}");
    }
}

/// Renders an object's members back to one compact line.
fn render(members: &[(String, Json)]) -> String {
    let member = |(key, value): &(String, Json)| match value {
        Json::Num(n) => format!("\"{key}\":{n}"),
        Json::Str(s) => format!("\"{key}\":\"{}\"", disc_telemetry::json::escape(s)),
        Json::Null => format!("\"{key}\":null"),
        other => panic!("flat records hold no {other:?}"),
    };
    let body: Vec<String> = members.iter().map(member).collect();
    format!("{{{}}}", body.join(","))
}

/// Takes a valid record of `R` and checks that its validator rejects the
/// line with any one key missing, with any one value of a wrong kind, and
/// with an unknown key added — naming the key each time.
fn rejects_drift_from<R: JsonlRecord + std::fmt::Debug + PartialEq>(sample: R) {
    let line = sample.to_jsonl();
    R::assert_valid_jsonl(&line);
    assert_eq!(R::from_jsonl(&line).unwrap(), sample);
    let Json::Obj(members) = Json::parse(&line).unwrap() else {
        panic!("{line} is not an object");
    };
    assert_eq!(render(&members), line, "the helper renders like the codec");
    assert_eq!(members.len(), R::FIELDS.len());
    for (i, field) in R::FIELDS.iter().enumerate() {
        let key = field.key;
        let mut missing = members.clone();
        missing.remove(i);
        let err = R::validate_jsonl(&render(&missing)).unwrap_err();
        assert!(err.contains("missing") && err.contains(key), "{key}: {err}");

        let wrong = match field.kind {
            Kind::Uint => vec![Json::Num(-1.0), Json::Num(1.5), Json::Str("1".into())],
            Kind::Num => vec![Json::Str("1.5".into()), Json::Null],
            Kind::Str => vec![Json::Num(1.0), Json::Null],
            Kind::OneOf(_) => vec![Json::Str("no_such_name".into()), Json::Num(1.0)],
        };
        for value in wrong {
            let mut drifted = members.clone();
            drifted[i].1 = value.clone();
            let err = R::validate_jsonl(&render(&drifted)).unwrap_err();
            assert!(err.contains(key), "{key} = {value:?}: {err}");
        }
    }
    let mut unknown = members.clone();
    unknown.push(("bogus".to_string(), Json::Num(1.0)));
    let err = R::validate_jsonl(&render(&unknown)).unwrap_err();
    assert!(
        err.contains("unknown key") && err.contains("bogus"),
        "{err}"
    );
}

#[test]
fn every_schema_rejects_missing_unknown_and_wrong_kind_keys() {
    rejects_drift_from(SlideEvent {
        seq: 3,
        engine: "disc",
        backend: "grid",
        window_len: 1000,
        mem_bytes: 1 << 20,
        ..SlideEvent::default()
    });
    rejects_drift_from(HealthEvent {
        slide: 9,
        ari_ppm: 993_000,
        ..HealthEvent::default()
    });
    rejects_drift_from(IngestEvent {
        slide: 12,
        records: 1_000,
        ..IngestEvent::default()
    });
    rejects_drift_from(alert_sample());
    rejects_drift_from(terminated_sample());
}

/// The panicking wrappers accept what the engines actually emit.
#[test]
fn wrappers_accept_emitted_lines() {
    SlideEvent::assert_valid_jsonl(&SlideEvent::default().to_jsonl());
    let ev = ProvenanceEvent {
        slide: 3,
        kind: disc_telemetry::ProvenanceKind::ExCoreDetected { id: 17 },
    };
    ProvenanceEvent::assert_valid_jsonl(&ev.to_jsonl());
}

#[test]
#[should_panic(expected = "invalid slide-event JSONL line")]
fn slide_wrapper_panics_with_the_line_in_the_message() {
    SlideEvent::assert_valid_jsonl("{\"seq\": 1}");
}

#[test]
#[should_panic(expected = "invalid provenance JSONL line")]
fn provenance_wrapper_panics_with_the_line_in_the_message() {
    ProvenanceEvent::assert_valid_jsonl("not json");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Raw byte fuzz (lossily decoded to text, as an operator's shell
    /// pipeline would): parse and both validators must return, not panic.
    #[test]
    fn validators_never_panic_on_arbitrary_bytes(
        bytes in prop::collection::vec(0u8..=255, 0..120),
    ) {
        let line = String::from_utf8_lossy(&bytes);
        let _ = Json::parse(&line);
        let _ = SlideEvent::validate_jsonl(&line);
        let _ = SlideEvent::from_jsonl(&line);
        let _ = ProvenanceEvent::validate_jsonl(&line);
        let _ = ProvenanceEvent::from_jsonl(&line);
        let _ = HealthEvent::from_jsonl(&line);
        let _ = IngestEvent::from_jsonl(&line);
        let _ = AlertEvent::from_jsonl(&line);
    }

    /// Structured fuzz: mutate one byte of a *valid* line. The result must
    /// either still validate (the flip hit insignificant whitespace or a
    /// digit) or be rejected — never a panic.
    #[test]
    fn validators_never_panic_on_mutated_valid_lines(
        at_frac in 0.0f64..1.0,
        byte in 0u8..=255,
    ) {
        let valid = SlideEvent::default().to_jsonl();
        let mut bytes = valid.into_bytes();
        let at = ((bytes.len() - 1) as f64 * at_frac) as usize;
        bytes[at] = byte;
        let line = String::from_utf8_lossy(&bytes);
        let _ = SlideEvent::validate_jsonl(&line);
        let _ = SlideEvent::from_jsonl(&line);
    }
}

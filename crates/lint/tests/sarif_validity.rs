//! SARIF 2.1.0 conformance tests: the emitted document must be
//! well-formed JSON with the structure `github/codeql-action/upload-sarif`
//! requires. The workspace is offline (no `serde`), so validation uses
//! the strict in-tree parser from `sdp-json` — the same implementation
//! `sdp-serve` trusts for request/response bodies, so anything the SARIF
//! emitter produces that a real consumer would choke on fails here too.

use sdp_json::Json;
use sdp_lint::rules::{Diagnostic, Rule};
use sdp_lint::sarif::to_sarif;

// ---------------------------------------------------------------------
// panicking accessors over the shared non-panicking API (test-only)

trait Expect {
    fn at(&self, key: &str) -> &Json;
    fn nth(&self, i: usize) -> &Json;
    fn arr(&self) -> &[Json];
    fn str(&self) -> &str;
    fn num(&self) -> f64;
}

impl Expect for Json {
    fn at(&self, key: &str) -> &Json {
        Json::get(self, key).unwrap_or_else(|| panic!("missing key `{key}` in {self}"))
    }
    fn nth(&self, i: usize) -> &Json {
        Json::idx(self, i).unwrap_or_else(|| panic!("missing index {i} in {self}"))
    }
    fn arr(&self) -> &[Json] {
        self.as_arr()
            .unwrap_or_else(|| panic!("expected array, got {self}"))
    }
    fn str(&self) -> &str {
        self.as_str()
            .unwrap_or_else(|| panic!("expected string, got {self}"))
    }
    fn num(&self) -> f64 {
        self.as_f64()
            .unwrap_or_else(|| panic!("expected number, got {self}"))
    }
}

/// `locations[0].physicalLocation` of a result.
fn physical_location(result: &Json) -> &Json {
    result.at("locations").nth(0).at("physicalLocation")
}

// ---------------------------------------------------------------------
// the tests

/// Validates the SARIF 2.1.0 skeleton shared by every report and returns
/// the `results` array.
fn validate(doc: &str) -> Vec<Json> {
    let v = sdp_json::parse(doc).expect("SARIF output must be well-formed JSON");
    assert!(
        v.at("$schema").str().contains("sarif-schema-2.1.0"),
        "schema URI pins 2.1.0"
    );
    assert_eq!(v.at("version").str(), "2.1.0");
    let runs = v.at("runs").arr();
    assert_eq!(runs.len(), 1, "one run per report");
    let driver = runs[0].at("tool").at("driver");
    assert_eq!(driver.at("name").str(), "sdp-lint");
    let rules = driver.at("rules").arr();
    assert_eq!(rules.len(), Rule::ALL.len(), "every rule carries metadata");
    for (r, meta) in Rule::ALL.iter().zip(rules) {
        assert_eq!(meta.at("id").str(), r.name());
        assert!(!meta.at("shortDescription").at("text").str().is_empty());
    }
    runs[0].at("results").arr().to_vec()
}

#[test]
fn empty_report_is_valid_sarif() {
    assert!(validate(&to_sarif(&[])).is_empty());
}

#[test]
fn diagnostics_round_trip_through_sarif() {
    let diags = vec![
        Diagnostic {
            rule: Rule::PanicReachability,
            rel_path: "crates\\gp\\src\\lib.rs".into(), // windows-style path
            line: 42,
            col: 7,
            message: "`unwrap()` in `gp::place`, reachable from a flow entry point".into(),
            notes: vec!["reached via: cli::main \u{2192} gp::place".into()],
            marker_missing_reason: false,
        },
        Diagnostic {
            rule: Rule::NondeterministicIter,
            rel_path: "crates/legal/src/abacus.rs".into(),
            line: 1,
            col: 1,
            message: "tricky \"quoted\" text with \\ backslash,\nnewline and \ttab".into(),
            notes: vec![],
            marker_missing_reason: true,
        },
    ];
    let results = validate(&to_sarif(&diags));
    assert_eq!(results.len(), 2);

    let r0 = &results[0];
    assert_eq!(r0.at("ruleId").str(), "panic-reachability");
    assert_eq!(r0.at("level").str(), "error");
    let msg = r0.at("message").at("text").str();
    assert!(
        msg.contains("cli::main \u{2192} gp::place"),
        "chain note embedded in the message: {msg}"
    );
    let loc = physical_location(r0);
    assert_eq!(
        loc.at("artifactLocation").at("uri").str(),
        "crates/gp/src/lib.rs",
        "URIs are forward-slashed"
    );
    assert_eq!(loc.at("artifactLocation").at("uriBaseId").str(), "SRCROOT");
    let region = loc.at("region");
    assert_eq!(region.at("startLine").num() as usize, 42);
    assert_eq!(region.at("startColumn").num() as usize, 7);
    let rule_index = r0.at("ruleIndex").num() as usize;
    assert_eq!(
        Rule::ALL[rule_index],
        Rule::PanicReachability,
        "ruleIndex points into the driver rules array"
    );

    let msg1 = results[1].at("message").at("text").str();
    assert!(
        msg1.contains("tricky \"quoted\" text with \\ backslash,\nnewline and \ttab"),
        "escaping round-trips: {msg1}"
    );
    assert!(
        msg1.contains("no `-- <reason>`"),
        "reasonless marker is called out: {msg1}"
    );
}

#[test]
fn workspace_report_is_valid_sarif() {
    // Whatever the workspace currently contains (normally zero findings,
    // but the document must stay valid either way), the full pipeline
    // emits conformant SARIF.
    let root = sdp_lint::find_root(None).expect("workspace root");
    let (diags, _) = sdp_lint::lint_workspace(&root).expect("scan workspace");
    let results = validate(&to_sarif(&diags));
    assert_eq!(results.len(), diags.len());
}

//! Keeps `docs/PROTOCOL.md` honest: every JSON example in the spec must
//! parse through the real protocol code, and every message kind the
//! code knows must be documented. (`scripts/ci.sh` runs the same
//! inventory check with grep so doc drift also fails outside the test
//! suite.)

use server::protocol::{Request, ShardResult, REQUEST_KINDS, RESPONSE_KINDS};

fn spec_text() -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../docs/PROTOCOL.md");
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// All lines inside ```json fences that look like wire messages.
fn example_lines(spec: &str) -> Vec<String> {
    let mut lines = Vec::new();
    let mut in_fence = false;
    for line in spec.lines() {
        if line.trim() == "```json" {
            in_fence = true;
        } else if line.trim() == "```" {
            in_fence = false;
        } else if in_fence && line.trim_start().starts_with('{') {
            lines.push(line.trim().to_string());
        }
    }
    lines
}

#[test]
fn every_spec_example_parses_through_the_protocol_code() {
    let spec = spec_text();
    let examples = example_lines(&spec);
    assert!(
        examples.len() >= 25,
        "suspiciously few examples extracted ({}): fence scraping broke?",
        examples.len()
    );
    // The daemon's `stats` response predates the kind inventories and is
    // keyed by its request kind in the doc; everything else must be in
    // RESPONSE_KINDS.
    let mut requests = 0usize;
    let mut responses = 0usize;
    for line in &examples {
        let fields = charon::json::parse_flat_object(line)
            .unwrap_or_else(|e| panic!("example is not codec-valid JSON: {line}\n  {e}"));
        if let Ok(kind) = fields.str_field("request") {
            assert!(
                REQUEST_KINDS.contains(&kind.as_str()),
                "example uses unlisted request kind {kind:?}: {line}"
            );
            Request::parse(line)
                .unwrap_or_else(|e| panic!("request example rejected: {line}\n  {e}"));
            requests += 1;
        } else {
            let kind = fields
                .str_field("response")
                .unwrap_or_else(|e| panic!("example has neither request nor response: {line}\n  {e}"));
            assert!(
                RESPONSE_KINDS.contains(&kind.as_str()) || kind == "stats",
                "example uses unlisted response kind {kind:?}: {line}"
            );
            if kind == "shard_result" {
                ShardResult::parse(line)
                    .unwrap_or_else(|e| panic!("shard_result example rejected: {line}\n  {e}"));
            }
            responses += 1;
        }
    }
    assert!(requests >= 8, "every request kind should have an example");
    assert!(responses >= 12, "every response kind should have an example");
}

#[test]
fn every_message_kind_is_documented() {
    let spec = spec_text();
    for kind in REQUEST_KINDS.iter().chain(RESPONSE_KINDS) {
        assert!(
            spec.contains(&format!("`{kind}`")),
            "protocol kind {kind:?} is missing from docs/PROTOCOL.md"
        );
    }
}

#[test]
fn shard_result_examples_round_trip_through_to_line() {
    let spec = spec_text();
    let examples: Vec<String> = example_lines(&spec)
        .into_iter()
        .filter(|l| l.contains("\"shard_result\""))
        .collect();
    assert!(examples.len() >= 3, "shard_result examples: {examples:?}");
    for line in &examples {
        let parsed = ShardResult::parse(line)
            .unwrap_or_else(|e| panic!("shard_result example rejected: {line}\n  {e}"));
        let rendered = parsed.to_line();
        let reparsed = ShardResult::parse(&rendered)
            .unwrap_or_else(|e| panic!("rendered line rejected: {rendered}\n  {e}"));
        assert_eq!(reparsed, parsed, "{line}\n  rendered as {rendered}");
    }
}

#[test]
fn spec_examples_cover_every_shard_result_verdict() {
    let spec = spec_text();
    let shard_results: Vec<String> = example_lines(&spec)
        .into_iter()
        .filter(|l| l.contains("\"shard_result\""))
        .collect();
    for verdict in ["verified", "refuted", "resource_limit"] {
        assert!(
            shard_results.iter().any(|l| l.contains(&format!("\"{verdict}\""))),
            "no shard_result example for verdict {verdict:?}"
        );
    }
}

//! Self-tests over the seeded-violation fixtures: every rule must fire
//! on its fixture tree, the clean tree must stay silent, and the real
//! workspace must audit clean with no allowlist. Together these prove
//! the rules detect what they claim to (no silently-dead lints) and
//! that the repository actually upholds its own invariants.

use std::path::{Path, PathBuf};

use ccsa_audit::{run, Allowlist, Workspace};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

/// Runs the named rule (alone) over a fixture tree with an empty
/// allowlist and returns its findings.
fn findings_for(fixture: &str, rule: &str) -> Vec<ccsa_audit::Finding> {
    let ws = Workspace::discover(&fixture_root(fixture))
        .unwrap_or_else(|e| panic!("discover fixture {fixture}: {e}"));
    assert!(
        !ws.files.is_empty(),
        "fixture {fixture} discovered no files"
    );
    let mut allow = Allowlist::default();
    let (live, suppressed) = run(&ws, &mut allow, Some(&[rule.to_string()]));
    assert_eq!(suppressed, 0);
    live
}

#[test]
fn safety_fixture_fires() {
    let f = findings_for("safety", "safety");
    assert!(!f.is_empty(), "safety rule missed its seeded violation");
    assert!(f.iter().all(|x| x.rule == "safety"));
}

#[test]
fn ordering_fixture_fires() {
    let f = findings_for("ordering", "ordering");
    assert!(!f.is_empty(), "ordering rule missed its seeded violation");
    assert!(f.iter().all(|x| x.rule == "ordering"));
}

#[test]
fn ieee_fixture_fires_on_both_patterns() {
    let f = findings_for("ieee", "ieee");
    assert!(
        f.len() >= 2,
        "ieee rule must flag the zero-skip AND the NaN mask, got {f:?}"
    );
    assert!(f.iter().any(|x| x.message.contains("zero comparison")));
    assert!(f.iter().any(|x| x.message.contains("is_nan")));
}

#[test]
fn lockorder_fixture_fires() {
    let f = findings_for("lockorder", "lockorder");
    assert!(!f.is_empty(), "lockorder rule missed the AB-BA cycle");
    assert!(f.iter().all(|x| x.rule == "lockorder"));
}

#[test]
fn metrics_fixture_fires_on_both_patterns() {
    let f = findings_for("metrics", "metrics");
    assert!(
        f.iter().any(|x| x.message.contains("name")),
        "bad-name violation missed: {f:?}"
    );
    assert!(
        f.iter().filter(|x| x.message.contains("declared")).count() >= 2,
        "duplicate declaration must be flagged at every site: {f:?}"
    );
}

#[test]
fn verbs_fixture_fires_both_ways() {
    let f = findings_for("verbs", "verbs");
    assert!(f.iter().all(|x| x.path.ends_with("transport.rs")), "{f:?}");
    assert!(
        f.iter().any(|x| x.message.contains("missing")),
        "ungated mutating verb missed: {f:?}"
    );
    assert!(
        f.iter().any(|x| x.message.contains("stale")),
        "stale gate entry missed: {f:?}"
    );
}

#[test]
fn unwrap_fixture_fires() {
    let f = findings_for("unwrap", "unwrap");
    assert!(
        f.len() >= 2,
        "unwrap rule must flag both unwrap() and expect(), got {f:?}"
    );
    assert!(f.iter().all(|x| x.rule == "unwrap"));
}

#[test]
fn pool_fixture_fires_on_all_three_patterns() {
    let f = findings_for("pool", "pool");
    assert_eq!(
        f.len(),
        3,
        "pool rule must flag vec![0.0], Vec::with_capacity and .to_vec() \
         while honouring the pool-exempt site, got {f:?}"
    );
    assert!(f.iter().all(|x| x.rule == "pool"));
}

#[test]
fn clean_fixture_is_silent_across_all_rules() {
    let ws = Workspace::discover(&fixture_root("clean")).expect("discover clean fixture");
    let mut allow = Allowlist::default();
    let (live, suppressed) = run(&ws, &mut allow, None);
    assert!(live.is_empty(), "clean fixture flagged: {live:?}");
    assert_eq!(suppressed, 0);
}

#[test]
fn the_real_workspace_audits_clean() {
    // CARGO_MANIFEST_DIR is crates/audit; the workspace root is two up.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let ws = Workspace::discover(&root).expect("discover workspace");
    assert!(
        ws.files.len() > 50,
        "workspace discovery looks wrong: {} files",
        ws.files.len()
    );
    let allow_path = root.join("audit.allow");
    let mut allow = match std::fs::read_to_string(&allow_path) {
        Ok(text) => Allowlist::parse(&text).expect("audit.allow parses"),
        Err(_) => Allowlist::default(),
    };
    let (live, _suppressed) = run(&ws, &mut allow, None);
    assert!(
        live.is_empty(),
        "the workspace no longer audits clean:\n{}",
        live.iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    let stale = allow.unused();
    assert!(
        stale.is_empty(),
        "stale audit.allow entries (lines {:?})",
        stale.iter().map(|e| e.source_line).collect::<Vec<_>>()
    );
}

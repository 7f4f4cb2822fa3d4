//! The gate itself, under plain `cargo test`: auditing this workspace's
//! own sources must produce zero unsuppressed findings (ISSUE 10). CI runs
//! the `audit` binary for the artifact; this test makes the invariant hold
//! for anyone who only ever runs `cargo test -q`.

use locality_audit::engine::{audit_workspace, collect_workspace_sources, workspace_root_from};
use locality_audit::lints::LintId;
use locality_audit::scan::ScannedFile;

#[test]
fn workspace_audit_is_clean() {
    let root = workspace_root_from(env!("CARGO_MANIFEST_DIR"));
    let report = audit_workspace(&root).expect("workspace sources are readable");
    assert!(
        report.files_scanned > 50,
        "walk found only {} files — exclusion rules are over-broad",
        report.files_scanned
    );
    assert!(
        report.clean(),
        "unsuppressed findings:\n{}",
        report
            .findings
            .iter()
            .map(|f| format!("  {f}\n"))
            .collect::<String>()
    );
}

#[test]
fn every_suppression_carries_a_reason() {
    // The scanner rejects reason-less `allow(..)` as an annotation error,
    // so a clean report already implies this; assert it directly on the
    // parsed annotations anyway so a future relaxation of the parser
    // cannot silently drop the rule.
    let root = workspace_root_from(env!("CARGO_MANIFEST_DIR"));
    let sources = collect_workspace_sources(&root).expect("workspace sources are readable");
    for (path, src) in &sources {
        let scanned = ScannedFile::new(src);
        for s in &scanned.suppressions {
            assert!(
                !s.reason.trim().is_empty(),
                "suppression without a reason at {path}:{} ({})",
                s.line,
                s.lint.name()
            );
        }
    }
}

#[test]
fn suppression_inventory_is_bounded() {
    // Suppressions are debt the artifact tracks across PRs. Pin a ceiling
    // so the count can only grow through a deliberate edit here, with the
    // diff showing both the new allows and the new budget.
    let root = workspace_root_from(env!("CARGO_MANIFEST_DIR"));
    let report = audit_workspace(&root).expect("workspace sources are readable");
    let panic_count = report.suppressed_count(LintId::Panic);
    assert!(
        panic_count <= 109,
        "panic suppression budget exceeded: {panic_count} > 109"
    );
}

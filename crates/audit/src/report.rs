//! Rendering a [`Report`] for humans (the CLI) and machines (the committed
//! `BENCH_audit.json` record and the `bench-audit` CI artifact, both
//! written by `audit --json`, the only producer). The JSON writer is
//! hand-rolled and dependency-free, like everything else in this crate.

use crate::engine::Report;
use crate::lints::LintId;
use std::fmt::Write as _;

/// Human-readable rendering: findings first (if any), then the summary
/// block.
pub fn render_text(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        let _ = writeln!(out, "{f}");
    }
    if !report.findings.is_empty() {
        out.push('\n');
    }
    let _ = writeln!(out, "audit: {} files scanned", report.files_scanned);
    let _ = writeln!(out, "  findings (unsuppressed): {}", report.findings.len());
    for lint in LintId::ALL {
        let n = report.count(lint);
        let s = report.suppressed_count(lint);
        if n > 0 || s > 0 {
            let _ = writeln!(out, "    {:<14} {n} (+{s} suppressed)", lint.name());
        }
    }
    let _ = writeln!(
        out,
        "  suppressions: {} (each carries an inline `-- <reason>`)",
        report.suppressions
    );
    let _ = writeln!(
        out,
        "  gate: {}",
        if report.clean() { "PASS" } else { "FAIL" }
    );
    out
}

/// Escape a string for JSON output.
fn escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Machine-readable rendering: the `BENCH_audit.json` / `bench-audit`
/// artifact schema. The `"experiment": "a2"` tag is the record's name, kept
/// so that earlier artifacts stay comparable.
///
/// ```json
/// {
///   "experiment": "a2",
///   "files_scanned": 123,
///   "unsuppressed": 0,
///   "suppressions": 170,
///   "counts": {"panic": 0, ...},
///   "suppressed_counts": {"panic": 168, ...},
///   "findings": [{"file": "...", "line": 7, "lint": "panic", "message": "..."}]
/// }
/// ```
pub fn render_json(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"experiment\": \"a2\",");
    let _ = writeln!(out, "  \"files_scanned\": {},", report.files_scanned);
    let _ = writeln!(out, "  \"unsuppressed\": {},", report.findings.len());
    let _ = writeln!(out, "  \"suppressions\": {},", report.suppressions);
    out.push_str("  \"counts\": {");
    for (i, lint) in LintId::ALL.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\": {}", lint.name(), report.count(*lint));
    }
    out.push_str("},\n  \"suppressed_counts\": {");
    for (i, lint) in LintId::ALL.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {}",
            lint.name(),
            report.suppressed_count(*lint)
        );
    }
    out.push_str("},\n  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        out.push_str(if i > 0 { ",\n    " } else { "\n    " });
        out.push_str("{\"file\": ");
        escape(&f.file, &mut out);
        let _ = write!(
            out,
            ", \"line\": {}, \"lint\": \"{}\", \"message\": ",
            f.line, f.lint
        );
        escape(&f.message, &mut out);
        out.push('}');
    }
    if !report.findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::audit_sources;

    #[test]
    fn json_shape_is_stable() {
        let r = audit_sources([(
            "crates/graph/src/bad.rs",
            "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
        )]);
        let j = render_json(&r);
        assert!(j.contains("\"experiment\": \"a2\""));
        assert!(j.contains("\"files_scanned\": 1"));
        assert!(j.contains("\"unsuppressed\": 1"));
        assert!(j.contains("\"lint\": \"panic\""));
        assert!(j.contains("\"line\": 1"));
    }

    #[test]
    fn json_escapes_special_chars() {
        let mut out = String::new();
        escape("a\"b\\c\nd\u{1}", &mut out);
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn text_summary_reports_the_gate() {
        let clean = audit_sources([("crates/graph/src/ok.rs", "fn f() {}\n")]);
        assert!(render_text(&clean).contains("gate: PASS"));
        let dirty = audit_sources([("crates/graph/src/bad.rs", "fn f() { panic!() }\n")]);
        assert!(render_text(&dirty).contains("gate: FAIL"));
    }
}

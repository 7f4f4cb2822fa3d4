//! `locality-audit`: a token-level lint engine for this workspace's own
//! invariants.
//!
//! The repo's correctness story rests on conventions no compiler checks:
//! release paths never panic (they degrade through typed errors), hot
//! paths never allocate (counting-allocator benches prove it at runtime),
//! and algorithm code is bit-reproducible (no iteration-order or
//! wall-clock dependence). This crate turns those conventions into
//! machine-checked, workspace-wide invariants — the static-analysis
//! analogue of what the committed `BENCH_*.json` records do for the perf
//! claims.
//!
//! The stack, bottom-up:
//!
//! * [`lexer`] — a hand-rolled Rust lexer producing spanned tokens. Lints
//!   see code, not text: comments (nested block comments included),
//!   string/char/raw-string/byte-string literals, and lifetimes are all
//!   classified correctly, and proptests pin "never panics on arbitrary
//!   bytes" and "token spans tile the file".
//! * [`scan`] — the item scanner: `#[cfg(test)]` / `#[test]` extents (so
//!   test code is exempt by *structure*, not by line-order convention),
//!   plus the audit annotations: `// audit: allow(<lint>) -- <reason>`
//!   suppressions and `// audit: no-alloc` function markers.
//! * [`lints`] — the passes: `panic`, `determinism`, `no-alloc`,
//!   `error-hygiene` (and `annotation` for malformed/stale audit
//!   comments).
//! * [`engine`] — the workspace walk, per-path pass policy, suppression
//!   accounting, and the [`engine::Report`].
//! * [`report`] — text and JSON rendering (the committed `BENCH_audit.json`
//!   record and the `bench-audit` CI artifact, both written by the `audit`
//!   binary's `--json`).
//!
//! The `audit` binary (`cargo run -p locality-audit -- [--json [path]]`)
//! exits nonzero on any unsuppressed finding and is wired as a CI gate;
//! `crates/audit/tests/workspace_clean.rs` enforces the same gate under
//! plain `cargo test`.
//!
//! This crate is std-only and depends on nothing, not even its sibling
//! crates: the auditor must stay buildable when the code it audits is
//! broken.

pub mod engine;
pub mod lexer;
pub mod lints;
pub mod report;
pub mod scan;

pub use engine::{audit_sources, audit_workspace, collect_workspace_sources, FileClass, Report};
pub use lexer::{lex, Token, TokenKind};
pub use lints::{Finding, LintId};
pub use report::{render_json, render_text};
pub use scan::ScannedFile;

//! `ccsa-audit` — a hermetic, dependency-free static-analysis pass over
//! this workspace's own Rust source.
//!
//! The paper this repo reproduces argues that *structure* predicts
//! *behavior*. This crate turns that thesis on our own source: instead
//! of trusting review to uphold the structural invariants the
//! production north-star depends on (IEEE-strict kernels, lock
//! discipline, bounded-cardinality metrics, loopback-gated admin
//! verbs), it checks them mechanically on every CI run, the way the
//! autograder exemplar validates untrusted submissions.
//!
//! # Rules
//!
//! | rule       | invariant                                                               |
//! |------------|-------------------------------------------------------------------------|
//! | `safety`   | every `unsafe` block/fn carries a `// SAFETY:` comment                  |
//! | `ordering` | every explicit `Ordering::…` use carries an ordering-justification comment |
//! | `ieee`     | no `== 0.0` zero-skip guards or NaN-masking inside the tensor kernels   |
//! | `lockorder`| the cross-crate lock acquisition graph is acyclic                       |
//! | `metrics`  | every `ccsa_*` literal is a legal Prometheus name, registered exactly once |
//! | `verbs`    | every mutating proto verb appears in the transport core's loopback gate |
//! | `unwrap`   | no `unwrap()`/`expect()` on the untrusted request-parse paths           |
//!
//! Findings are suppressed per-site by an allowlist file (`audit.allow`
//! at the workspace root): `rule path line-or-* -- reason` per line,
//! `#` comments allowed. Unused entries are reported so the allowlist
//! cannot rot. The analysis is lexical (a real tokenizer, shared with
//! nothing) plus lightweight structure recovery — the same hand-rolled
//! frontend style as `ccsa-cppast`, applied to Rust.

pub mod analysis;
pub mod lexer;
pub mod rules;

use lexer::SourceFile;
use std::fmt;
use std::path::{Path, PathBuf};

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`safety`, `ordering`, …).
    pub rule: &'static str,
    /// Repo-relative path, forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// One allowlist entry: `rule path line-or-* [-- reason]`.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Rule id the entry suppresses (`*` = any rule).
    pub rule: String,
    /// Repo-relative path the entry applies to.
    pub path: String,
    /// Specific line, or `None` for the whole file.
    pub line: Option<usize>,
    /// Free-form justification (everything after `--`).
    pub reason: String,
    /// 1-based line within the allowlist file (for diagnostics).
    pub source_line: usize,
}

/// A parsed allowlist plus per-entry hit tracking.
#[derive(Debug, Default)]
pub struct Allowlist {
    /// The entries, in file order.
    pub entries: Vec<AllowEntry>,
    hits: Vec<bool>,
}

impl Allowlist {
    /// Parses allowlist text.
    ///
    /// # Errors
    ///
    /// Returns `(line, message)` for a malformed entry.
    pub fn parse(text: &str) -> Result<Allowlist, (usize, String)> {
        let mut entries = Vec::new();
        for (ix, raw) in text.lines().enumerate() {
            let source_line = ix + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (spec, reason) = match line.split_once("--") {
                Some((s, r)) => (s.trim(), r.trim().to_string()),
                None => (line, String::new()),
            };
            let mut parts = spec.split_whitespace();
            let (Some(rule), Some(path), Some(line_spec)) =
                (parts.next(), parts.next(), parts.next())
            else {
                return Err((
                    source_line,
                    format!("expected 'rule path line-or-*', got {line:?}"),
                ));
            };
            if parts.next().is_some() {
                return Err((
                    source_line,
                    "trailing tokens (use '--' to start the reason)".to_string(),
                ));
            }
            let line = match line_spec {
                "*" => None,
                n => Some(n.parse::<usize>().map_err(|_| {
                    (
                        source_line,
                        format!("line must be a number or '*', got {n:?}"),
                    )
                })?),
            };
            entries.push(AllowEntry {
                rule: rule.to_string(),
                path: path.to_string(),
                line,
                reason,
                source_line,
            });
        }
        let hits = vec![false; entries.len()];
        Ok(Allowlist { entries, hits })
    }

    /// Whether `finding` is suppressed; marks the matching entry used.
    pub fn allows(&mut self, finding: &Finding) -> bool {
        for (ix, e) in self.entries.iter().enumerate() {
            let rule_ok = e.rule == "*" || e.rule == finding.rule;
            let line_ok = e.line.is_none_or(|l| l == finding.line);
            if rule_ok && e.path == finding.path && line_ok {
                self.hits[ix] = true;
                return true;
            }
        }
        false
    }

    /// Entries that never matched a finding (stale — the allowlist must
    /// not rot).
    pub fn unused(&self) -> Vec<&AllowEntry> {
        self.entries
            .iter()
            .zip(&self.hits)
            .filter(|(_, hit)| !**hit)
            .map(|(e, _)| e)
            .collect()
    }
}

/// All lexed sources of one tree, ready for rules.
pub struct Workspace {
    /// The files, in discovery order (sorted by path).
    pub files: Vec<SourceFile>,
}

/// Directory names never descended into during discovery.
const SKIP_DIRS: &[&str] = &["target", "fixtures", ".git", ".github"];

impl Workspace {
    /// Builds a workspace from in-memory `(path, source)` pairs (tests).
    pub fn from_sources(sources: &[(&str, &str)]) -> Workspace {
        Workspace {
            files: sources.iter().map(|(p, s)| SourceFile::lex(p, s)).collect(),
        }
    }

    /// Discovers and lexes every `.rs` file under `root`, skipping
    /// `target/`, `fixtures/` (seeded violations), and VCS metadata.
    ///
    /// # Errors
    ///
    /// Returns an IO error message for an unreadable tree.
    pub fn discover(root: &Path) -> Result<Workspace, String> {
        let mut paths = Vec::new();
        collect_rs_files(root, root, &mut paths)?;
        paths.sort();
        let mut files = Vec::new();
        for rel in paths {
            let full = root.join(&rel);
            let source = std::fs::read_to_string(&full)
                .map_err(|e| format!("read {}: {e}", full.display()))?;
            let rel_str = rel
                .to_string_lossy()
                .replace(std::path::MAIN_SEPARATOR, "/");
            files.push(SourceFile::lex(&rel_str, &source));
        }
        Ok(Workspace { files })
    }

    /// The file at `path` (repo-relative), if present.
    pub fn file(&self, path: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.path == path)
    }
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

/// Runs every rule (or the named subset) over the workspace, applying
/// the allowlist. Returns `(live findings, suppressed count)`.
pub fn run(
    workspace: &Workspace,
    allowlist: &mut Allowlist,
    only: Option<&[String]>,
) -> (Vec<Finding>, usize) {
    let mut live = Vec::new();
    let mut suppressed = 0usize;
    for rule in rules::all() {
        if let Some(names) = only {
            if !names.iter().any(|n| n == rule.name) {
                continue;
            }
        }
        for finding in (rule.check)(workspace) {
            if allowlist.allows(&finding) {
                suppressed += 1;
            } else {
                live.push(finding);
            }
        }
    }
    live.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    (live, suppressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowlist_parses_and_matches() {
        let text = "\n# comment\nsafety crates/x/src/lib.rs 10 -- trusted FFI\nordering crates/y/src/a.rs * -- module doc covers\n";
        let mut a = Allowlist::parse(text).unwrap();
        assert_eq!(a.entries.len(), 2);
        let f = Finding {
            rule: "safety",
            path: "crates/x/src/lib.rs".into(),
            line: 10,
            message: String::new(),
        };
        assert!(a.allows(&f));
        let f2 = Finding {
            rule: "safety",
            path: "crates/x/src/lib.rs".into(),
            line: 11,
            message: String::new(),
        };
        assert!(!a.allows(&f2));
        let f3 = Finding {
            rule: "ordering",
            path: "crates/y/src/a.rs".into(),
            line: 99,
            message: String::new(),
        };
        assert!(a.allows(&f3));
        assert!(a.unused().is_empty());
    }

    #[test]
    fn allowlist_rejects_malformed_lines() {
        assert!(Allowlist::parse("justonetoken").is_err());
        assert!(Allowlist::parse("rule path notanumber").is_err());
        assert!(Allowlist::parse("rule path 3 extra").is_err());
    }

    #[test]
    fn unused_entries_are_reported() {
        let mut a = Allowlist::parse("safety crates/x/src/lib.rs 10\n").unwrap();
        assert_eq!(a.unused().len(), 1);
        let f = Finding {
            rule: "safety",
            path: "crates/x/src/lib.rs".into(),
            line: 10,
            message: String::new(),
        };
        assert!(a.allows(&f));
        assert!(a.unused().is_empty());
    }
}

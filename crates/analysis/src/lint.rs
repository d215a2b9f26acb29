//! The CSAR source-level lint pass.
//!
//! Walks every workspace `.rs` file and enforces the repo's
//! correctness-critical conventions:
//!
//! * **`unsafe-safety`** — every `unsafe` keyword must be justified by a
//!   `// SAFETY:` comment on the same line or within the three lines
//!   above it.
//! * **`no-unwrap-request-path`** — no `.unwrap()` / `.expect(` in the
//!   request-dispatch paths (`crates/core/src/server.rs` and
//!   `crates/core/src/client/*`), outside `#[cfg(test)]` regions: a
//!   malformed or reordered message must surface as a protocol error,
//!   never a server/client panic.
//! * **`no-alloc-request-path`** — no `.to_vec()` / `Bytes::from(` /
//!   `Vec::new(` in those same request paths: the byte pipeline is
//!   zero-allocation in steady state (in-place folds, gather payloads,
//!   pooled scratch), so a fresh buffer on the request path is either a
//!   regression or a legitimately cold path that belongs in the
//!   `analysis.toml` allowlist with a reason.
//! * **`lock-order-ascending`** — any file that acquires §5.1 parity
//!   locks by issuing `Request::ParityReadLock` (the core client
//!   drivers and the live cluster's §6.7 cleaner, which holds a run of
//!   group locks at once) must carry the ascending-group-order guard
//!   (`windows(2).all(|w| w[0].group < w[1].group)`): acquiring parity
//!   locks lowest-group-first is the protocol's only deadlock defence.
//! * **`todo`** — a TODO/FIXME inventory (reported, never fatal).
//!
//! The pass is line-oriented on purpose: it must stay dependency-free
//! and fast, and the conventions it checks are all expressible at line
//! granularity. Comment text after `//` is ignored when matching code
//! tokens.

use crate::config::Config;
use csar_store::Json;
use std::fs;
use std::path::{Path, PathBuf};

/// One lint violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Rule identifier (matches the `[lint.<rule>]` config sections).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

/// One TODO/FIXME inventory entry.
#[derive(Debug, Clone)]
pub struct TodoItem {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The comment text.
    pub text: String,
}

/// Result of a full lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Violations that survived the allowlist (non-empty ⇒ exit 1).
    pub violations: Vec<Violation>,
    /// TODO/FIXME inventory (informational).
    pub todos: Vec<TodoItem>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// Render as the machine-readable `--json` document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("ok", Json::from(self.violations.is_empty())),
            ("files_scanned", Json::from(self.files_scanned as u64)),
            (
                "violations",
                Json::Arr(
                    self.violations
                        .iter()
                        .map(|v| {
                            Json::obj([
                                ("rule", Json::from(v.rule)),
                                ("file", Json::from(v.file.as_str())),
                                ("line", Json::from(v.line as u64)),
                                ("message", Json::from(v.message.as_str())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "todo",
                Json::Arr(
                    self.todos
                        .iter()
                        .map(|t| {
                            Json::obj([
                                ("file", Json::from(t.file.as_str())),
                                ("line", Json::from(t.line as u64)),
                                ("text", Json::from(t.text.as_str())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Run every rule over the workspace rooted at `root`.
pub fn run(root: &Path, cfg: &Config) -> Result<LintReport, String> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut report = LintReport { files_scanned: files.len(), ..Default::default() };
    for rel in &files {
        let text = fs::read_to_string(root.join(rel))
            .map_err(|e| format!("read {}: {e}", rel.display()))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        lint_file(&rel_str, &text, cfg, &mut report);
    }
    Ok(report)
}

/// Recursively collect workspace `.rs` files, skipping build output,
/// VCS metadata and hidden directories.
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path.strip_prefix(root).unwrap_or(&path).to_path_buf());
        }
    }
    Ok(())
}

/// The code portion of a line with string/char-literal contents blanked
/// out and any `//` comment removed, so tokens inside literals or
/// comments (`"unsafe"`, `'{'`, a URL's `//`) never match a rule.
/// Line-local by design: the workspace style keeps string literals on
/// one line, and a missed multi-line literal only risks a false
/// positive, which the allowlist can waive.
fn code_part(line: &str) -> String {
    split_line(line).0
}

/// Byte offset of the real `//` comment on this line, ignoring `//`
/// sequences inside string or char literals.
fn comment_start(line: &str) -> Option<usize> {
    split_line(line).1
}

fn split_line(line: &str) -> (String, Option<usize>) {
    let bytes = line.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut comment = None;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => {
                // Blank the string literal's contents.
                out.push(b'"');
                i += 1;
                while i < bytes.len() && bytes[i] != b'"' {
                    i += if bytes[i] == b'\\' { 2 } else { 1 };
                    out.push(b' ');
                }
                if i < bytes.len() {
                    out.push(b'"');
                    i += 1;
                }
            }
            b'\'' => {
                // A char literal ('x', '\n', '"'); lifetimes ('a) have
                // no closing quote within 4 bytes and fall through.
                let close = if i + 2 < bytes.len() && bytes[i + 1] == b'\\' { i + 3 } else { i + 2 };
                if close < bytes.len() && bytes[close] == b'\'' {
                    out.extend_from_slice(b"' ");
                    out.resize(out.len() + (close - i - 2), b' ');
                    out.push(b'\'');
                    i = close + 1;
                } else {
                    out.push(b'\'');
                    i += 1;
                }
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                comment = Some(i);
                break;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    (String::from_utf8_lossy(&out).into_owned(), comment)
}

/// Does `code` contain `word` as a standalone token?
fn has_word(code: &str, word: &str) -> bool {
    let mut start = 0;
    while let Some(i) = code[start..].find(word) {
        let at = start + i;
        let before_ok =
            at == 0 || !code.as_bytes()[at - 1].is_ascii_alphanumeric() && code.as_bytes()[at - 1] != b'_';
        let after = at + word.len();
        let after_ok = after >= code.len()
            || !code.as_bytes()[after].is_ascii_alphanumeric() && code.as_bytes()[after] != b'_';
        if before_ok && after_ok {
            return true;
        }
        start = at + word.len();
    }
    false
}

/// Does the comment carry a `TODO`/`FIXME` marker followed by `:` or
/// `(`? Bare prose mentions of the words are not inventory items.
fn has_open_item_tag(comment: &str) -> bool {
    ["TODO", "FIXME"].iter().any(|tag| {
        comment
            .match_indices(tag)
            .any(|(i, _)| matches!(comment.as_bytes().get(i + tag.len()), Some(b':' | b'(')))
    })
}

/// Line spans (0-based) covered by `#[cfg(test)]` items, tracked by
/// brace depth from the attribute's opening brace.
fn cfg_test_lines(lines: &[&str]) -> Vec<bool> {
    let mut in_test = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if lines[i].trim_start().starts_with("#[cfg(test)]") {
            let mut depth = 0i32;
            let mut opened = false;
            let mut j = i;
            while j < lines.len() {
                in_test[j] = true;
                for b in code_part(lines[j]).bytes() {
                    match b {
                        b'{' => {
                            depth += 1;
                            opened = true;
                        }
                        b'}' => depth -= 1,
                        _ => {}
                    }
                }
                if opened && depth <= 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    in_test
}

/// Is this file part of a request path for `no-unwrap-request-path`?
/// Covers the core protocol state machines and the live transport's
/// client engine (PR 2: a lost or duplicated reply must surface as
/// `CsarError::Transport`, never a panic).
fn in_request_path(rel: &str) -> bool {
    rel == "crates/core/src/server.rs"
        || rel.starts_with("crates/core/src/client/")
        || rel == "crates/cluster/src/client.rs"
}

/// Does this file *acquire* parity locks for `lock-order-ascending`?
/// The core client drivers and the cluster's §6.7 cleaner do; the
/// server only *dispatches* `ParityReadLock`, and the cluster engine
/// only classifies it.
fn acquires_parity_locks(rel: &str) -> bool {
    rel.starts_with("crates/core/src/client/") || rel == "crates/cluster/src/maintain.rs"
}

/// The textual form of the §5.1 guard `lock-order-ascending` requires.
const ORDER_GUARD: &str = ".group < w[1].group";

fn lint_file(rel: &str, text: &str, cfg: &Config, report: &mut LintReport) {
    let lines: Vec<&str> = text.lines().collect();
    let in_test = cfg_test_lines(&lines);
    let mut push = |rule: &'static str, line: usize, message: String| {
        if !cfg.is_allowed(rule, rel, line) {
            report.violations.push(Violation { rule, file: rel.to_string(), line, message });
        }
    };

    let mut lock_sites: Vec<usize> = Vec::new();
    let mut has_order_guard = false;

    for (idx, raw) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let code = code_part(raw);

        // unsafe-safety: a SAFETY comment on the same line or within the
        // three preceding lines justifies the unsafe.
        if has_word(&code, "unsafe") && !in_test[idx] {
            let justified = raw.contains("SAFETY:")
                || lines[idx.saturating_sub(3)..idx].iter().any(|l| l.contains("SAFETY:"));
            if !justified {
                push(
                    "unsafe-safety",
                    lineno,
                    "`unsafe` without a `// SAFETY:` comment on or above it".into(),
                );
            }
        }

        // no-unwrap-request-path.
        if in_request_path(rel) && !in_test[idx] {
            for needle in [".unwrap()", ".expect("] {
                if code.contains(needle) {
                    push(
                        "no-unwrap-request-path",
                        lineno,
                        format!(
                            "`{needle}` in a request path; surface a protocol error instead of panicking"
                        ),
                    );
                }
            }
        }

        // no-alloc-request-path: steady-state requests must reuse
        // buffers (in-place folds, gather payloads, pooled scratch);
        // genuinely cold allocation sites go in the allowlist.
        if in_request_path(rel) && !in_test[idx] {
            for needle in [".to_vec()", "Bytes::from(", "Vec::new("] {
                if code.contains(needle) {
                    push(
                        "no-alloc-request-path",
                        lineno,
                        format!(
                            "`{needle}` allocates on a request path; fold in place / gather / pool, \
                             or allowlist the cold path in analysis.toml"
                        ),
                    );
                }
            }
        }

        // lock-order-ascending bookkeeping (acquiring files only).
        if acquires_parity_locks(rel) {
            if code.contains("Request::ParityReadLock") {
                lock_sites.push(lineno);
            }
            if raw.contains(ORDER_GUARD) {
                has_order_guard = true;
            }
        }

        // TODO/FIXME inventory (real comments only; never fatal).
        if let Some(i) = comment_start(raw) {
            let comment = &raw[i..];
            if has_open_item_tag(comment) {
                report.todos.push(TodoItem {
                    file: rel.to_string(),
                    line: lineno,
                    text: comment.trim_start_matches('/').trim().to_string(),
                });
            }
        }
    }

    if !lock_sites.is_empty() && !has_order_guard {
        for line in lock_sites {
            push(
                "lock-order-ascending",
                line,
                format!(
                    "parity-lock acquisition without the §5.1 ascending-group guard \
                     (`windows(2).all(|w| w[0]{ORDER_GUARD})`) in this file"
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_str(rel: &str, text: &str) -> LintReport {
        let cfg = Config::default();
        let mut report = LintReport::default();
        lint_file(rel, text, &cfg, &mut report);
        report
    }

    #[test]
    fn unsafe_without_safety_is_flagged() {
        let r = lint_str("crates/x/src/lib.rs", "fn f() {\n    unsafe { core::hint::unreachable_unchecked() }\n}\n");
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, "unsafe-safety");
        assert_eq!(r.violations[0].line, 2);
    }

    #[test]
    fn unsafe_with_safety_above_passes() {
        let r = lint_str(
            "crates/x/src/lib.rs",
            "fn f() {\n    // SAFETY: provably aligned.\n    unsafe { do_it() }\n}\n",
        );
        assert!(r.violations.is_empty());
    }

    #[test]
    fn unsafe_in_doc_comment_is_ignored() {
        let r = lint_str("crates/x/src/lib.rs", "/// This API is not unsafe.\nfn f() {}\n");
        assert!(r.violations.is_empty());
    }

    #[test]
    fn unwrap_flagged_only_in_request_paths_outside_tests() {
        let body = "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn g() { y.unwrap(); }\n}\n";
        assert_eq!(lint_str("crates/core/src/server.rs", body).violations.len(), 1);
        assert_eq!(lint_str("crates/core/src/client/write.rs", body).violations.len(), 1);
        assert_eq!(lint_str("crates/cluster/src/client.rs", body).violations.len(), 1);
        assert!(lint_str("crates/core/src/layout.rs", body).violations.is_empty());
        assert!(lint_str("crates/cluster/src/node.rs", body).violations.is_empty());
    }

    #[test]
    fn expect_is_flagged_too() {
        let r = lint_str("crates/core/src/client/read.rs", "fn f() { x.expect(\"boom\"); }\n");
        assert_eq!(r.violations.len(), 1);
        assert!(r.violations[0].message.contains(".expect("));
    }

    #[test]
    fn lock_site_without_guard_is_flagged_and_guard_silences_it() {
        let site = "fn f() { let r = Request::ParityReadLock { hdr, group, intra, len }; }\n";
        let r = lint_str("crates/core/src/client/write.rs", site);
        assert_eq!(r.violations.iter().filter(|v| v.rule == "lock-order-ascending").count(), 1);
        let guarded = format!(
            "fn f() {{\n    debug_assert!(p.windows(2).all(|w| w[0]{ORDER_GUARD}));\n    let r = Request::ParityReadLock {{ hdr, group, intra, len }};\n}}\n"
        );
        let r = lint_str("crates/core/src/client/write.rs", &guarded);
        assert!(r.violations.iter().all(|v| v.rule != "lock-order-ascending"));
    }

    #[test]
    fn cleaner_lock_sites_need_the_guard_too() {
        let site = "fn f() { let r = Request::ParityReadLock { hdr, group, intra, len }; }\n";
        let r = lint_str("crates/cluster/src/maintain.rs", site);
        assert_eq!(r.violations.iter().filter(|v| v.rule == "lock-order-ascending").count(), 1);
        let guarded = format!(
            "fn f() {{\n    debug_assert!(d.windows(2).all(|w| w[0]{ORDER_GUARD}));\n    let r = Request::ParityReadLock {{ hdr, group, intra, len }};\n}}\n"
        );
        let r = lint_str("crates/cluster/src/maintain.rs", &guarded);
        assert!(r.violations.iter().all(|v| v.rule != "lock-order-ascending"));
        // The server dispatches the request and the engine classifies
        // it; neither acquires, so neither is in scope.
        for rel in ["crates/core/src/server.rs", "crates/cluster/src/client.rs"] {
            assert!(lint_str(rel, site).violations.iter().all(|v| v.rule != "lock-order-ascending"));
        }
    }

    #[test]
    fn todos_are_collected_but_not_fatal() {
        let r = lint_str("crates/x/src/lib.rs", "// TODO: finish\nfn f() {}\n// FIXME(now): bug\n");
        assert!(r.violations.is_empty());
        assert_eq!(r.todos.len(), 2);
    }

    #[test]
    fn todo_in_string_literal_or_prose_is_not_inventory() {
        let r = lint_str(
            "crates/x/src/lib.rs",
            "fn f() { log(\"TODO: not a comment\"); }\n// the TODO inventory itself\n",
        );
        assert!(r.todos.is_empty());
    }

    #[test]
    fn allowlist_suppresses_violations() {
        let cfg = Config::parse("[lint.unsafe-safety]\nallow = [\"crates/x/src/lib.rs:1\"]\n").unwrap();
        let mut report = LintReport::default();
        lint_file("crates/x/src/lib.rs", "unsafe { f() }\n", &cfg, &mut report);
        assert!(report.violations.is_empty());
    }
}

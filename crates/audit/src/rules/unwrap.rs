//! `unwrap`: no `.unwrap()` / `.expect(...)` on the untrusted
//! request-parse paths. A panic while parsing attacker-controlled
//! bytes is a remote crash (the connection handler thread dies); these
//! files must return typed errors instead. Scoped to the wire-facing
//! parsers — panicking on programmer error elsewhere is fine and often
//! right. Test code is exempt; deliberate, proven-unreachable uses go
//! in the allowlist with a reason.

use crate::analysis::{in_ranges, is_test_file, test_line_ranges};
use crate::{Finding, Workspace};

/// Path suffixes on the untrusted-input parse path.
const PARSE_PATHS: &[&str] = &[
    "crates/serve/src/proto.rs",
    "crates/serve/src/json.rs",
    "crates/gateway/src/http.rs",
    "crates/gateway/src/transport.rs",
];

pub(super) fn check(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in &ws.files {
        if is_test_file(&file.path) || !PARSE_PATHS.iter().any(|p| file.path.ends_with(p)) {
            continue;
        }
        let test_ranges = test_line_ranges(file);
        for (ix, tok) in file.tokens.iter().enumerate() {
            let is_panicky = tok.is_ident("unwrap") || tok.is_ident("expect");
            if !is_panicky
                || ix == 0
                || !file.tokens[ix - 1].is_punct('.')
                || !file.tokens.get(ix + 1).is_some_and(|t| t.is_punct('('))
                || in_ranges(&test_ranges, tok.line)
            {
                continue;
            }
            findings.push(Finding {
                rule: "unwrap",
                path: file.path.clone(),
                line: tok.line,
                message: format!(
                    ".{}() on the untrusted request-parse path — return a typed \
                     error; a panic here is a remote crash",
                    tok.text
                ),
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_unwrap_and_expect_in_scope_only() {
        let ws = Workspace::from_sources(&[
            (
                "crates/serve/src/json.rs",
                "fn f(s: &str) {\n\
                 let c = s.chars().next().unwrap();\n\
                 let n: i64 = s.parse().expect(\"digits\");\n\
                 }\n\
                 #[cfg(test)]\nmod tests {\n fn t(s: &str) { s.parse::<i64>().unwrap(); }\n}\n",
            ),
            (
                "crates/serve/src/engine.rs",
                "fn g(m: &Mutex<u32>) { *m.lock().unwrap() += 1; }\n",
            ),
        ]);
        let f = check(&ws);
        assert_eq!(f.len(), 2, "{f:?}");
        assert_eq!((f[0].line, f[1].line), (2, 3));
    }

    #[test]
    fn non_call_and_field_uses_are_not_flagged() {
        // `expect` as a method we define (renamed away in json.rs) would
        // be a call too — but `unwrap` without a preceding dot, or
        // without parens, is not a panicky call.
        let ws = Workspace::from_sources(&[(
            "crates/serve/src/json.rs",
            "fn unwrap() {}\nfn f() { unwrap(); let expect = 1; let _ = expect; }\n",
        )]);
        assert!(check(&ws).is_empty());
    }
}

//! `verbs`: every mutating proto verb must be loopback-gated at every
//! front door. The source of truth is `MUTATING_VERBS` in
//! `crates/serve/src/proto.rs` (next to the request parser, so adding
//! a verb and forgetting the gate is a one-file diff this rule
//! catches); the gate is the `LOOPBACK_GATED_VERBS` const in the
//! transport core, which the gateway's and the fleet's admission checks
//! both read.
//!
//! Checked both ways: a mutating verb missing from the gate list is the
//! real vulnerability (remote shutdown); a gated verb that is not
//! mutating is a stale or misspelled entry.
//!
//! The rule no-ops when no `proto.rs` with `MUTATING_VERBS` is in the
//! tree, so per-rule fixture trees don't trip it.

use crate::lexer::{SourceFile, TokKind};
use crate::{Finding, Workspace};

const PROTO_PATH: &str = "crates/serve/src/proto.rs";
const GATE_PATH: &str = "crates/gateway/src/transport.rs";

/// Extracts the string elements of `const NAME: &[&str] = &[...]`;
/// `None` when the const is absent.
fn const_str_list(file: &SourceFile, name: &str) -> Option<(usize, Vec<String>)> {
    let toks = &file.tokens;
    let at = toks.iter().position(|t| t.is_ident(name))?;
    let eq = (at..toks.len()).find(|&i| toks[i].is_punct('='))?;
    let open = (eq..toks.len()).find(|&i| toks[i].is_punct('['))?;
    let mut items = Vec::new();
    for t in &toks[open + 1..] {
        if t.is_punct(']') {
            break;
        }
        if t.kind == TokKind::Str {
            items.push(t.text.clone());
        }
    }
    Some((toks[at].line, items))
}

pub(super) fn check(ws: &Workspace) -> Vec<Finding> {
    let Some(proto) = ws.files.iter().find(|f| f.path.ends_with(PROTO_PATH)) else {
        return Vec::new();
    };
    let Some((_, mutating)) = const_str_list(proto, "MUTATING_VERBS") else {
        return vec![Finding {
            rule: "verbs",
            path: proto.path.clone(),
            line: 1,
            message: "proto.rs has no `MUTATING_VERBS` const — the verb gates \
                      have no source of truth"
                .to_string(),
        }];
    };
    let Some(file) = ws.files.iter().find(|f| f.path.ends_with(GATE_PATH)) else {
        return Vec::new();
    };
    let Some((line, gated)) = const_str_list(file, "LOOPBACK_GATED_VERBS") else {
        return vec![Finding {
            rule: "verbs",
            path: file.path.clone(),
            line: 1,
            message: "transport has no `LOOPBACK_GATED_VERBS` const — mutating \
                      verbs are not gated"
                .to_string(),
        }];
    };
    let finding = |message: String| Finding {
        rule: "verbs",
        path: file.path.clone(),
        line,
        message,
    };
    let missing = mutating.iter().filter(|v| !gated.contains(v)).map(|verb| {
        finding(format!(
            "mutating verb `{verb}` is missing from \
             LOOPBACK_GATED_VERBS — remotely callable"
        ))
    });
    let stale = gated.iter().filter(|v| !mutating.contains(v)).map(|verb| {
        finding(format!(
            "gated verb `{verb}` is not in MUTATING_VERBS — \
             stale or misspelled gate entry"
        ))
    });
    missing.chain(stale).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROTO: &str = "pub const MUTATING_VERBS: &[&str] = &[\"shutdown\", \"reload_routes\"];\n";

    #[test]
    fn missing_gate_entry_is_flagged() {
        let ws = Workspace::from_sources(&[
            ("crates/serve/src/proto.rs", PROTO),
            (
                "crates/gateway/src/transport.rs",
                "const LOOPBACK_GATED_VERBS: &[&str] = &[\"shutdown\"];\n",
            ),
        ]);
        let f = check(&ws);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("reload_routes"));
        assert!(f[0].message.contains("missing"));
    }

    #[test]
    fn stale_gate_entry_is_flagged() {
        let ws = Workspace::from_sources(&[
            ("crates/serve/src/proto.rs", PROTO),
            (
                "crates/gateway/src/transport.rs",
                "const LOOPBACK_GATED_VERBS: &[&str] = \
                 &[\"shutdown\", \"reload_routes\", \"restart\"];\n",
            ),
        ]);
        let f = check(&ws);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("restart"));
        assert!(f[0].message.contains("stale"));
    }

    #[test]
    fn matching_lists_are_clean_and_no_proto_is_a_noop() {
        let full = Workspace::from_sources(&[
            ("crates/serve/src/proto.rs", PROTO),
            (
                "crates/gateway/src/transport.rs",
                "const LOOPBACK_GATED_VERBS: &[&str] = &[\"shutdown\", \"reload_routes\"];\n",
            ),
        ]);
        assert!(check(&full).is_empty(), "{:?}", check(&full));
        let none = Workspace::from_sources(&[("crates/x/src/lib.rs", "fn f() {}\n")]);
        assert!(check(&none).is_empty());
    }

    #[test]
    fn absent_gate_const_is_flagged() {
        let ws = Workspace::from_sources(&[
            ("crates/serve/src/proto.rs", PROTO),
            ("crates/gateway/src/transport.rs", "fn serve() {}\n"),
        ]);
        let f = check(&ws);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("no `LOOPBACK_GATED_VERBS`"));
    }
}

//! Seeded violations, both directions in the one gate list: it is
//! missing `reload_routes`, leaving a mutating verb remotely callable,
//! and `restart` is gated but not mutating — a stale or misspelled
//! gate entry.

const LOOPBACK_GATED_VERBS: &[&str] = &["shutdown", "restart"];

pub fn gated(verb: &str) -> bool {
    LOOPBACK_GATED_VERBS.contains(&verb)
}

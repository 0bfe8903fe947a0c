//! The JSON-lines wire protocol: one request object per line in, one
//! response object per line out.
//!
//! Requests (`model` / `version` optional everywhere):
//!
//! ```text
//! {"op":"compare","first":"<src>","second":"<src>"}
//! {"op":"rank","candidates":["<src>", ...]}
//! {"op":"stats"}
//! {"op":"ping"}
//! {"op":"routes"}
//! {"op":"reload_routes","routes":[{"model":"m","version":2,"weight":1.0}]}
//! {"op":"shutdown"}
//! ```
//!
//! Responses always carry `"ok"`: `true` with op-specific fields, or
//! `false` with an `"error"` string. Protocol errors (bad JSON, unknown
//! op) are also `ok:false` responses — the connection stays usable.
//!
//! Three verbs are *transport-level*: `routes` reports the gateway's
//! weighted A/B routing table (the plain stdio `serve` binary has no
//! router and answers `ok:false`), `reload_routes` swaps that table in
//! place (gateway only, loopback-gated like `shutdown`), and `shutdown`
//! asks the process to drain and exit (both binaries honour it).
//! Requests may also carry a `"client"` string, the gateway's
//! sticky-routing key; the engine itself ignores it.

use crate::engine::{CompareOutcome, EngineStats, RankOutcome, ServeEngine};
use crate::json::{self, Json};
use crate::registry::ModelSelector;

/// A decoded request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Score one pair.
    Compare {
        /// Model selection.
        selector: ModelSelector,
        /// First source (the "is this slower?" subject).
        first: String,
        /// Second source.
        second: String,
    },
    /// Rank K candidates fastest-first.
    Rank {
        /// Model selection.
        selector: ModelSelector,
        /// Candidate sources.
        candidates: Vec<String>,
    },
    /// Engine counters.
    Stats,
    /// Liveness probe.
    Ping,
    /// The routing table and per-route stats (gateway only).
    Routes,
    /// Swap the routing table in place (gateway only; loopback-gated
    /// like [`Request::Shutdown`]).
    ReloadRoutes {
        /// The new weighted table, as `(selector, weight)` pairs.
        routes: Vec<(ModelSelector, f64)>,
        /// Optional shadow target, as `(selector, fraction)`.
        shadow: Option<(ModelSelector, f64)>,
    },
    /// Drain and exit.
    Shutdown,
}

/// The verbs that mutate server state, as wire `op` strings. This is
/// the source of truth the front doors gate on: every verb listed here
/// must appear in the `LOOPBACK_GATED_VERBS` const of the transport
/// core (`ccsa_gateway::transport`), through which the gateway and the
/// fleet refuse it off-loopback unless remote administration was
/// explicitly enabled. The two lists are kept as separate literals on
/// purpose — `ccsa-audit`'s `verbs` rule checks them against each
/// other, so adding a verb here and forgetting the gate fails CI
/// instead of shipping a remotely callable admin op.
pub const MUTATING_VERBS: &[&str] = &["shutdown", "reload_routes"];

/// Decodes one request line.
///
/// # Errors
///
/// Returns a human-readable message for malformed JSON, a missing/unknown
/// `op`, or missing operands.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = json::parse(line).map_err(|e| e.to_string())?;
    parse_request_value(v)
}

/// Decodes an already-parsed request object (transports that inspect the
/// raw JSON themselves — e.g. the gateway reading the `"client"` routing
/// key — use this to avoid parsing twice). Takes the value so the source
/// strings of a compare or rank move into the [`Request`] instead of
/// being copied.
///
/// # Errors
///
/// Returns a human-readable message for a missing/unknown `op` or missing
/// operands.
pub fn parse_request_value(mut v: Json) -> Result<Request, String> {
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing string field 'op'".to_string())?;
    let selector = selector_of(&v)?;
    match op {
        "compare" => {
            let mut field = |name: &str| match take_member(&mut v, name) {
                Some(Json::Str(source)) => Ok(source),
                _ => Err(format!("compare needs string field '{name}'")),
            };
            Ok(Request::Compare {
                selector,
                first: field("first")?,
                second: field("second")?,
            })
        }
        "rank" => {
            let Some(Json::Arr(items)) = take_member(&mut v, "candidates") else {
                return Err("rank needs array field 'candidates'".to_string());
            };
            let candidates = items
                .into_iter()
                .map(|c| match c {
                    Json::Str(source) => Ok(source),
                    _ => Err("candidates must be strings".to_string()),
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Request::Rank {
                selector,
                candidates,
            })
        }
        "stats" => Ok(Request::Stats),
        "ping" => Ok(Request::Ping),
        "routes" => Ok(Request::Routes),
        "reload_routes" => {
            let arr = v
                .get("routes")
                .and_then(Json::as_arr)
                .ok_or_else(|| "reload_routes needs array field 'routes'".to_string())?;
            let routes = arr
                .iter()
                .map(|route| {
                    let weight = route
                        .get("weight")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| "each route needs numeric field 'weight'".to_string())?;
                    Ok((selector_of(route)?, weight))
                })
                .collect::<Result<Vec<_>, String>>()?;
            let shadow = match v.get("shadow") {
                None | Some(Json::Null) => None,
                Some(s) => {
                    let fraction = s
                        .get("fraction")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| "shadow needs numeric field 'fraction'".to_string())?;
                    Some((selector_of(s)?, fraction))
                }
            };
            Ok(Request::ReloadRoutes { routes, shadow })
        }
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op '{other}'")),
    }
}

/// Moves the first member named `key` out of an object (what
/// [`Json::get`] would borrow), leaving `null` in its place.
fn take_member(v: &mut Json, key: &str) -> Option<Json> {
    match v {
        Json::Obj(members) => members
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, value)| std::mem::replace(value, Json::Null)),
        _ => None,
    }
}

/// Reads the optional `model`/`version` selector fields of one JSON
/// object. A present-but-invalid field is an error, never a silent
/// fallback: `"version": 2^32+1` must not truncate onto a real version,
/// and `"version": "two"` must not quietly mean "latest".
fn selector_of(v: &Json) -> Result<ModelSelector, String> {
    let name = match v.get("model") {
        None => None,
        Some(m) => Some(
            m.as_str()
                .map(str::to_string)
                .ok_or_else(|| "'model' must be a string".to_string())?,
        ),
    };
    let version = match v.get("version") {
        None => None,
        Some(n) => Some(
            n.as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| "'version' must be an integer within u32 range".to_string())?,
        ),
    };
    Ok(ModelSelector { name, version })
}

/// Encodes a compare outcome.
pub fn compare_response(outcome: &CompareOutcome) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("op", Json::str("compare")),
        (
            "prob_first_slower",
            Json::num(outcome.prob_first_slower as f64),
        ),
        ("first_is_slower", Json::Bool(outcome.first_is_slower())),
        ("model", Json::str(outcome.model.clone())),
        ("version", Json::num(outcome.version as f64)),
        ("cache_hits", Json::num(outcome.cache_hits as f64)),
    ])
}

/// Encodes a ranking outcome (entries fastest-first).
pub fn rank_response(outcome: &RankOutcome) -> Json {
    let entries: Vec<Json> = outcome
        .ranking
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("rank", Json::num(r.rank as f64)),
                ("candidate", Json::num(r.index as f64)),
                ("score", Json::num(r.score)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("op", Json::str("rank")),
        ("ranking", Json::Arr(entries)),
        ("model", Json::str(outcome.model.clone())),
        ("version", Json::num(outcome.version as f64)),
        ("cache_hits", Json::num(outcome.cache_hits as f64)),
        ("encoded", Json::num(outcome.encoded as f64)),
    ])
}

/// Encodes an engine-stats snapshot.
pub fn stats_response(stats: &EngineStats) -> Json {
    let models: Vec<Json> = stats
        .models
        .iter()
        .map(|(name, versions)| {
            Json::obj(vec![
                ("name", Json::str(name.clone())),
                (
                    "versions",
                    Json::Arr(versions.iter().map(|&v| Json::num(v as f64)).collect()),
                ),
            ])
        })
        .collect();
    let model_cache: Vec<Json> = stats
        .model_cache
        .iter()
        .map(|m| {
            Json::obj(vec![
                ("model", Json::str(m.model.clone())),
                ("version", Json::num(m.version as f64)),
                ("cache_hits", Json::num(m.hits as f64)),
                ("cache_misses", Json::num(m.misses as f64)),
                ("cache_hit_rate", Json::num(m.hit_rate())),
            ])
        })
        .collect();
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("op", Json::str("stats")),
        ("compares", Json::num(stats.compares as f64)),
        ("rankings", Json::num(stats.rankings as f64)),
        ("parses", Json::num(stats.parses as f64)),
        ("parse_memo_hits", Json::num(stats.parse_memo_hits as f64)),
        ("parse_failures", Json::num(stats.parse_failures as f64)),
        ("cache_hits", Json::num(stats.cache.hits as f64)),
        ("cache_misses", Json::num(stats.cache.misses as f64)),
        ("cache_evictions", Json::num(stats.cache.evictions as f64)),
        ("cache_hit_rate", Json::num(stats.cache.hit_rate())),
        ("cache_len", Json::num(stats.cache_len as f64)),
        ("cache_bytes", Json::num(stats.cache_bytes as f64)),
        ("encode_batches", Json::num(stats.batch.batches as f64)),
        ("encode_jobs", Json::num(stats.batch.jobs as f64)),
        ("mean_batch_size", Json::num(stats.batch.mean_batch_size())),
        ("fused_levels", Json::num(stats.batch.fused_levels as f64)),
        ("fused_rows", Json::num(stats.batch.fused_rows as f64)),
        (
            "mean_fused_width",
            Json::num(stats.batch.mean_fused_width()),
        ),
        // The scalar depth predates sharding and is kept for dashboard
        // compatibility; `queue_depths` breaks it down per encode shard.
        ("queue_depth", Json::num(stats.queue_depth as f64)),
        (
            "queue_depths",
            Json::Obj(
                stats
                    .queue_depths
                    .iter()
                    .map(|(label, depth)| (label.clone(), Json::num(*depth as f64)))
                    .collect(),
            ),
        ),
        ("shard_count", Json::num(stats.shard_count as f64)),
        ("steals", Json::num(stats.batch.steals as f64)),
        ("cache_stripes", Json::num(stats.cache_stripes as f64)),
        ("uptime_seconds", Json::num(stats.uptime_seconds)),
        ("build", build_info_json()),
        (
            "kernel_backend",
            Json::str(crate::metrics::kernel_backend().to_string()),
        ),
        ("models", Json::Arr(models)),
        ("model_cache", Json::Arr(model_cache)),
    ])
}

/// The build stamp shared by the `stats` verb and the `ccsa_build_info`
/// gauge on `/metrics` — same [`crate::metrics::build_info`] source, so
/// the two surfaces can never report different builds.
pub fn build_info_json() -> Json {
    let (version, revision) = crate::metrics::build_info();
    Json::obj(vec![
        ("version", Json::str(version)),
        ("revision", Json::str(revision)),
    ])
}

/// Encodes a failure.
pub fn error_response(message: &str) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::str(message)),
    ])
}

/// Runs one decoded request against the engine, producing the response
/// value (errors become `ok:false` responses, never panics).
pub fn dispatch(engine: &ServeEngine, request: Request) -> Json {
    match request {
        Request::Compare {
            selector,
            first,
            second,
        } => match engine.compare(&selector, &first, &second) {
            Ok(outcome) => compare_response(&outcome),
            Err(e) => error_response(&e.to_string()),
        },
        Request::Rank {
            selector,
            candidates,
        } => {
            let refs: Vec<&str> = candidates.iter().map(String::as_str).collect();
            match engine.rank(&selector, &refs) {
                Ok(outcome) => rank_response(&outcome),
                Err(e) => error_response(&e.to_string()),
            }
        }
        Request::Stats => stats_response(&engine.stats()),
        Request::Ping => Json::obj(vec![("ok", Json::Bool(true)), ("op", Json::str("ping"))]),
        // `routes`/`reload_routes` are answered by the gateway's router,
        // which intercepts them before dispatch; a bare engine has no
        // routing table.
        Request::Routes => {
            error_response("no router: 'routes' is served by the ccsa-gateway binary")
        }
        Request::ReloadRoutes { .. } => {
            error_response("no router: 'reload_routes' is served by the ccsa-gateway binary")
        }
        // Acknowledging is all the engine can do — the transport owning
        // the engine (stdio loop, TCP gateway) watches for this request
        // and stops reading afterwards.
        Request::Shutdown => Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("op", Json::str("shutdown")),
        ]),
    }
}

/// Decodes, dispatches and encodes one protocol line.
pub fn handle_line(engine: &ServeEngine, line: &str) -> String {
    let response = match parse_request(line) {
        Ok(request) => dispatch(engine, request),
        Err(message) => error_response(&message),
    };
    response.to_string()
}

/// Sends one response line in a single `write_all`: `response` and its
/// newline are formatted into `line` (a buffer the session keeps between
/// requests) first. Formatting straight into an unbuffered socket costs
/// one `write(2)` — and, with `TCP_NODELAY`, one segment — per fragment
/// the formatter emits.
///
/// # Errors
///
/// Propagates the write or flush failure.
pub fn write_line<W: std::io::Write>(
    w: &mut W,
    line: &mut String,
    response: &impl std::fmt::Display,
) -> std::io::Result<()> {
    use std::fmt::Write as _;
    line.clear();
    // Formatting into a `String` cannot fail.
    let _ = write!(line, "{response}");
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServeConfig;
    use ccsa_model::comparator::{Comparator, EncoderConfig};
    use ccsa_model::pipeline::TrainedModel;
    use ccsa_nn::param::Params;
    use ccsa_nn::treelstm::{Direction, TreeLstmConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_engine() -> ServeEngine {
        let config = EncoderConfig::TreeLstm(TreeLstmConfig {
            embed_dim: 6,
            hidden: 6,
            layers: 1,
            direction: Direction::Uni,
            sigmoid_candidate: false,
        });
        let mut params = Params::new();
        let comparator = Comparator::new(&config, &mut params, &mut StdRng::seed_from_u64(1));
        ServeEngine::with_model(TrainedModel { comparator, params }, &ServeConfig::default())
    }

    #[test]
    fn mutating_verbs_are_recognized_ops() {
        // The transport core's gate list is checked against
        // MUTATING_VERBS by ccsa-audit; this end anchors the const to
        // the parser so a renamed op can't silently orphan its gate.
        for verb in MUTATING_VERBS {
            let line = format!("{{\"op\":{:?}}}", verb);
            match parse_request(&line) {
                Ok(_) => {}
                Err(e) => assert!(
                    !e.contains("unknown"),
                    "mutating verb {verb:?} is not a parser op: {e}"
                ),
            }
        }
    }

    #[test]
    fn parses_requests_with_and_without_selector() {
        let r = parse_request(r#"{"op":"compare","first":"a","second":"b"}"#).unwrap();
        assert_eq!(
            r,
            Request::Compare {
                selector: ModelSelector::default(),
                first: "a".into(),
                second: "b".into()
            }
        );
        let r = parse_request(r#"{"op":"rank","model":"m","version":3,"candidates":["x","y"]}"#)
            .unwrap();
        assert_eq!(
            r,
            Request::Rank {
                selector: ModelSelector {
                    name: Some("m".into()),
                    version: Some(3)
                },
                candidates: vec!["x".into(), "y".into()],
            }
        );
        assert_eq!(parse_request(r#"{"op":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(parse_request(r#"{"op":"ping"}"#).unwrap(), Request::Ping);
        assert_eq!(
            parse_request(r#"{"op":"routes"}"#).unwrap(),
            Request::Routes
        );
        assert_eq!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
        let r = parse_request(
            r#"{"op":"reload_routes","routes":[{"model":"m","version":1,"weight":0.9},{"weight":0.1}],"shadow":{"model":"m","version":2,"fraction":0.5}}"#,
        )
        .unwrap();
        assert_eq!(
            r,
            Request::ReloadRoutes {
                routes: vec![
                    (
                        ModelSelector {
                            name: Some("m".into()),
                            version: Some(1)
                        },
                        0.9
                    ),
                    (ModelSelector::default(), 0.1),
                ],
                shadow: Some((
                    ModelSelector {
                        name: Some("m".into()),
                        version: Some(2)
                    },
                    0.5
                )),
            }
        );
        // A null shadow means "no shadow", same as an absent field.
        let r = parse_request(r#"{"op":"reload_routes","routes":[{"weight":1}],"shadow":null}"#)
            .unwrap();
        assert!(matches!(r, Request::ReloadRoutes { shadow: None, .. }));
    }

    #[test]
    fn transport_verbs_answer_without_a_router() {
        let engine = test_engine();
        // Shutdown is acknowledged (the transport loop acts on it).
        let v = crate::json::parse(&handle_line(&engine, r#"{"op":"shutdown"}"#)).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("op").unwrap().as_str(), Some("shutdown"));
        // Routes/reload_routes need a gateway router; a bare engine
        // declines both.
        let v = crate::json::parse(&handle_line(&engine, r#"{"op":"routes"}"#)).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(false)));
        assert!(v.get("error").unwrap().as_str().unwrap().contains("router"));
        let v = crate::json::parse(&handle_line(
            &engine,
            r#"{"op":"reload_routes","routes":[{"weight":1}]}"#,
        ))
        .unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(false)));
        assert!(v.get("error").unwrap().as_str().unwrap().contains("router"));
    }

    #[test]
    fn rejects_malformed_requests_gracefully() {
        for bad in [
            "not json",
            r#"{"noop":1}"#,
            r#"{"op":"teleport"}"#,
            r#"{"op":"compare","first":"a"}"#,
            r#"{"op":"rank","candidates":[1,2]}"#,
            // Selector fields must be valid when present — no silent
            // truncation (2^32 + 1) or fallback-to-latest ("two", -3).
            r#"{"op":"stats","version":4294967297}"#,
            r#"{"op":"stats","version":"two"}"#,
            r#"{"op":"stats","version":-3}"#,
            r#"{"op":"stats","model":7}"#,
            r#"{"op":"reload_routes"}"#,
            r#"{"op":"reload_routes","routes":[{"model":"m"}]}"#,
            r#"{"op":"reload_routes","routes":[{"weight":1}],"shadow":{}}"#,
        ] {
            assert!(parse_request(bad).is_err(), "accepted {bad:?}");
        }
        // Boundary: u32::MAX itself is representable.
        assert!(parse_request(r#"{"op":"stats","version":4294967295}"#).is_ok());
    }

    #[test]
    fn end_to_end_compare_line() {
        let engine = test_engine();
        let line = r#"{"op":"compare","first":"int main() { return 0; }","second":"int main() { for (int i = 0; i < 9; i++) { } return 0; }"}"#;
        let out = handle_line(&engine, line);
        let v = crate::json::parse(&out).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        let p = v.get("prob_first_slower").unwrap().as_f64().unwrap();
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn end_to_end_rank_line() {
        let engine = test_engine();
        let line = r#"{"op":"rank","candidates":["int main() { return 0; }","int main() { for (int i = 0; i < 9; i++) { } return 0; }","int main() { return 5; }"]}"#;
        let v = crate::json::parse(&handle_line(&engine, line)).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        let ranking = v.get("ranking").unwrap().as_arr().unwrap();
        assert_eq!(ranking.len(), 3);
        assert_eq!(ranking[0].get("rank").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn errors_keep_the_connection_alive() {
        let engine = test_engine();
        let v = crate::json::parse(&handle_line(&engine, "garbage")).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(false)));
        let v = crate::json::parse(&handle_line(
            &engine,
            r#"{"op":"compare","first":"int main() {","second":"int main() { return 0; }"}"#,
        ))
        .unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(false)));
        assert!(v.get("error").unwrap().as_str().unwrap().contains("parse"));
        // The engine still answers after errors.
        let v = crate::json::parse(&handle_line(&engine, r#"{"op":"ping"}"#)).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
    }

    /// Counts `write` calls: each is a `write(2)` on a socket, and a
    /// segment of its own under `TCP_NODELAY`.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl std::io::Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_line_leaves_in_one_write() {
        // A reply with strings to escape, then a shorter one through the
        // same session buffer: one write each, exactly the line's bytes.
        let mut reply = String::new();
        let long = error_response("candidate 0 failed to parse: expected '}'\n\tat \"main\" — é");
        let short = Json::obj(vec![("ok", Json::Bool(true)), ("op", Json::str("ping"))]);
        for response in [long, short] {
            let mut socket = CountingWriter::default();
            write_line(&mut socket, &mut reply, &response).unwrap();
            assert_eq!(socket.writes, 1);
            assert_eq!(socket.bytes, format!("{response}\n").into_bytes());
        }
        // The fleet forwards raw request lines through the same call.
        let mut socket = CountingWriter::default();
        write_line(&mut socket, &mut reply, &r#"{"op":"ping"}"#).unwrap();
        assert_eq!(
            (socket.writes, socket.bytes.as_slice()),
            (1, &b"{\"op\":\"ping\"}\n"[..])
        );
    }

    #[test]
    fn stats_line_reports_counters() {
        const COMPARE_LINE: &str = r#"{"op":"compare","first":"int main() { return 0; }","second":"int main() { return 1; }"}"#;
        let engine = test_engine();
        let _ = handle_line(&engine, COMPARE_LINE);
        let v = crate::json::parse(&handle_line(&engine, r#"{"op":"stats"}"#)).unwrap();
        assert_eq!(v.get("compares").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("parses").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("parse_memo_hits").unwrap().as_u64(), Some(0));
        // The same line again parses nothing: both sources are memoized.
        let _ = handle_line(&engine, COMPARE_LINE);
        let again = crate::json::parse(&handle_line(&engine, r#"{"op":"stats"}"#)).unwrap();
        assert_eq!(again.get("parses").unwrap().as_u64(), Some(2));
        assert_eq!(again.get("parse_memo_hits").unwrap().as_u64(), Some(2));
        let models = v.get("models").unwrap().as_arr().unwrap();
        assert_eq!(models[0].get("name").unwrap().as_str(), Some("default"));
        // Admission backpressure signals: the legacy scalar plus the
        // per-shard breakdown, both present and idle by now.
        assert_eq!(v.get("queue_depth").unwrap().as_u64(), Some(0));
        let depths = v.get("queue_depths").unwrap();
        assert_eq!(depths.get("default@v1").unwrap().as_u64(), Some(0));
        assert_eq!(v.get("shard_count").unwrap().as_u64(), Some(1));
        // Presence only: on a multi-worker pool, whichever worker grabs
        // the batch first may legitimately record a steal.
        assert!(v.get("steals").unwrap().as_u64().is_some());
        assert!(v.get("cache_stripes").unwrap().as_u64().unwrap() >= 1);
        // Cache bytes: two cold codes are resident after one compare.
        assert!(v.get("cache_bytes").unwrap().as_u64().unwrap() > 0);
        // Per-model cache attribution: one compare = 2 cold lookups.
        let per_model = v.get("model_cache").unwrap().as_arr().unwrap();
        assert_eq!(per_model.len(), 1);
        assert_eq!(per_model[0].get("model").unwrap().as_str(), Some("default"));
        assert_eq!(per_model[0].get("version").unwrap().as_u64(), Some(1));
        assert_eq!(per_model[0].get("cache_misses").unwrap().as_u64(), Some(2));
        assert_eq!(
            per_model[0].get("cache_hit_rate").unwrap().as_f64(),
            Some(0.0)
        );
        // Uptime and build stamp ride along for probes/dashboards.
        assert!(v.get("uptime_seconds").unwrap().as_f64().unwrap() >= 0.0);
        let build = v.get("build").unwrap();
        let (version, revision) = crate::metrics::build_info();
        assert_eq!(build.get("version").unwrap().as_str(), Some(version));
        assert_eq!(build.get("revision").unwrap().as_str(), Some(revision));
        // Which kernels computed the answers: scalar and the FMA backends
        // differ in last ulps, so a mixed fleet must be able to tell.
        let backend = ccsa_tensor::kernels::active().backend.to_string();
        assert!(["scalar", "avx2", "avx512"].contains(&backend.as_str()));
        assert_eq!(v.get("kernel_backend").unwrap().as_str(), Some(&*backend));
    }
}

//! `ccsa-fleet` — the front tier and control plane in front of N
//! gateway replicas.
//!
//! One fleet process gives a replica set a single address, sticky
//! consistent-hash routing, transparent failover, tail-latency hedging,
//! health-based ejection, and a hot-reloadable routing table driven by
//! an automated canary controller:
//!
//! ```text
//!                        clients (TCP JSON-lines / HTTP)
//!                                     │
//!                 ┌───────────────────▼───────────────────┐
//!                 │                 fleet                  │
//!                 │  ring ──── consistent hash on client   │
//!                 │  hedge ─── 2nd attempt at p99 deadline │
//!                 │  probe ─── /readyz rise/fall ejection  │
//!                 │  table ─── watch + validate + push     │
//!                 │  canary ── delta scrape → ramp/rollback│
//!                 └──┬───────────────┬───────────────┬────┘
//!                    │ keep-alive    │               │
//!              ┌─────▼────┐    ┌─────▼────┐    ┌─────▼────┐
//!              │ gateway 0 │    │ gateway 1 │    │ gateway N │
//!              └──────────┘    └──────────┘    └──────────┘
//! ```
//!
//! The data plane is transparent by construction — request and response
//! lines cross the fleet as raw bytes — so a `compare`/`rank` routed
//! through the fleet returns a byte-identical body to one sent at a
//! replica directly. The modules:
//!
//! * [`ring`] — the deterministic consistent-hash ring (vnodes, ~1/N
//!   remap on membership change);
//! * [`replica`] — per-replica health word and keep-alive connection
//!   pool;
//! * [`table`] — the validated, atomically-rewritten routing-table
//!   file and its `reload_routes` push form;
//! * [`canary`] — the pure promote/hold/rollback decision logic over
//!   shadow-vs-primary deltas;
//! * [`server`] — the request handlers, forwarding (hedge + failover),
//!   prober, table watcher, canary driver, and `ccsa_fleet_*` metrics.
//!
//! Lifecycle and framing are not here: both doors run on a gateway's
//! `ccsa_gateway::transport` (accept loop, budget, sessions, probes,
//! drain flag, port files), and the binary reads its flags with
//! `ccsa_serve::process`.

pub mod canary;
pub mod replica;
pub mod ring;
pub mod server;
pub mod table;

pub use canary::{Canary, CanaryConfig, CanaryPhase, Decision, DeltaSample, RAMP};
pub use replica::{Replica, ReplicaConfig};
pub use ring::{Ring, VNODES};
pub use server::{Fleet, FleetConfig, FleetHandle, SpawnedFleet};
pub use table::{load as load_table, parse as parse_table, write_atomic, TableSpec};

//! `secflow-serve`: a persistent job server for the secure design
//! flow, with a content-addressed artifact cache.
//!
//! The CLI flows (`secflow`, the experiment binaries) pay the full
//! synthesis → place → route → extract → compile → simulate pipeline
//! on every invocation. This crate keeps a process resident instead:
//!
//! * [`server`] — a daemon on a Unix-domain socket (or TCP) accepting
//!   **flow**, **campaign** (DPA/CPA + MTD) and **attack** jobs as
//!   length-prefixed JSON frames, scheduled across a small runner
//!   pool (stages parallelise internally via `secflow-exec`);
//! * [`cache`] — an in-memory + on-disk LRU artifact store keyed by a
//!   128-bit content hash of `(input bytes, options, stage)`: parsed
//!   and mapped netlists, WDDL substitutions, placements, routed
//!   designs, parasitics, compiled simulation programs, campaign
//!   statistics (never trace sets) and whole response payloads;
//! * [`hash`] / [`key`] — SipHash-2-4 (in-repo, the workspace is
//!   hermetic) over canonical option encodings, floats pinned by
//!   `f64::to_bits`;
//! * [`proto`] / [`client`] — the framing, request schema and the
//!   submit side used by `secflow submit`.
//!
//! The cache leans on the workspace's determinism contract: every
//! stage is a pure function of its typed inputs, so serving a cached
//! artifact — or a whole cached response payload — is byte-identical
//! to recomputing it. Responses are split into a *payload* frame
//! (deterministic, safe to cache and `cmp`) and an *envelope* frame
//! (per-job metrics, errors), mirroring the stdout/stderr split of
//! the CLI binaries.

pub mod cache;
pub mod client;
pub mod engine;
pub mod hash;
pub mod key;
pub mod proto;
pub mod server;

pub use cache::{ArtifactCache, CacheStats};
pub use client::{submit, Response};
pub use engine::{Engine, JobError, JobOutcome};
pub use hash::ContentHash;
pub use key::{flow_options_bytes, sim_config_bytes, stage_key, CacheStage};
pub use proto::{read_frame, write_frame, Request, RequestError};
pub use secflow_obs::json::Value;
pub use server::{serve, Bind, ServerOptions};

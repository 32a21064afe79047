#![forbid(unsafe_code)]
//! Command-line and RESTful interfaces for ForkBase (paper Fig. 1,
//! "Semantic Views": *Command Line scripting* and *RESTful* access).
//!
//! Each view serves either deployment shape — a single node or a sharded
//! [`forkbase::Cluster`] — from one table: `commands` holds the CLI verb
//! table ([`run_command`]), [`rest`] the route table of a deliberately
//! small HTTP/1.1 server on `std::net`. The verbs both shapes share go
//! through [`forkbase::Backend`]; a private shape hook adds the rest. A
//! [`Session`] binds one shape to its directory: it opens it, persists
//! it, and serves it.

mod commands;
pub mod fork_cmd;
pub mod reflog;
pub mod rest;
mod session;

pub use commands::run_command;
pub use fork_cmd::run_fork_command;
pub use rest::RestServer;
pub use session::{serve_servelet, Session};

#![forbid(unsafe_code)]
//! Command-line and RESTful interfaces for ForkBase (paper Fig. 1,
//! "Semantic Views": *Command Line scripting* and *RESTful* access).
//!
//! The [`commands`] module implements the verb set as a pure function
//! from argument vectors to output text, so the same code path serves the
//! binary, the tests, and the REST server. The [`rest`] module is a
//! deliberately small HTTP/1.1 server on `std::net` — no async stack, one
//! thread per connection — exposing the core verbs at predictable paths.

pub mod cluster_cmd;
pub mod commands;
pub mod fork_cmd;
pub mod rest;
pub mod session;

pub use cluster_cmd::{run_cluster_command, serve_servelet, ClusterSession};
pub use commands::run_command;
pub use fork_cmd::run_fork_command;
pub use rest::RestServer;
pub use session::Session;

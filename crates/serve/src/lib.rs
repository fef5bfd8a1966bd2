//! Always-on alignment service: the batch engine behind a socket.
//!
//! The paper's cluster runs one batch job and exits; the north-star
//! deployment is a resident service answering alignment queries from many
//! concurrent clients against a long-lived database (the shape DSA gives
//! a distributed SIMD-SW system — see PAPERS.md). This crate is that
//! service, built from parts the workspace already trusts:
//!
//! * [`proto`] — the request/response protocol: [`Request`] and
//!   [`Response`] are frame families of the `dsm` wire codec (each a
//!   [`genomedsm_dsm::Wire`] value behind [`genomedsm_dsm::to_frame`] /
//!   [`genomedsm_dsm::from_frame`]), hex-armored one frame per line so the
//!   transport is line-delimited and every byte is checksum-protected.
//!   Decoding never panics.
//! * [`admission`] — a bounded request queue with typed
//!   [`Overloaded`] rejection (the server refuses,
//!   never hangs) and **per-client weighted fair scheduling**: the next
//!   request dispatched is the one whose client has the smallest
//!   served-units/weight ratio. `genomedsm-verify` steps the shipped
//!   decision, [`AdmissionGate`], and checks that no request is lost or
//!   double-dispatched.
//! * [`cache`] — a result cache keyed by *(query digest, top-k, db
//!   epoch)*. The engine is deterministic, so a hit is bit-identical to
//!   recomputation by construction — and the property tests check it
//!   byte for byte anyway.
//! * [`epoch`] — the hot-reloadable database: an atomically swapped
//!   `Arc` snapshot with a monotonically increasing epoch. In-flight
//!   requests finish against the arena they started with; the cache
//!   purges exactly the superseded epoch.
//! * [`server`] / [`client`] — the Unix-socket server (reader, writer,
//!   and worker threads per the threading notes in DESIGN.md §5.11) and
//!   the matching client library the CLI `genomedsm client` wraps.
//!
//! Responses stream: each query's top-k is sent as soon as the engine
//! finalizes it (ascending query order, via
//! [`BatchEngine::search_streaming`](genomedsm_batch::BatchEngine::search_streaming)),
//! so everything a client has received is a prefix of the final answer.

#![warn(missing_docs)]

pub mod admission;
pub mod cache;
pub mod client;
pub mod epoch;
pub mod proto;
pub mod server;

pub use admission::{AdmissionGate, AdmissionQueue, AdmissionStats, ClientStats, Overloaded};
pub use cache::{CacheStats, QueryKey, ResultCache};
pub use client::{QueryHits, SearchSummary, ServeClient};
pub use epoch::{DbSnapshot, EpochDb};
pub use proto::{from_hex_line, to_hex_line, Request, Response, ServiceStats};
pub use server::{Server, ServerConfig};

use genomedsm_batch::BatchError;
use genomedsm_dsm::DsmError;
use std::fmt;
use std::io;

/// Typed error of the service layer.
#[derive(Debug)]
pub enum ServeError {
    /// An I/O operation failed; `context` names the operation.
    Io {
        /// What was being done.
        context: String,
        /// The underlying error.
        source: io::Error,
    },
    /// A frame failed to decode (checksum, truncation, bad tag…).
    Protocol(DsmError),
    /// A line was not valid hex armor.
    BadLine {
        /// What was wrong with it.
        what: String,
    },
    /// The server refused the request: its bounded queue is full.
    Overloaded {
        /// Queue depth at rejection time.
        depth: usize,
        /// The queue's capacity.
        limit: usize,
    },
    /// The server reported a request-level failure.
    Server(String),
    /// The peer closed the connection mid-exchange.
    Disconnected,
    /// Loading inputs failed (database or query file).
    Batch(BatchError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io { context, source } => write!(f, "{context}: {source}"),
            ServeError::Protocol(e) => write!(f, "protocol error: {e}"),
            ServeError::BadLine { what } => write!(f, "bad line: {what}"),
            ServeError::Overloaded { depth, limit } => {
                write!(f, "server overloaded: queue depth {depth} of {limit}")
            }
            ServeError::Server(msg) => write!(f, "server error: {msg}"),
            ServeError::Disconnected => write!(f, "peer disconnected"),
            ServeError::Batch(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io { source, .. } => Some(source),
            ServeError::Protocol(e) => Some(e),
            ServeError::Batch(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DsmError> for ServeError {
    fn from(e: DsmError) -> Self {
        ServeError::Protocol(e)
    }
}

impl From<BatchError> for ServeError {
    fn from(e: BatchError) -> Self {
        ServeError::Batch(e)
    }
}

impl ServeError {
    /// Wraps an `io::Error` with a context string.
    pub fn io(context: impl Into<String>, source: io::Error) -> Self {
        ServeError::Io {
            context: context.into(),
            source,
        }
    }
}

//! Typed errors for the DSM transport and wire codec.
//!
//! The reliability layer treats every decode failure as a *recoverable*
//! transport event: a frame that fails checksum or structural validation
//! is dropped and recovered by retransmission, never by aborting the
//! node. These are the errors that surface from [`crate::codec`] and the
//! channel-transport paths in [`crate::node`] / [`crate::daemon`].

use std::fmt;

/// Errors of the DSM wire codec and transport paths.
///
/// Every variant is recoverable at the protocol level: corrupted or
/// truncated frames are dropped (and retransmitted by the sender's
/// timeout machinery); `Disconnected` means the peer endpoint is gone and
/// the run is tearing down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DsmError {
    /// The frame ended before the expected field.
    Truncated {
        /// Bytes required by the field being decoded.
        need: usize,
        /// Bytes remaining in the frame.
        have: usize,
    },
    /// Unknown message tag byte.
    BadTag(u8),
    /// The frame checksum does not match its contents (bit corruption).
    Checksum {
        /// Checksum carried by the frame.
        expect: u32,
        /// Checksum computed over the received bytes.
        got: u32,
    },
    /// A length field exceeds the frame or a sanity bound.
    Oversize {
        /// The declared length.
        len: usize,
        /// The maximum admissible here.
        max: usize,
    },
    /// The frame decoded fully but trailing bytes remain.
    Trailing {
        /// Number of unconsumed bytes.
        extra: usize,
    },
    /// A string field is not valid UTF-8 (only the service protocol and
    /// the result gather carry strings; the DSM messages themselves are
    /// all-numeric).
    Utf8 {
        /// Length of the valid prefix.
        valid_up_to: usize,
    },
    /// A field decoded but its value is outside what the protocol admits
    /// (for example a gap penalty that is not negative).
    Invalid(&'static str),
    /// A peer endpoint (daemon inbox or worker reply channel) is closed.
    Disconnected(&'static str),
    /// The cluster manifest (TOML file or environment override) is
    /// malformed, or a socket operation it implies failed (bad bind
    /// address, unresolvable peer).
    Manifest(String),
    /// A cluster node was declared dead by the failure detector. Surfaced
    /// to blocked waiters (lock/cv/barrier) so the application can take
    /// over the dead node's work instead of deadlocking.
    NodeFailed {
        /// The node declared dead.
        node: usize,
    },
}

impl fmt::Display for DsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DsmError::Truncated { need, have } => {
                write!(f, "truncated frame: need {need} bytes, have {have}")
            }
            DsmError::BadTag(tag) => write!(f, "unknown message tag {tag:#04x}"),
            DsmError::Checksum { expect, got } => {
                write!(
                    f,
                    "checksum mismatch: frame says {expect:#010x}, computed {got:#010x}"
                )
            }
            DsmError::Oversize { len, max } => {
                write!(f, "length field {len} exceeds bound {max}")
            }
            DsmError::Trailing { extra } => {
                write!(f, "{extra} trailing bytes after a complete frame")
            }
            DsmError::Utf8 { valid_up_to } => {
                write!(f, "invalid UTF-8 in string field after {valid_up_to} bytes")
            }
            DsmError::Invalid(what) => write!(f, "invalid field: {what}"),
            DsmError::Disconnected(what) => write!(f, "transport disconnected: {what}"),
            DsmError::Manifest(reason) => write!(f, "cluster manifest: {reason}"),
            DsmError::NodeFailed { node } => write!(f, "node {node} declared failed"),
        }
    }
}

impl std::error::Error for DsmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_descriptive() {
        let e = DsmError::Checksum { expect: 1, got: 2 };
        assert!(e.to_string().contains("checksum"));
        assert!(DsmError::BadTag(0xff).to_string().contains("0xff"));
        assert!(DsmError::Truncated { need: 8, have: 3 }
            .to_string()
            .contains("need 8"));
        assert!(DsmError::NodeFailed { node: 3 }
            .to_string()
            .contains("node 3"));
    }
}

//! Error type shared by all chunk store implementations.

use std::fmt;
use std::io;

/// Result alias for store operations.
pub type StoreResult<T> = Result<T, StoreError>;

/// Errors raised by chunk stores.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure (file stores).
    Io(io::Error),
    /// A segment file frame was malformed (bad magic/CRC/length), or
    /// holds another chunk's hash than the one read from it. Stores check
    /// their framing only; a chunk whose bytes do not hash to its address
    /// is the addressed reader's finding (paper §II-D threat model).
    BadFrame {
        /// Which segment file.
        segment: u64,
        /// Byte offset of the frame.
        offset: u64,
        /// Human-readable reason.
        reason: String,
    },
    /// The store directory failed validation on open.
    BadLayout(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::BadFrame {
                segment,
                offset,
                reason,
            } => write!(
                f,
                "bad frame in segment {segment} at offset {offset}: {reason}"
            ),
            StoreError::BadLayout(msg) => write!(f, "bad store layout: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = StoreError::BadFrame {
            segment: 3,
            offset: 128,
            reason: "crc mismatch".into(),
        };
        assert!(e.to_string().contains("segment 3"));
        assert!(e.to_string().contains("crc mismatch"));

        let e: StoreError = io::Error::other("disk on fire").into();
        assert!(e.to_string().contains("disk on fire"));
    }
}

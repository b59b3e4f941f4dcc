//! Error types for building and loading graphs into the memory cloud.

use crate::ids::{LabelId, VertexId};
use std::fmt;

/// Errors produced while assembling or loading a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrinityError {
    /// An edge references a vertex that was never added.
    UnknownVertex(VertexId),
    /// A vertex carries a label id its graph's label interner never issued.
    UnknownLabel(LabelId),
    /// The requested number of machines is invalid (zero or too large).
    InvalidMachineCount(usize),
    /// The graph contains no vertices.
    EmptyGraph,
    /// A text line could not be parsed while loading an edge list.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// Human-readable description of what failed to parse.
        message: String,
    },
    /// Underlying I/O failure while reading or writing graph files.
    Io(String),
}

impl fmt::Display for TrinityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrinityError::UnknownVertex(v) => {
                write!(f, "edge references unknown vertex {v}")
            }
            TrinityError::UnknownLabel(l) => {
                write!(f, "vertex carries label {l}, which was never interned")
            }
            TrinityError::InvalidMachineCount(n) => {
                write!(f, "invalid machine count {n}: must be in 1..=65535")
            }
            TrinityError::EmptyGraph => write!(f, "graph contains no vertices"),
            TrinityError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            TrinityError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for TrinityError {}

impl From<std::io::Error> for TrinityError {
    fn from(e: std::io::Error) -> Self {
        TrinityError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(TrinityError::UnknownVertex(VertexId(7))
            .to_string()
            .contains("v7"));
        assert!(TrinityError::UnknownLabel(LabelId(9))
            .to_string()
            .contains("never interned"));
        assert!(TrinityError::InvalidMachineCount(0)
            .to_string()
            .contains("0"));
        assert!(TrinityError::EmptyGraph.to_string().contains("no vertices"));
        assert!(TrinityError::Parse {
            line: 3,
            message: "bad".into()
        }
        .to_string()
        .contains("line 3"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing");
        let e: TrinityError = io.into();
        assert!(matches!(e, TrinityError::Io(_)));
    }
}

//! Error types for query construction and matching.

use std::fmt;
use trinity_sim::transport::TransportError;

/// Errors produced while building or executing a subgraph query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StwigError {
    /// The query references a label that does not exist in the data graph.
    LabelNotFound(String),
    /// The query has no vertices.
    EmptyQuery,
    /// The query graph is not connected; STwig decomposition requires a
    /// connected pattern (the paper's generators always emit connected
    /// queries via a spanning tree).
    DisconnectedQuery,
    /// The query has more vertices than the supported maximum.
    TooManyVertices {
        /// Vertices in the offending query.
        got: usize,
        /// Maximum supported query size.
        max: usize,
    },
    /// A query edge references a vertex index that does not exist.
    InvalidQueryVertex(usize),
    /// The query contains a vertex with no incident edge, which cannot be
    /// covered by any STwig.
    IsolatedQueryVertex(usize),
    /// A textual pattern (see [`crate::pattern`]) could not be parsed.
    PatternSyntax {
        /// Zero-based index of the offending pattern term.
        term: usize,
        /// Human-readable description of the problem.
        message: String,
    },
    /// A protocol violation on the message transport (e.g. a peer answering
    /// a request with the wrong variant). Fails the offending query only;
    /// the serving process and every other in-flight query keep running.
    Transport(TransportError),
    /// A machine could not be reached after the configured retry budget:
    /// either it is permanently down, or transient faults outlasted every
    /// attempt. Under `FailurePolicy::Fail` this fails the query typed;
    /// under `FailurePolicy::Degrade` the executor converts it into a
    /// partial result and records the machine as lost.
    MachineUnavailable {
        /// The unreachable machine.
        machine: u16,
        /// Exchange attempts made before giving up.
        attempts: u32,
        /// The error of the final attempt.
        last: TransportError,
    },
    /// The request armed [`crate::retry::Faults`] on a
    /// [`crate::config::TransportMode::DirectRead`] query, which has no
    /// transport to inject them into. Refused before any work, so a fault
    /// run never silently runs fault-free.
    FaultsNeedMessages,
    /// A graph update batch was refused: it referenced an unknown vertex,
    /// or the engine serves a static cloud with no
    /// [`trinity_sim::epoch::GraphEpochs`] manager. Validation is atomic —
    /// a refused batch changed nothing (see
    /// [`trinity_sim::epoch::GraphEpochs::apply`]).
    Update(String),
    /// Internal invariant violation (a bug if ever observed).
    Internal(String),
}

impl fmt::Display for StwigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StwigError::LabelNotFound(l) => {
                write!(f, "label `{l}` does not exist in the data graph")
            }
            StwigError::EmptyQuery => write!(f, "query graph has no vertices"),
            StwigError::DisconnectedQuery => write!(f, "query graph is not connected"),
            StwigError::TooManyVertices { got, max } => {
                write!(
                    f,
                    "query has {got} vertices, more than the supported maximum of {max}"
                )
            }
            StwigError::InvalidQueryVertex(i) => {
                write!(f, "query edge references unknown vertex {i}")
            }
            StwigError::IsolatedQueryVertex(i) => {
                write!(
                    f,
                    "query vertex {i} has no incident edge and cannot be covered by an STwig"
                )
            }
            StwigError::PatternSyntax { term, message } => {
                write!(f, "pattern syntax error in term {term}: {message}")
            }
            StwigError::Transport(err) => write!(f, "transport protocol violation: {err}"),
            StwigError::MachineUnavailable {
                machine,
                attempts,
                last,
            } => {
                write!(
                    f,
                    "machine M{machine} unreachable after {attempts} attempt(s): {last}"
                )
            }
            StwigError::FaultsNeedMessages => write!(
                f,
                "faults were armed on a DirectRead query; only Messages mode has a transport to inject them into"
            ),
            StwigError::Update(msg) => write!(f, "graph update refused: {msg}"),
            StwigError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl From<trinity_sim::TrinityError> for StwigError {
    fn from(err: trinity_sim::TrinityError) -> Self {
        StwigError::Update(err.to_string())
    }
}

impl std::error::Error for StwigError {}

impl From<TransportError> for StwigError {
    fn from(err: TransportError) -> Self {
        StwigError::Transport(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(StwigError::LabelNotFound("foo".into())
            .to_string()
            .contains("foo"));
        assert!(StwigError::EmptyQuery.to_string().contains("no vertices"));
        assert!(StwigError::DisconnectedQuery
            .to_string()
            .contains("not connected"));
        assert!(StwigError::TooManyVertices { got: 99, max: 64 }
            .to_string()
            .contains("99"));
        assert!(StwigError::InvalidQueryVertex(3).to_string().contains('3'));
        assert!(StwigError::IsolatedQueryVertex(2).to_string().contains('2'));
        assert!(StwigError::FaultsNeedMessages
            .to_string()
            .contains("DirectRead"));
        assert!(StwigError::Internal("oops".into())
            .to_string()
            .contains("oops"));
        let update: StwigError =
            trinity_sim::TrinityError::UnknownVertex(trinity_sim::ids::VertexId(9)).into();
        assert!(update.to_string().contains("refused"));
        let transport: StwigError = TransportError::UnexpectedReply {
            expected: "LoadReply",
            got: "JoinRows",
        }
        .into();
        assert!(transport.to_string().contains("JoinRows"));
        assert!(StwigError::PatternSyntax {
            term: 2,
            message: "bad connector".into()
        }
        .to_string()
        .contains("term 2"));
    }
}

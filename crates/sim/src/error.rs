//! Simulation errors.

use std::fmt;

/// Failure of a simulated refresh run.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The workload graph or execution order is invalid.
    Dag(sc_dag::DagError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Dag(e) => write!(f, "dag: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<sc_dag::DagError> for SimError {
    fn from(e: sc_dag::DagError) -> Self {
        SimError::Dag(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, SimError>;

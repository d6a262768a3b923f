//! Error types for the explorer crate.

use std::error::Error;
use std::fmt;

/// An error raised while building or running a program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProgramError {
    /// The program counter left the code (missing `Return`, bad label).
    PcOutOfRange {
        /// The offending program counter.
        pc: usize,
    },
    /// A jump referenced a label that was never bound.
    UnboundLabel,
    /// `x mod 0` was evaluated.
    DivisionByZero,
    /// More than [`LOCAL_FUEL`](crate::program::LOCAL_FUEL) local
    /// instructions ran without reaching an invoke or a return.
    LocalDivergence,
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::PcOutOfRange { pc } => {
                write!(f, "program counter {pc} out of range")
            }
            ProgramError::UnboundLabel => write!(f, "jump references an unbound label"),
            ProgramError::DivisionByZero => write!(f, "modulo by zero"),
            ProgramError::LocalDivergence => {
                write!(
                    f,
                    "local instruction budget exhausted (divergent local loop)"
                )
            }
        }
    }
}

impl Error for ProgramError {}

/// An error raised while exploring a [`System`](crate::System).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExplorerError {
    /// A program error occurred inside a process.
    Program {
        /// The offending process index.
        process: usize,
        /// The underlying program error.
        source: ProgramError,
    },
    /// A program invoked an object index that does not exist.
    NoSuchObject {
        /// The offending process index.
        process: usize,
        /// The evaluated object index.
        obj: i64,
    },
    /// A program used an invocation index outside its object's type.
    NoSuchInvocation {
        /// The offending process index.
        process: usize,
        /// The object index.
        obj: usize,
        /// The evaluated invocation index.
        inv: i64,
    },
    /// A process accessed an object through which it has no assigned port
    /// (Section 2.1: at most one process may use a port).
    NoPortAssigned {
        /// The offending process index.
        process: usize,
        /// The object index.
        obj: usize,
    },
    /// Exploration exhausted one of its [`Budget`](crate::Budget) axes
    /// ([`ExploreOptions`](crate::ExploreOptions)). The payload carries
    /// the exact usage at the tripping sync point and a
    /// [`Progress`](wfc_spec::control::Progress) snapshot; both are
    /// deterministic across thread counts — one exploration runs on one
    /// thread, checks its budgets only at level-sync points, and interns
    /// each level's children in frontier order.
    Exhausted(wfc_spec::control::Exhausted),
    /// The system admits an infinite execution (a cycle in the
    /// configuration graph), so access bounds do not exist. This is
    /// exactly the failure of wait-freedom (Section 4.2).
    NotWaitFree,
    /// The exploration's [`CancelToken`](crate::CancelToken) was set
    /// (server-side deadline or shutdown). Checked only at level-sync
    /// points, like the budgets, so a run either completes or is
    /// cancelled — completed quantities are never partial, and the
    /// attached snapshot reports exactly the work done.
    Cancelled {
        /// Work completed when the token was observed.
        progress: wfc_spec::control::Progress,
    },
}

impl fmt::Display for ExplorerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExplorerError::Program { process, source } => {
                write!(f, "process {process}: {source}")
            }
            ExplorerError::NoSuchObject { process, obj } => {
                write!(f, "process {process} invoked nonexistent object {obj}")
            }
            ExplorerError::NoSuchInvocation { process, obj, inv } => {
                write!(
                    f,
                    "process {process} used invalid invocation {inv} on object {obj}"
                )
            }
            ExplorerError::NoPortAssigned { process, obj } => {
                write!(f, "process {process} has no port on object {obj}")
            }
            ExplorerError::Exhausted(e) => write!(f, "{e}"),
            ExplorerError::NotWaitFree => {
                write!(
                    f,
                    "system admits an infinite execution; access bounds are undefined"
                )
            }
            ExplorerError::Cancelled { .. } => {
                write!(f, "exploration cancelled before completion")
            }
        }
    }
}

impl Error for ExplorerError {}

impl From<ProgramError> for ExplorerError {
    fn from(source: ProgramError) -> Self {
        ExplorerError::Program {
            process: usize::MAX,
            source,
        }
    }
}

impl From<wfc_spec::control::Exhausted> for ExplorerError {
    fn from(e: wfc_spec::control::Exhausted) -> Self {
        ExplorerError::Exhausted(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_and_compose() {
        let e = ExplorerError::Program {
            process: 2,
            source: ProgramError::DivisionByZero,
        };
        assert!(e.to_string().contains("process 2"));
        let e: ExplorerError = ProgramError::UnboundLabel.into();
        assert!(matches!(e, ExplorerError::Program { .. }));
    }

    #[test]
    fn budget_errors_render_both_budget_and_observed() {
        use wfc_spec::control::{Exhausted, Progress, Resource};
        let e = ExplorerError::Exhausted(Exhausted {
            resource: Resource::Configs,
            budget: 100,
            used: 135,
            progress: Progress::default(),
        });
        assert_eq!(
            e.to_string(),
            "exploration exceeded the budget of 100 configurations (observed 135)"
        );
        let e = ExplorerError::Exhausted(Exhausted {
            resource: Resource::Depth,
            budget: 4,
            used: 5,
            progress: Progress::default(),
        });
        assert_eq!(
            e.to_string(),
            "exploration exceeded the budget of 4 depth levels (observed 5)"
        );
    }
}

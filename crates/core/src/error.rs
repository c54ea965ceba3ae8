//! The unified error type threaded through the serving API.
//!
//! Library paths never panic on bad input: dataset/table parsing surfaces
//! [`DataError`], job scheduling surfaces [`JobError`] (cancellation,
//! contained panics), and configuration mistakes (a fit below the engine's
//! mined minsup, a candidate-class mismatch) surface [`Error::Config`] —
//! all under one `twoview::Error` so applications write one `?` chain
//! from engine construction to table I/O to the CLI.

use std::fmt;

use twoview_data::error::DataError;
use twoview_runtime::JobError;

use crate::persist::SnapshotError;

/// Any error produced by the `twoview` library surface.
#[derive(Debug)]
pub enum Error {
    /// Dataset construction / parsing / I/O failed.
    Data(DataError),
    /// A job failed to produce a value (cancelled, or its body panicked).
    Job(JobError),
    /// A configuration value or combination was invalid.
    Config(String),
    /// A snapshot could not be written, or an explicitly requested
    /// snapshot load failed. (The builder's opportunistic warm-start
    /// path never surfaces this — it counts the rejection and re-mines.)
    Snapshot(SnapshotError),
    /// A table could not be written: the rules format cannot carry one
    /// of its item names, which would not read back as itself.
    RuleName {
        /// The item name.
        name: String,
        /// What in the name the format cannot carry.
        reason: &'static str,
    },
}

impl Error {
    /// Convenience constructor for configuration errors.
    pub fn config(msg: impl Into<String>) -> Error {
        Error::Config(msg.into())
    }

    /// Whether this is a cooperative-cancellation outcome (not a fault).
    pub fn is_cancelled(&self) -> bool {
        matches!(self, Error::Job(JobError::Cancelled))
    }

    /// Whether a [`twoview_runtime::Deadline`] expired (queued or
    /// running). Like cancellation, an expected serving outcome.
    pub fn is_deadline_exceeded(&self) -> bool {
        matches!(self, Error::Job(JobError::DeadlineExceeded))
    }

    /// Whether admission control turned the job away (the signal a
    /// serving front door maps to HTTP 429).
    pub fn is_rejected(&self) -> bool {
        matches!(self, Error::Job(JobError::Rejected))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Data(e) => write!(f, "{e}"),
            Error::Job(e) => write!(f, "{e}"),
            Error::Config(m) => write!(f, "config error: {m}"),
            Error::Snapshot(e) => write!(f, "{e}"),
            Error::RuleName { name, reason } => {
                write!(
                    f,
                    "item name {name:?} cannot be written to a rules file: {reason}"
                )
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Data(e) => Some(e),
            Error::Job(e) => Some(e),
            Error::Config(_) | Error::RuleName { .. } => None,
            Error::Snapshot(e) => Some(e),
        }
    }
}

impl From<DataError> for Error {
    fn from(e: DataError) -> Self {
        Error::Data(e)
    }
}

impl From<JobError> for Error {
    fn from(e: JobError) -> Self {
        Error::Job(e)
    }
}

impl From<SnapshotError> for Error {
    fn from(e: SnapshotError) -> Self {
        Error::Snapshot(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Data(DataError::Io(e))
    }
}

impl From<String> for Error {
    fn from(m: String) -> Self {
        Error::Config(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = Error::from(DataError::Format("bad magic".into()));
        assert!(e.to_string().contains("bad magic"));
        assert!(std::error::Error::source(&e).is_some());

        let e = Error::from(JobError::Cancelled);
        assert!(e.is_cancelled());
        assert!(e.to_string().contains("cancelled"));

        let e = Error::from(JobError::DeadlineExceeded);
        assert!(e.is_deadline_exceeded() && !e.is_cancelled());
        assert!(e.to_string().contains("deadline"));

        let e = Error::from(JobError::Rejected);
        assert!(e.is_rejected());
        assert!(e.to_string().contains("rejected"));

        let e = Error::config("minsup below mined base");
        assert!(e.to_string().contains("minsup below mined base"));
        assert!(std::error::Error::source(&e).is_none());
        assert!(!e.is_cancelled());

        let e = Error::from(std::io::Error::other("disk gone"));
        assert!(e.to_string().contains("disk gone"));

        let e = Error::from(SnapshotError::BadMagic);
        assert!(e.to_string().contains("magic"));
        assert!(std::error::Error::source(&e).is_some());
    }
}

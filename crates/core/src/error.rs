//! Pipeline error type.

use std::fmt;

/// Result alias for pipeline operations.
pub type Result<T> = std::result::Result<T, CoreError>;

/// Errors surfaced by the end-to-end pipeline.
#[derive(Debug)]
pub enum CoreError {
    /// The document store failed.
    Store(nd_store::StoreError),
    /// Linear algebra failed (shape bugs surface here).
    Linalg(nd_linalg::LinalgError),
    /// A pipeline stage received an empty input it cannot work with.
    EmptyInput(&'static str),
    /// A pipeline stage produced no output (e.g. no events detected,
    /// no correlated pairs) where later stages require some.
    NoOutput(&'static str),
    /// The artifact cache or stage graph misbehaved (unknown stage
    /// name, unwritable cache directory, defective checkpoint, ...).
    /// Unreadable cached *stage* artifacts read as cache misses instead.
    Artifact(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Store(e) => write!(f, "store error: {e}"),
            CoreError::Linalg(e) => write!(f, "linear algebra error: {e}"),
            CoreError::EmptyInput(stage) => write!(f, "{stage}: empty input"),
            CoreError::NoOutput(stage) => write!(f, "{stage}: produced no output"),
            CoreError::Artifact(msg) => write!(f, "artifact cache error: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Store(e) => Some(e),
            CoreError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<nd_store::StoreError> for CoreError {
    fn from(e: nd_store::StoreError) -> Self {
        CoreError::Store(e)
    }
}

impl From<nd_linalg::LinalgError> for CoreError {
    fn from(e: nd_linalg::LinalgError) -> Self {
        CoreError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CoreError::EmptyInput("topic modeling");
        assert!(e.to_string().contains("topic modeling"));
        let e: CoreError = nd_store::StoreError::NotAnObject.into();
        assert!(std::error::Error::source(&e).is_some());
    }
}

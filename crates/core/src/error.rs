//! Error types for the core algorithms, and the shared wire-level
//! [`ErrorCode`] vocabulary every layer maps its errors onto.

use std::fmt;

/// The wire-level error vocabulary, shared by every layer.
///
/// The server protocol, the disk layer and the core algorithms each
/// have richer native error types; when an error crosses the process
/// boundary it is classified as one of these codes, and the string form
/// sent on the wire is defined here — in exactly one place — via
/// [`as_str`](ErrorCode::as_str).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request itself is malformed or invalid (bad JSON, bad
    /// parameters, a query violating index constraints).
    BadRequest,
    /// The server's admission queue or connection cap is full.
    Overloaded,
    /// The request's deadline expired before completion.
    DeadlineExceeded,
    /// The response would exceed the protocol's frame cap.
    ResultTooLarge,
    /// The server is draining for shutdown.
    ShuttingDown,
    /// The client asked for a protocol version this server does not
    /// speak.
    UnsupportedVersion,
    /// Anything else — an internal invariant failure or I/O error.
    Internal,
    /// A stored file failed its check and nothing could answer instead.
    /// A shard server never sends it for a query: a damaged index
    /// answers by sequential scan over the CRC-verified corpus.
    CorruptionDetected,
    /// The index belongs to a backend family this binary (or this
    /// request) does not support — an old binary opening a manifest
    /// written with a newer [`BackendKind`], or a request pinning a
    /// backend the serving index is not.
    UnsupportedBackend,
}

impl ErrorCode {
    /// The stable string sent on the wire for this code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::ResultTooLarge => "result_too_large",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::UnsupportedVersion => "unsupported_version",
            ErrorCode::Internal => "internal",
            ErrorCode::CorruptionDetected => "corruption_detected",
            ErrorCode::UnsupportedBackend => "unsupported_backend",
        }
    }

    /// Parses a wire string back into a code.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "bad_request" => ErrorCode::BadRequest,
            "overloaded" => ErrorCode::Overloaded,
            "deadline_exceeded" => ErrorCode::DeadlineExceeded,
            "result_too_large" => ErrorCode::ResultTooLarge,
            "shutting_down" => ErrorCode::ShuttingDown,
            "unsupported_version" => ErrorCode::UnsupportedVersion,
            "internal" => ErrorCode::Internal,
            "corruption_detected" => ErrorCode::CorruptionDetected,
            "unsupported_backend" => ErrorCode::UnsupportedBackend,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Errors raised while constructing alphabets or running searches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A categorization was requested with zero categories.
    ZeroCategories,
    /// A categorization was requested over an empty database.
    EmptyDatabase,
    /// A query sequence was empty.
    EmptyQuery,
    /// The distance threshold was negative or not finite.
    BadThreshold,
    /// A symbol outside the alphabet was encountered.
    UnknownSymbol(u32),
    /// The query contained a NaN or infinite value.
    NonFiniteQuery,
    /// The query exceeded a caller-imposed length cap (e.g. a serving
    /// limit protecting workers from quadratic-cost requests).
    QueryTooLong {
        /// The imposed cap.
        limit: usize,
        /// The offending query's length.
        got: usize,
    },
    /// k-NN parameters were invalid (`k = 0`, non-positive growth, …).
    BadKnnParams(&'static str),
    /// The search's answer-length bound exceeds a truncated index's
    /// stored depth (paper §8), or is missing entirely.
    DepthLimitExceeded {
        /// The index's stored depth limit.
        limit: u32,
        /// The search's effective maximum answer length, when bounded.
        requested: Option<u32>,
    },
    /// The request pinned a backend family
    /// ([`QueryRequest::backend`](crate::search::QueryRequest::backend))
    /// that does not match the index serving it.
    UnsupportedBackend {
        /// The family the request pinned (stable name).
        requested: &'static str,
        /// The family the index actually belongs to (stable name).
        actual: &'static str,
    },
    /// Mining was asked of an index that leaves suffixes out: a sparse
    /// one (paper §6.1) or one truncated at a depth (paper §8).
    PartialIndex {
        /// The index stores only the sparse suffix subset.
        sparse: bool,
        /// The truncated index's depth limit.
        depth_limit: Option<u32>,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::ZeroCategories => {
                write!(f, "categorization requires at least one category")
            }
            CoreError::EmptyDatabase => {
                write!(f, "cannot categorize an empty sequence database")
            }
            CoreError::EmptyQuery => write!(f, "query sequence is empty"),
            CoreError::BadThreshold => {
                write!(f, "distance threshold must be finite and non-negative")
            }
            CoreError::UnknownSymbol(s) => {
                write!(f, "symbol {s} is not part of the alphabet")
            }
            CoreError::NonFiniteQuery => {
                write!(f, "query values must be finite")
            }
            CoreError::QueryTooLong { limit, got } => {
                write!(f, "query length {got} exceeds the limit {limit}")
            }
            CoreError::BadKnnParams(why) => {
                write!(f, "invalid k-NN parameters: {why}")
            }
            CoreError::DepthLimitExceeded { limit, requested } => match requested {
                Some(r) => write!(
                    f,
                    "answer-length bound {r} exceeds the truncated index's depth limit {limit}"
                ),
                None => write!(
                    f,
                    "a truncated index (depth limit {limit}) requires a bounded answer length \
                     (window or length range)"
                ),
            },
            CoreError::UnsupportedBackend { requested, actual } => {
                write!(
                    f,
                    "request pinned the {requested} backend but the index is {actual}"
                )
            }
            CoreError::PartialIndex {
                sparse,
                depth_limit,
            } => {
                let what = match depth_limit {
                    Some(d) if !sparse => format!("truncated at depth {d}"),
                    _ => "sparse".to_string(),
                };
                write!(f, "mining needs every suffix, but the index is {what}")
            }
        }
    }
}

impl std::error::Error for CoreError {}

impl CoreError {
    /// The wire-level classification of this error. Backend mismatches
    /// and corruption get their dedicated codes so clients (and shard
    /// coordinators) can distinguish them from garden-variety bad
    /// requests; everything else reflects invalid caller input and maps
    /// to [`ErrorCode::BadRequest`].
    pub fn code(&self) -> ErrorCode {
        match self {
            CoreError::UnsupportedBackend { .. } => ErrorCode::UnsupportedBackend,
            _ => ErrorCode::BadRequest,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(CoreError::ZeroCategories.to_string().contains("category"));
        assert!(CoreError::EmptyDatabase.to_string().contains("empty"));
        assert!(CoreError::EmptyQuery.to_string().contains("query"));
        assert!(CoreError::BadThreshold.to_string().contains("threshold"));
        assert!(CoreError::UnknownSymbol(7).to_string().contains('7'));
        assert!(CoreError::NonFiniteQuery.to_string().contains("finite"));
        let long = CoreError::QueryTooLong { limit: 16, got: 99 };
        assert!(long.to_string().contains("99") && long.to_string().contains("16"));
        assert!(CoreError::BadKnnParams("k must be positive")
            .to_string()
            .contains("k must be positive"));
        // These two go out on the wire verbatim: pinned whole.
        let e = CoreError::DepthLimitExceeded {
            limit: 4,
            requested: Some(9),
        };
        assert_eq!(
            e.to_string(),
            "answer-length bound 9 exceeds the truncated index's depth limit 4"
        );
        let e2 = CoreError::DepthLimitExceeded {
            limit: 4,
            requested: None,
        };
        assert_eq!(
            e2.to_string(),
            "a truncated index (depth limit 4) requires a bounded answer length \
             (window or length range)"
        );
        let sparse = CoreError::PartialIndex {
            sparse: true,
            depth_limit: None,
        };
        assert_eq!(
            sparse.to_string(),
            "mining needs every suffix, but the index is sparse"
        );
        let truncated = CoreError::PartialIndex {
            sparse: false,
            depth_limit: Some(6),
        };
        assert!(truncated.to_string().ends_with("truncated at depth 6"));
    }

    #[test]
    fn error_codes_round_trip_their_wire_strings() {
        let all = [
            ErrorCode::BadRequest,
            ErrorCode::Overloaded,
            ErrorCode::DeadlineExceeded,
            ErrorCode::ResultTooLarge,
            ErrorCode::ShuttingDown,
            ErrorCode::UnsupportedVersion,
            ErrorCode::Internal,
            ErrorCode::CorruptionDetected,
            ErrorCode::UnsupportedBackend,
        ];
        for code in all {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
            assert_eq!(code.to_string(), code.as_str());
        }
        assert_eq!(ErrorCode::parse("no_such_code"), None);
        // Core errors are the caller's fault, except backend pins.
        assert_eq!(CoreError::EmptyQuery.code(), ErrorCode::BadRequest);
        let pin = CoreError::UnsupportedBackend {
            requested: "esa",
            actual: "tree",
        };
        assert_eq!(pin.code(), ErrorCode::UnsupportedBackend);
        assert!(pin.to_string().contains("esa") && pin.to_string().contains("tree"));
    }
}

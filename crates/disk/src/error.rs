//! Error type for the disk layer.

use std::fmt;

/// Errors raised by the paged storage and tree file formats.
#[derive(Debug)]
pub enum DiskError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A page failed its CRC check.
    CorruptPage {
        /// Index of the bad page.
        page: u64,
    },
    /// The file is not a warptree file or has an unsupported version.
    BadHeader(String),
    /// A structurally invalid record was encountered.
    BadRecord(String),
    /// The directory's `MANIFEST` file is unreadable, of an unsupported
    /// version, or references files that do not exist.
    BadManifest(String),
    /// The path does not hold a committed index directory (it has no
    /// `MANIFEST`).
    NotAnIndexDir(String),
    /// A page of a known file of an index directory failed its CRC
    /// check: [`CorruptPage`](DiskError::CorruptPage) with the file
    /// named, as an open reports it.
    CorruptionDetected {
        /// Name of the corrupt file inside its directory.
        file: String,
        /// Index of the bad page inside that file.
        page: u64,
    },
    /// The directory (or file) is committed under an index backend this
    /// code path cannot serve — e.g. an older tree-only binary opening
    /// a manifest that records the `esa` backend, or a backend id this
    /// build does not know.
    UnsupportedBackend {
        /// What the manifest or file header recorded.
        found: String,
    },
}

impl fmt::Display for DiskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskError::Io(e) => write!(f, "i/o error: {e}"),
            DiskError::CorruptPage { page } => {
                write!(f, "page {page} failed its CRC check")
            }
            DiskError::BadHeader(m) => write!(f, "bad file header: {m}"),
            DiskError::BadRecord(m) => write!(f, "bad record: {m}"),
            DiskError::BadManifest(m) => write!(f, "bad manifest: {m}"),
            DiskError::NotAnIndexDir(m) => {
                write!(f, "not an index directory: {m}")
            }
            DiskError::CorruptionDetected { file, page } => {
                write!(f, "corruption detected in {file} (page {page})")
            }
            DiskError::UnsupportedBackend { found } => {
                write!(
                    f,
                    "unsupported index backend {found}: this code path only \
                     serves indexes it was built to read"
                )
            }
        }
    }
}

impl DiskError {
    /// Names the file at `path` in a failed page check, turning
    /// [`CorruptPage`](DiskError::CorruptPage) into
    /// [`CorruptionDetected`](DiskError::CorruptionDetected); any other
    /// error comes back as it was.
    pub(crate) fn in_file(self, path: &std::path::Path) -> DiskError {
        let DiskError::CorruptPage { page } = self else {
            return self;
        };
        let file = path.file_name().unwrap_or_default().to_string_lossy();
        let file = file.into_owned();
        DiskError::CorruptionDetected { file, page }
    }
}

impl std::error::Error for DiskError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DiskError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DiskError {
    fn from(e: std::io::Error) -> Self {
        DiskError::Io(e)
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, DiskError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(DiskError::CorruptPage { page: 3 }
            .to_string()
            .contains("page 3"));
        assert!(DiskError::BadHeader("x".into()).to_string().contains("x"));
        let io: DiskError = std::io::Error::other("boom").into();
        assert!(io.to_string().contains("boom"));
        let c = DiskError::CorruptPage { page: 7 }.in_file("dir/segment-000003-00.wt".as_ref());
        assert_eq!(
            c.to_string(),
            "corruption detected in segment-000003-00.wt (page 7)"
        );
        assert!(matches!(
            DiskError::BadHeader("x".into()).in_file("dir/f.wt".as_ref()),
            DiskError::BadHeader(_)
        ));
        let b = DiskError::UnsupportedBackend {
            found: "esa".into(),
        };
        assert!(b.to_string().contains("esa"));
    }
}

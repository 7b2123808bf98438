//! Plain-text sequence I/O: one sequence per line, comma-separated
//! values, optionally prefixed by a name token (`AAPL, 30.1, 30.5, …`).
//! Lets users run the index over their own data (stock exports, ECG
//! dumps, …) without writing code.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use warptree_core::sequence::{Sequence, SequenceStore};

/// Loads a CSV-ish file: one sequence per line, values separated by
/// commas (whitespace tolerated); empty lines and `#` comments skipped.
pub fn load_csv(path: &Path) -> std::io::Result<SequenceStore> {
    let file = std::fs::File::open(path)?;
    let mut reader = BufReader::new(file);
    let mut store = SequenceStore::new();
    let mut line = String::new();
    let mut lineno = 0usize;
    while reader.read_line(&mut line)? != 0 {
        lineno += 1;
        let trimmed = line.trim();
        if !trimmed.is_empty() && !trimmed.starts_with('#') {
            let mut values = Vec::new();
            let mut name: Option<String> = None;
            for (i, tok) in trimmed.split(',').enumerate() {
                let tok = tok.trim();
                if tok.is_empty() {
                    continue;
                }
                match tok.parse::<f64>() {
                    Ok(v) if v.is_finite() => values.push(v),
                    Ok(_) => {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            format!("line {lineno}: non-finite value"),
                        ))
                    }
                    // A non-numeric FIRST token names the sequence.
                    Err(_) if i == 0 => name = Some(tok.to_string()),
                    Err(e) => {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            format!("line {lineno}: bad value {tok:?}: {e}"),
                        ))
                    }
                }
            }
            if !values.is_empty() {
                match name {
                    Some(n) => store.push_named(Sequence::new(values), n),
                    None => store.push(Sequence::new(values)),
                };
            }
        }
        line.clear();
    }
    Ok(store)
}

/// Writes a store in the [`load_csv`] format.
pub fn save_csv(store: &SequenceStore, path: &Path) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut w = BufWriter::new(file);
    for (id, s) in store.iter() {
        let mut first = true;
        if let Some(name) = store.name(id) {
            write!(w, "{name}")?;
            first = false;
        }
        for v in s.values() {
            if !first {
                write!(w, ",")?;
            }
            write!(w, "{v}")?;
            first = false;
        }
        writeln!(w)?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("warptree-io-{}-{}", std::process::id(), name))
    }

    #[test]
    fn roundtrip() {
        let store = SequenceStore::from_values(vec![vec![1.0, 2.5, -3.0], vec![7.125]]);
        let path = tmp("roundtrip.csv");
        save_csv(&store, &path).unwrap();
        let loaded = load_csv(&path).unwrap();
        assert_eq!(loaded.len(), 2);
        for (id, s) in store.iter() {
            assert_eq!(loaded.get(id).values(), s.values());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let path = tmp("comments.csv");
        std::fs::write(&path, "# header\n\n1, 2, 3\n\n# tail\n4,5\n").unwrap();
        let store = load_csv(&path).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(warptree_core::sequence::SeqId(0)).len(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn names_roundtrip() {
        let mut store = SequenceStore::new();
        store.push_named(Sequence::new(vec![1.0, 2.0]), "AAPL");
        store.push(Sequence::new(vec![3.0]));
        let path = tmp("names.csv");
        save_csv(&store, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(
            "AAPL,1,2
"
        ));
        let loaded = load_csv(&path).unwrap();
        use warptree_core::sequence::SeqId;
        assert_eq!(loaded.name(SeqId(0)), Some("AAPL"));
        assert_eq!(loaded.name(SeqId(1)), None);
        assert_eq!(loaded.get(SeqId(0)).values(), &[1.0, 2.0]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_garbage() {
        let path = tmp("garbage.csv");
        std::fs::write(&path, "1,banana,3\n").unwrap();
        let err = load_csv(&path).unwrap_err();
        assert!(err.to_string().contains("banana"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_non_finite() {
        let path = tmp("inf.csv");
        std::fs::write(&path, "1,inf,3\n").unwrap();
        assert!(load_csv(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}

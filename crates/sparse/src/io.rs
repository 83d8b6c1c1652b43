//! Matrix Market I/O.
//!
//! The paper evaluates on the SuiteSparse Matrix Collection, which is
//! distributed in Matrix Market (`.mtx`) format.  The collection itself is
//! not available offline, so the evaluation corpus is generated synthetically
//! by `bitgblas-datagen`; this module nevertheless implements the reader and
//! writer so that real SuiteSparse matrices can be dropped in when the files
//! are present.
//!
//! Supported features: `matrix coordinate` with `real`, `integer` or
//! `pattern` fields and `general` or `symmetric` symmetry.  This covers every
//! binary square matrix used in the paper.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

use crate::coo::Coo;
use crate::csr::Csr;
use crate::error::SparseError;

/// Value field of a Matrix Market file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MmField {
    Real,
    Integer,
    Pattern,
}

/// Symmetry of a Matrix Market file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MmSymmetry {
    General,
    Symmetric,
}

/// The most entries the size line may reserve room for before any entry has
/// been read; past it the triplet arrays grow as entries arrive.
const MAX_RESERVED_ENTRIES: usize = 1 << 20;

/// Read a Matrix Market stream into a COO matrix.
pub fn read_matrix_market<R: Read>(reader: R) -> Result<Coo, SparseError> {
    let mut lines = BufReader::new(reader).lines();

    // Header line.
    let header = lines
        .next()
        .ok_or_else(|| SparseError::Parse("empty file".into()))??;
    let header_lc = header.to_ascii_lowercase();
    let tokens: Vec<&str> = header_lc.split_whitespace().collect();
    if tokens.len() < 5 || tokens[0] != "%%matrixmarket" || tokens[1] != "matrix" {
        return Err(SparseError::Parse(format!(
            "bad MatrixMarket header: {header}"
        )));
    }
    if tokens[2] != "coordinate" {
        return Err(SparseError::Parse(
            "only coordinate (sparse) matrices are supported".into(),
        ));
    }
    let field = match tokens[3] {
        "real" => MmField::Real,
        "integer" => MmField::Integer,
        "pattern" => MmField::Pattern,
        other => {
            return Err(SparseError::Parse(format!(
                "unsupported field type: {other}"
            )))
        }
    };
    let symmetry = match tokens[4] {
        "general" => MmSymmetry::General,
        "symmetric" => MmSymmetry::Symmetric,
        other => return Err(SparseError::Parse(format!("unsupported symmetry: {other}"))),
    };

    // Size line (skipping comments / blank lines).
    let mut size_line = None;
    for line in &mut lines {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        size_line = Some(trimmed.to_string());
        break;
    }
    let size_line = size_line.ok_or_else(|| SparseError::Parse("missing size line".into()))?;
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| {
            t.parse()
                .map_err(|_| SparseError::Parse(format!("bad size token: {t}")))
        })
        .collect::<Result<_, _>>()?;
    if dims.len() != 3 {
        return Err(SparseError::Parse(format!(
            "size line must have 3 fields: {size_line}"
        )));
    }
    let (nrows, ncols, nnz) = (dims[0], dims[1], dims[2]);
    if nnz > nrows.saturating_mul(ncols) {
        return Err(SparseError::Parse(format!(
            "size line declares {nnz} entries for a {nrows} x {ncols} matrix"
        )));
    }

    let mut coo = Coo::with_capacity(nrows, ncols, nnz.min(MAX_RESERVED_ENTRIES));
    let mut seen = 0usize;
    for line in lines {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let r: usize = parts
            .next()
            .ok_or_else(|| SparseError::Parse(format!("missing row index: {trimmed}")))?
            .parse()
            .map_err(|_| SparseError::Parse(format!("bad row index: {trimmed}")))?;
        let c: usize = parts
            .next()
            .ok_or_else(|| SparseError::Parse(format!("missing column index: {trimmed}")))?
            .parse()
            .map_err(|_| SparseError::Parse(format!("bad column index: {trimmed}")))?;
        let v: f32 = match field {
            MmField::Pattern => 1.0,
            MmField::Real | MmField::Integer => parts
                .next()
                .ok_or_else(|| SparseError::Parse(format!("missing value: {trimmed}")))?
                .parse()
                .map_err(|_| SparseError::Parse(format!("bad value: {trimmed}")))?,
        };
        if r == 0 || c == 0 {
            return Err(SparseError::Parse(
                "MatrixMarket indices are 1-based".into(),
            ));
        }
        coo.push(r - 1, c - 1, v)?;
        if symmetry == MmSymmetry::Symmetric && r != c {
            coo.push(c - 1, r - 1, v)?;
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(SparseError::Parse(format!(
            "header declares {nnz} entries but {seen} were found"
        )));
    }
    Ok(coo)
}

/// Read a Matrix Market file from disk into a COO matrix.
pub fn read_matrix_market_file<P: AsRef<Path>>(path: P) -> Result<Coo, SparseError> {
    let file = std::fs::File::open(path)?;
    read_matrix_market(file)
}

/// Read a Matrix Market file and return its binary CSR form (the view the
/// paper's pipeline starts from).
pub fn read_binary_csr<P: AsRef<Path>>(path: P) -> Result<Csr, SparseError> {
    Ok(read_matrix_market_file(path)?.to_binary_csr())
}

/// Write a CSR matrix as a `general real coordinate` Matrix Market stream.
pub fn write_matrix_market<W: Write>(writer: &mut W, csr: &Csr) -> Result<(), SparseError> {
    writeln!(writer, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(writer, "% written by bitgblas-sparse")?;
    writeln!(writer, "{} {} {}", csr.nrows(), csr.ncols(), csr.nnz())?;
    for (r, c, v) in csr.iter() {
        writeln!(writer, "{} {} {}", r + 1, c + 1, v)?;
    }
    Ok(())
}

/// Write a CSR matrix to a `.mtx` file on disk.
pub fn write_matrix_market_file<P: AsRef<Path>>(path: P, csr: &Csr) -> Result<(), SparseError> {
    let mut file = std::fs::File::create(path)?;
    write_matrix_market(&mut file, csr)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GENERAL: &str = "%%MatrixMarket matrix coordinate real general\n\
        % a comment\n\
        3 3 4\n\
        1 1 1.0\n\
        1 3 2.0\n\
        2 2 3.5\n\
        3 1 -1.0\n";

    const PATTERN_SYM: &str = "%%MatrixMarket matrix coordinate pattern symmetric\n\
        4 4 3\n\
        2 1\n\
        3 2\n\
        4 4\n";

    #[test]
    fn parse_general_real() {
        let coo = read_matrix_market(GENERAL.as_bytes()).unwrap();
        assert_eq!(coo.nrows(), 3);
        assert_eq!(coo.nnz(), 4);
        let csr = coo.to_csr();
        assert_eq!(csr.get(0, 0), Some(1.0));
        assert_eq!(csr.get(0, 2), Some(2.0));
        assert_eq!(csr.get(2, 0), Some(-1.0));
    }

    #[test]
    fn parse_pattern_symmetric_mirrors_entries() {
        let coo = read_matrix_market(PATTERN_SYM.as_bytes()).unwrap();
        let csr = coo.to_csr();
        // 2 off-diagonal entries mirrored + 1 diagonal = 5 stored entries.
        assert_eq!(csr.nnz(), 5);
        assert_eq!(csr.get(1, 0), Some(1.0));
        assert_eq!(csr.get(0, 1), Some(1.0));
        assert_eq!(csr.get(3, 3), Some(1.0));
        assert!(csr.is_binary());
    }

    #[test]
    fn roundtrip_through_writer() {
        let coo = read_matrix_market(GENERAL.as_bytes()).unwrap();
        let csr = coo.to_csr();
        let mut buf = Vec::new();
        write_matrix_market(&mut buf, &csr).unwrap();
        let reread = read_matrix_market(buf.as_slice()).unwrap().to_csr();
        assert_eq!(reread, csr);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(read_matrix_market("".as_bytes()).is_err());
        assert!(read_matrix_market(
            "%%MatrixMarket matrix array real general\n1 1\n1.0\n".as_bytes()
        )
        .is_err());
        assert!(read_matrix_market(
            "%%MatrixMarket matrix coordinate real general\n2 2\n".as_bytes()
        )
        .is_err());
        // 0-based index is invalid
        let bad = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n";
        assert!(read_matrix_market(bad.as_bytes()).is_err());
        // declared nnz mismatch
        let mismatch = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        assert!(read_matrix_market(mismatch.as_bytes()).is_err());
        // unsupported field
        let complex = "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1.0 0.0\n";
        assert!(read_matrix_market(complex.as_bytes()).is_err());
    }

    /// A size line is outside input: whatever it declares, the answer is a
    /// typed error — never a capacity-overflow panic or an allocation abort.
    #[test]
    fn hostile_size_lines_are_parse_errors() {
        for size_line in [
            "4 4 18446744073709551615",
            "4 4 1000000000000",
            "4 4 17",
            "99999999999999999999999 4 1",
        ] {
            let text =
                format!("%%MatrixMarket matrix coordinate pattern general\n{size_line}\n1 1\n");
            let got = read_matrix_market(text.as_bytes());
            assert!(
                matches!(got, Err(SparseError::Parse(_))),
                "{size_line}: {got:?}"
            );
        }
        // Huge dimensions with an honest count reserve nothing up front.
        let sparse = "%%MatrixMarket matrix coordinate pattern general\n\
            18446744073709551615 18446744073709551615 1\n7 9\n";
        assert_eq!(read_matrix_market(sparse.as_bytes()).unwrap().nnz(), 1);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir();
        let path = dir.join("bitgblas_io_test.mtx");
        let coo = read_matrix_market(GENERAL.as_bytes()).unwrap();
        let csr = coo.to_csr();
        write_matrix_market_file(&path, &csr).unwrap();
        let back = read_binary_csr(&path).unwrap();
        assert_eq!(back.nnz(), csr.nnz());
        assert!(back.is_binary());
        std::fs::remove_file(&path).ok();
    }
}

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
///
/// The body is checked as it streams: an entry past the count the size line
/// declares, or a token past the last field of an entry line (`1 1 1.0
/// junk`, a value on a `pattern` line), is a parse error at that line, so a
/// body longer than declared is never read to its end.  A `real` value
/// that Rust's `f32` parser accepts is kept as read, NaN and `±inf`
/// included.
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
        if seen == nnz {
            return Err(SparseError::Parse(format!(
                "header declares {nnz} entries but the body holds more: {trimmed}"
            )));
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
        if parts.next().is_some() {
            return Err(SparseError::Parse(format!(
                "tokens past the entry's last field: {trimmed}"
            )));
        }
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
    if seen < nnz {
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
/// paper's pipeline starts from).  Dimensions whose row pointer cannot be
/// allocated are an error, as every other hostile size line is.
pub fn read_binary_csr<P: AsRef<Path>>(path: P) -> Result<Csr, SparseError> {
    Ok(Csr::try_from_coo(&read_matrix_market_file(path)?)?.binarized())
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

    /// A reader that fails if asked for more bytes: what stands after the
    /// first line the parser must refuse.
    struct FailsIfRead;

    impl Read for FailsIfRead {
        fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("read past the refused line"))
        }
    }

    /// Entry lines are checked as they stream: a body longer than the size
    /// line declares is refused at its first surplus entry, before anything
    /// after it is read, and an entry line with a token past its field's
    /// last one is refused — all as `SparseError::Parse`.
    #[test]
    fn surplus_entries_and_trailing_tokens_are_parse_errors() {
        for text in [
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n2 2 1.0\n",
            "%%MatrixMarket matrix coordinate pattern general\n2 2 0\n% none\n1 1\n",
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0 junk\n",
            "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 2 3 4\n",
            "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n2 1 1.0\n",
        ] {
            let got = read_matrix_market(text.as_bytes().chain(FailsIfRead));
            assert!(
                matches!(got, Err(SparseError::Parse(_))),
                "{text:?}: {got:?}"
            );
        }
        // The count still binds from below, and an honest body ends cleanly.
        let short = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n";
        assert!(matches!(
            read_matrix_market(short.as_bytes()),
            Err(SparseError::Parse(_))
        ));
        let exact = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1\n% end\n";
        assert_eq!(read_matrix_market(exact.as_bytes()).unwrap().nnz(), 1);
    }

    /// What a `real` file with NaN or `±inf` values yields: the values as
    /// read, which the binary CSR view (`read_binary_csr`) keeps as edges —
    /// only an explicit zero is dropped.
    #[test]
    fn non_finite_real_values_are_kept_as_read() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 3 4\n\
            1 1 NaN\n1 2 inf\n2 3 -inf\n2 1 0.0\n";
        let csr = read_matrix_market(text.as_bytes()).unwrap().to_csr();
        assert!(csr.get(0, 0).unwrap().is_nan());
        assert_eq!(csr.get(0, 1), Some(f32::INFINITY));
        assert_eq!(csr.get(1, 2), Some(f32::NEG_INFINITY));
        let binary = csr.binarized();
        assert_eq!(binary.nnz(), 3);
        assert_eq!(
            [(0, 0), (0, 1), (1, 2), (1, 0)].map(|(r, c)| binary.get(r, c)),
            [Some(1.0), Some(1.0), Some(1.0), None]
        );
    }

    /// Dimensions the reader accepts but no row pointer can hold: the CSR
    /// conversion behind `read_binary_csr` answers with a typed error.
    #[test]
    fn unallocatable_dimensions_are_errors_through_read_binary_csr() {
        let path = std::env::temp_dir().join("bitgblas_io_huge_dims.mtx");
        for size_line in [
            "18446744073709551615 18446744073709551615 1",
            "1000000000000 4 1",
        ] {
            let text =
                format!("%%MatrixMarket matrix coordinate pattern general\n{size_line}\n1 1\n");
            std::fs::write(&path, text).unwrap();
            let got = read_binary_csr(&path);
            assert!(
                matches!(got, Err(SparseError::MalformedStructure(_))),
                "{size_line}: {got:?}"
            );
        }
        std::fs::remove_file(&path).ok();
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

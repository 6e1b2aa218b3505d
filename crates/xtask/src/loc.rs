//! `cargo xtask loc` — production code lines.
//!
//! Counts the lines of Rust source that hold code: not blank, not
//! comment-only (doc comments included), and outside `#[cfg(test)]`
//! regions and `#[test]` functions. It reads each file with qcplint's
//! own lexer and test-region scan, so it counts exactly the lines the
//! lint rules treat as production code.

use std::path::{Path, PathBuf};

use crate::collect_rs_files;
use crate::lexer::split_lines;
use crate::rules::compute_test_regions;

/// Non-blank, non-comment lines of `source` outside test regions.
pub fn code_lines(source: &str) -> usize {
    let lines = split_lines(source);
    let tests = compute_test_regions(&lines);
    lines
        .iter()
        .zip(tests)
        .filter(|(line, test)| !test && !line.is_code_blank())
        .count()
}

/// The `.rs` files `path` names: the file itself, or every `.rs` file
/// below a directory, in sorted order.
pub fn rs_files(path: &Path) -> std::io::Result<Vec<PathBuf>> {
    if !path.is_dir() {
        return Ok(vec![path.to_path_buf()]);
    }
    let files = collect_rs_files(path)?;
    Ok(files.into_iter().map(|rel| path.join(rel)).collect())
}

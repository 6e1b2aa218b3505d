//! Three code lines: a crate doc, a doc comment, a line comment, a blank
//! line and a test module are not code.

/// The answer.
pub fn answer() -> u32 {
    // The test module below checks it.

    42
}

#[cfg(test)]
mod tests {
    #[test]
    fn answer_is_42() {
        assert_eq!(super::answer(), 42);
    }
}

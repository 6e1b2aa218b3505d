//! Filename noise model.
//!
//! Real Gnutella replicas of one song rarely share byte-identical names:
//! the paper lists five spellings of "Aaron Neville – I Don't Know Much"
//! alone, and Zaharia et al. (the paper's ref \[13\]) measured ~20% of file
//! descriptions misspelt. The crawl generator applies three independent
//! noise channels per shared *copy*:
//!
//! * **case** noise — survives sanitization (Figure 2 merges it back);
//! * **punctuation** noise — survives sanitization;
//! * **misspelling** noise — does *not* survive sanitization, which is why
//!   the paper's sanitized unique-object count only drops from 8.1M to
//!   7.9M.

use qcp_util::rng::Pcg64;

/// Per-copy noise probabilities.
#[derive(Debug, Clone, Copy)]
pub struct NoiseModel {
    /// Probability the copy's name gets a capitalization variant.
    pub p_case: f64,
    /// Probability the copy's name gets a punctuation/separator variant.
    pub p_punct: f64,
    /// Probability the copy's name gets a character-level misspelling.
    pub p_misspell: f64,
}

impl Default for NoiseModel {
    fn default() -> Self {
        // Calibrated against the paper's copy-to-unique-name ratio: its
        // 12M copies collapse to 8.1M unique raw names and 7.9M sanitized
        // ones, so most replicas share a verbatim name and sanitization
        // recovers only a ~2.5% sliver. Heavy per-copy noise would shatter
        // replicas into singletons and overshoot Figure 1's 70.5% anchor.
        Self {
            p_case: 0.04,
            p_punct: 0.03,
            p_misspell: 0.05,
        }
    }
}

impl NoiseModel {
    /// A silent model (canonical names pass through untouched).
    pub fn none() -> Self {
        Self {
            p_case: 0.0,
            p_punct: 0.0,
            p_misspell: 0.0,
        }
    }

    /// Applies the model to a canonical name, returning the (possibly
    /// identical) shared-copy name.
    pub fn apply(&self, canonical: &str, rng: &mut Pcg64) -> String {
        let mut name = canonical.to_string();
        if rng.chance(self.p_misspell) {
            name = misspell(&name, rng);
        }
        if rng.chance(self.p_punct) {
            name = vary_punctuation(&name, rng);
        }
        if rng.chance(self.p_case) {
            name = vary_case(&name, rng);
        }
        name
    }
}

/// Capitalization variants: Title Case, UPPER, or First-letter-only.
fn vary_case(name: &str, rng: &mut Pcg64) -> String {
    match rng.below(3) {
        0 => name
            .split(' ')
            .map(|w| {
                let mut cs = w.chars();
                match cs.next() {
                    Some(first) => first.to_uppercase().chain(cs).collect::<String>(),
                    None => String::new(),
                }
            })
            .collect::<Vec<_>>()
            .join(" "),
        1 => name.to_uppercase(),
        _ => {
            let mut cs = name.chars();
            match cs.next() {
                Some(first) => first.to_uppercase().chain(cs).collect(),
                None => String::new(),
            }
        }
    }
}

/// Separator variants: " - " insertion, underscores, or dot separators.
fn vary_punctuation(name: &str, rng: &mut Pcg64) -> String {
    match rng.below(3) {
        0 => {
            // Insert " - " after the first word (artist-title style).
            match name.find(' ') {
                Some(pos) => format!("{} -{}", &name[..pos], &name[pos..]),
                None => name.to_string(),
            }
        }
        1 => name.replace(' ', "_"),
        _ => name.replace(' ', "."),
    }
}

/// Character-level misspelling: drop, duplicate, or swap one ASCII letter.
/// Operates on char boundaries so UTF-8 names stay valid.
fn misspell(name: &str, rng: &mut Pcg64) -> String {
    let chars: Vec<char> = name.chars().collect();
    let letter_positions: Vec<usize> = chars
        .iter()
        .enumerate()
        .filter(|(_, c)| c.is_alphanumeric())
        .map(|(i, _)| i)
        .collect();
    if letter_positions.is_empty() {
        return name.to_string();
    }
    let pos = letter_positions[rng.index(letter_positions.len())];
    let mut out = chars.clone();
    match rng.below(3) {
        0 => {
            // Drop.
            out.remove(pos);
        }
        1 => {
            // Duplicate.
            out.insert(pos, chars[pos]);
        }
        _ => {
            // Swap with the next letter, if any.
            if pos + 1 < out.len() && out[pos + 1].is_alphanumeric() {
                out.swap(pos, pos + 1);
            } else {
                out.insert(pos, chars[pos]);
            }
        }
    }
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_model_is_identity() {
        let m = NoiseModel::none();
        let mut rng = Pcg64::new(1);
        for _ in 0..50 {
            assert_eq!(
                m.apply("aaron neville know much", &mut rng),
                "aaron neville know much"
            );
        }
    }

    #[test]
    fn case_noise_survives_sanitization() {
        let mut rng = Pcg64::new(2);
        for _ in 0..100 {
            let v = vary_case("some song name", &mut rng);
            assert_eq!(v.to_lowercase(), "some song name");
        }
    }

    #[test]
    fn punct_noise_changes_separators_only() {
        let mut rng = Pcg64::new(3);
        for _ in 0..100 {
            let v = vary_punctuation("artist song title", &mut rng);
            let letters: String = v.chars().filter(|c| c.is_alphanumeric()).collect();
            assert_eq!(letters, "artistsongtitle");
        }
    }

    #[test]
    fn misspell_changes_letter_content() {
        let mut rng = Pcg64::new(4);
        let mut changed = 0;
        for _ in 0..100 {
            let v = misspell("madonna prayer", &mut rng);
            let norm: String = v.chars().filter(|c| c.is_alphanumeric()).collect();
            if norm != "madonnaprayer" {
                changed += 1;
            }
        }
        assert!(
            changed > 80,
            "misspelling almost always alters letters: {changed}"
        );
    }

    #[test]
    fn misspell_handles_unicode() {
        let mut rng = Pcg64::new(5);
        for _ in 0..200 {
            let v = misspell("björk jóga", &mut rng);
            assert!(v.is_char_boundary(v.len()));
            let _ = v.chars().count(); // valid UTF-8 iteration
        }
    }

    #[test]
    fn full_model_produces_mix_of_identical_and_variant_names() {
        let m = NoiseModel::default();
        let mut rng = Pcg64::new(6);
        let canonical = "stone light blue gold";
        let mut identical = 0;
        let n = 1000;
        for _ in 0..n {
            if m.apply(canonical, &mut rng) == canonical {
                identical += 1;
            }
        }
        // P(untouched) = (1-.05)(1-.03)(1-.04) ≈ 0.885.
        let frac = identical as f64 / n as f64;
        assert!((0.84..0.93).contains(&frac), "identical fraction {frac}");
    }

    #[test]
    fn empty_name_is_safe() {
        let m = NoiseModel::default();
        let mut rng = Pcg64::new(7);
        for _ in 0..20 {
            let _ = m.apply("", &mut rng);
        }
    }
}

//! Read-level classification of data blocks (§III-A, Fig. 6).

/// The read-level of a data block, as speculated by the predictor.
///
/// The paper's four measured categories plus `Neutral`, returned when the
/// history counter sits between the confident extremes (the paper treats
/// neutral blocks as read-intensive for placement purposes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReadLevel {
    /// Multiple updates expected — keep in SRAM to dodge the STT write
    /// penalty.
    Wm,
    /// Written once, read many times — the ideal STT-MRAM resident.
    Worm,
    /// Written once, read once — not worth caching at all; bypass to L2.
    Woro,
    /// No confident prediction; covers read-intensive blocks (few writes,
    /// many reads).
    #[default]
    Neutral,
}

impl ReadLevel {
    /// Whether blocks of this class should not be allocated in L1 at all.
    pub fn bypasses(self) -> bool {
        matches!(self, ReadLevel::Woro)
    }

    /// Compact encoding for storage in a tag entry's aux word.
    pub fn encode(self) -> u32 {
        match self {
            ReadLevel::Wm => 0,
            ReadLevel::Worm => 1,
            ReadLevel::Woro => 2,
            ReadLevel::Neutral => 3,
        }
    }

    /// Inverse of [`ReadLevel::encode`].
    ///
    /// # Panics
    ///
    /// Panics on codes greater than 3.
    pub fn decode(code: u32) -> Self {
        match code {
            0 => ReadLevel::Wm,
            1 => ReadLevel::Worm,
            2 => ReadLevel::Woro,
            3 => ReadLevel::Neutral,
            other => panic!("invalid ReadLevel code {other}"),
        }
    }
}

impl std::fmt::Display for ReadLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadLevel::Wm => f.write_str("WM"),
            ReadLevel::Worm => f.write_str("WORM"),
            ReadLevel::Woro => f.write_str("WORO"),
            ReadLevel::Neutral => f.write_str("neutral"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_roundtrip() {
        for level in [
            ReadLevel::Wm,
            ReadLevel::Worm,
            ReadLevel::Woro,
            ReadLevel::Neutral,
        ] {
            assert_eq!(ReadLevel::decode(level.encode()), level);
        }
    }

    #[test]
    fn placement_preferences() {
        assert!(ReadLevel::Woro.bypasses());
        assert!(!ReadLevel::Neutral.bypasses());
    }

    #[test]
    #[should_panic(expected = "invalid ReadLevel code")]
    fn bad_code_panics() {
        let _ = ReadLevel::decode(9);
    }
}

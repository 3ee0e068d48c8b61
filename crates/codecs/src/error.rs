//! The shared error taxonomy for fallible decoding.
//!
//! Every `try_decompress_*` entry point in this crate (and in `gpzip`, which
//! reuses the type) returns [`CodecError`]. The taxonomy is deliberately
//! small: compressed streams carry no internal structure worth reporting
//! beyond *where the trust broke* — the input ended early, a field held an
//! impossible value, or the caller asked for an operation the codec does not
//! define.

/// Why a compressed stream could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The stream ended before `count` values were decoded — either the slice
    /// was physically too short or a bit-level read ran past its end.
    Truncated {
        /// Codec that detected the truncation.
        codec: &'static str,
    },
    /// A decoded field held a value the format cannot produce (impossible
    /// length, out-of-range index, inconsistent counts).
    Corrupt {
        /// Codec that detected the corruption.
        codec: &'static str,
        /// Which invariant failed, for diagnostics.
        what: &'static str,
    },
    /// The requested operation does not exist for this codec (e.g. the 32-bit
    /// variants of Elf, PDE, and FPC, which the paper also omits).
    Unsupported {
        /// Codec the operation was requested on.
        codec: &'static str,
        /// The missing operation.
        what: &'static str,
    },
}

impl CodecError {
    /// Refuses a `count` that `bytes` cannot back when every value costs at
    /// least one bit: the truncation a zero-filling bit reader would only
    /// report after decoding (and storing) all `count` values. The XOR
    /// decoders call it first, so a count from an unauthenticated header
    /// costs no more memory or time than the bytes beside it.
    pub(crate) fn unless_backed(
        codec: &'static str,
        bytes: &[u8],
        count: usize,
    ) -> Result<(), CodecError> {
        if count > bytes.len().saturating_mul(8) {
            return Err(CodecError::Truncated { codec });
        }
        Ok(())
    }

    /// Name of the codec that produced the error.
    pub fn codec(&self) -> &'static str {
        match self {
            CodecError::Truncated { codec }
            | CodecError::Corrupt { codec, .. }
            | CodecError::Unsupported { codec, .. } => codec,
        }
    }
}

impl core::fmt::Display for CodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodecError::Truncated { codec } => {
                write!(f, "{codec}: compressed stream truncated")
            }
            CodecError::Corrupt { codec, what } => {
                write!(f, "{codec}: corrupt stream ({what})")
            }
            CodecError::Unsupported { codec, what } => {
                write!(f, "{codec}: unsupported operation ({what})")
            }
        }
    }
}

impl std::error::Error for CodecError {}

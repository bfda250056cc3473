//! A tiny stable hasher for structural fingerprints.
//!
//! Matrix topology fingerprints ([`crate::CsrMatrix::fingerprint`]), and in
//! the simulator cost-key hashes and launch-cache keys, need a hash that is
//! deterministic across runs and Rust versions — `std::hash::DefaultHasher`
//! guarantees neither. The mixer is FNV-1a lifted from octets to whole
//! 64-bit words (one xor-multiply per word instead of eight): key hashing
//! sits on the launch fast path, so per-byte hashing is measurable. The
//! word-level variant keeps FNV's stability and avalanche-by-multiplication
//! while costing an eighth of the multiplies.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a hasher over `u64` words.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint {
    state: u64,
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprint {
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Absorb one word with a single FNV-1a xor-multiply round.
    #[inline]
    pub fn write_u64(&mut self, word: u64) -> &mut Self {
        self.state ^= word;
        self.state = self.state.wrapping_mul(FNV_PRIME);
        self
    }

    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Hashing a cost key: each integer field is absorbed as one word (one
/// round, not eight byte rounds: key hashing runs once per block of a
/// profile launch), and any other byte run as its little-endian words.
impl std::hash::Hasher for Fingerprint {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            Fingerprint::write_u64(self, u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        Fingerprint::write_u64(self, i.into());
    }

    fn write_u32(&mut self, i: u32) {
        Fingerprint::write_u64(self, i.into());
    }

    fn write_u64(&mut self, i: u64) {
        Fingerprint::write_u64(self, i);
    }

    fn write_usize(&mut self, i: usize) {
        Fingerprint::write_u64(self, i as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash(words: &[u64]) -> u64 {
        let mut f = Fingerprint::new();
        for &w in words {
            f.write_u64(w);
        }
        f.finish()
    }

    #[test]
    fn deterministic_and_sensitive() {
        assert_eq!(hash(&[1, 2, 3]), hash(&[1, 2, 3]));
        assert_ne!(hash(&[1, 2, 3]), hash(&[3, 2, 1]));
        assert_ne!(hash(&[0]), hash(&[]));
        // Known FNV-1a property: empty input hashes to the offset basis.
        assert_eq!(Fingerprint::new().finish(), 0xcbf2_9ce4_8422_2325);
    }
}

//! Ternary instruction/data memories (TIM/TDM).
//!
//! The ART-9 core uses two synchronous single-port memories of 9-trit
//! words (paper §IV-B): the ternary instruction memory (TIM) and the
//! ternary data memory (TDM). A storing cell keeps one trit (three charge
//! levels, paper §V-A / [11]), so capacity accounting is in *trits* — the
//! unit of Fig. 5's memory-cell comparison.
//!
//! Addresses are 9-trit words interpreted as unsigned indices via the
//! paper's convention (§II-A): the *unsigned* ternary reading of the trit
//! pattern denotes indices, i.e. address trits are read as digits
//! {0,1,2} obtained from the balanced trits by the fixed recoding
//! −1 ↦ 2, 0 ↦ 0, +1 ↦ 1 on each trit. For the modest memory sizes of the
//! ART-9 prototype (256 words each, Table V) this simply means addresses
//! 0..size are the non-negative balanced values, and negative/oversized
//! addresses fault.

use crate::error::TernaryError;
use crate::word::Word9;

/// A word-addressed ternary memory holding 9-trit words.
///
/// Models the synchronous single-port TIM/TDM of the ART-9 core. Reads
/// and writes are bounds-checked; the cycle-level timing (one access per
/// cycle, synchronous read) is enforced by the pipeline model in
/// `art9-sim`, not here.
///
/// # Examples
///
/// ```
/// use ternary::{TernaryMemory, Word9};
///
/// let mut tdm = TernaryMemory::new(256);
/// tdm.write(5, Word9::from_i64(-42)?)?;
/// assert_eq!(tdm.read(5)?.to_i64(), -42);
/// assert!(tdm.read(256).is_err());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TernaryMemory {
    words: Vec<Word9>,
}

impl TernaryMemory {
    /// Creates a zero-initialized memory of `size` 9-trit words.
    pub fn new(size: usize) -> Self {
        Self {
            words: vec![Word9::ZERO; size],
        }
    }

    /// Creates a memory pre-loaded with `image`, zero-padded to `size`.
    ///
    /// # Panics
    ///
    /// Panics if `image.len() > size` — an image that does not fit its
    /// memory is a build configuration error, not a runtime condition.
    pub fn with_image(size: usize, image: &[Word9]) -> Self {
        assert!(
            image.len() <= size,
            "image of {} words does not fit a {size}-word memory",
            image.len()
        );
        let mut words = vec![Word9::ZERO; size];
        words[..image.len()].copy_from_slice(image);
        Self { words }
    }

    /// Number of words.
    #[inline]
    pub fn size(&self) -> usize {
        self.words.len()
    }

    /// Total storage in ternary cells (trits) — Fig. 5's unit.
    #[inline]
    pub fn cells(&self) -> usize {
        self.words.len() * 9
    }

    /// Reads the word at `address`.
    ///
    /// # Errors
    ///
    /// Returns [`TernaryError::AddressRange`] when `address >= size`.
    pub fn read(&self, address: usize) -> Result<Word9, TernaryError> {
        self.words
            .get(address)
            .copied()
            .ok_or(TernaryError::AddressRange {
                address: address as i64,
                size: self.words.len(),
            })
    }

    /// Writes `value` at `address`.
    ///
    /// # Errors
    ///
    /// Returns [`TernaryError::AddressRange`] when `address >= size`.
    pub fn write(&mut self, address: usize, value: Word9) -> Result<(), TernaryError> {
        let size = self.words.len();
        match self.words.get_mut(address) {
            Some(slot) => {
                *slot = value;
                Ok(())
            }
            None => Err(TernaryError::AddressRange {
                address: address as i64,
                size,
            }),
        }
    }

    /// The memory index an integer address names: the one range check
    /// behind every word-addressed access.
    ///
    /// # Errors
    ///
    /// Returns [`TernaryError::AddressRange`] for negative addresses or
    /// addresses at/above the memory size.
    ///
    /// # Examples
    ///
    /// ```
    /// use ternary::TernaryMemory;
    ///
    /// let tdm = TernaryMemory::new(256);
    /// assert_eq!(tdm.index_of(255)?, 255);
    /// assert!(tdm.index_of(256).is_err());
    /// assert!(tdm.index_of(-1).is_err());
    /// # Ok::<(), ternary::TernaryError>(())
    /// ```
    #[inline]
    pub fn index_of(&self, address: i64) -> Result<usize, TernaryError> {
        // A negative address reads as a huge unsigned one, so one
        // comparison covers both ends.
        if (address as u64) < self.words.len() as u64 {
            Ok(address as usize)
        } else {
            Err(TernaryError::AddressRange {
                address,
                size: self.words.len(),
            })
        }
    }

    /// Resolves a 9-trit word to a memory index ([`Self::index_of`] of
    /// its value).
    ///
    /// # Errors
    ///
    /// Returns [`TernaryError::AddressRange`] for negative values or
    /// values at/above the memory size.
    #[inline]
    pub fn resolve(&self, address: Word9) -> Result<usize, TernaryError> {
        self.index_of(address.to_i64())
    }

    /// Iterates over the stored words in address order.
    pub fn iter(&self) -> std::slice::Iter<'_, Word9> {
        self.words.iter()
    }
}

impl<'a> IntoIterator for &'a TernaryMemory {
    type Item = &'a Word9;
    type IntoIter = std::slice::Iter<'a, Word9>;

    fn into_iter(self) -> Self::IntoIter {
        self.words.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_zeroed() {
        let m = TernaryMemory::new(16);
        assert_eq!(m.size(), 16);
        assert!(m.iter().all(|w| w.is_zero()));
    }

    #[test]
    fn cells_counts_trits() {
        // 256-word memory = 2304 trits; two of them back Table V's RAM.
        assert_eq!(TernaryMemory::new(256).cells(), 2304);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = TernaryMemory::new(8);
        let v = Word9::from_i64(123).unwrap();
        m.write(3, v).unwrap();
        assert_eq!(m.read(3).unwrap(), v);
        assert_eq!(m.read(2).unwrap(), Word9::ZERO);
    }

    #[test]
    fn out_of_range_faults() {
        let mut m = TernaryMemory::new(4);
        assert!(m.read(4).is_err());
        assert!(m.write(4, Word9::ZERO).is_err());
        let neg = Word9::from_i64(-1).unwrap();
        assert!(m.resolve(neg).is_err());
    }

    #[test]
    fn with_image_loads_and_pads() {
        let img = [Word9::from_i64(1).unwrap(), Word9::from_i64(2).unwrap()];
        let m = TernaryMemory::with_image(4, &img);
        assert_eq!(m.read(0).unwrap().to_i64(), 1);
        assert_eq!(m.read(1).unwrap().to_i64(), 2);
        assert_eq!(m.read(2).unwrap().to_i64(), 0);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn with_image_rejects_oversize() {
        let img = vec![Word9::ZERO; 5];
        let _ = TernaryMemory::with_image(4, &img);
    }

    #[test]
    fn word_addressing() {
        let mut m = TernaryMemory::new(32);
        let addr = m.resolve(Word9::from_i64(7).unwrap()).unwrap();
        assert_eq!(addr, 7);
        m.write(addr, Word9::from_i64(-9).unwrap()).unwrap();
        assert_eq!(m.read(addr).unwrap().to_i64(), -9);
    }
}

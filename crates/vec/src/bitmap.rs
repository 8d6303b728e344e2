//! Validity bitmap: one bit per row, set = non-NULL.
//!
//! The bitmap is the NULL carrier for columnar data: a cleared bit means
//! the slot holds SQL `NULL`. Payload lanes under a cleared bit hold an
//! arbitrary placeholder and must never be interpreted.

/// A fixed-length bitmap over `len` rows, one `u64` word per 64 rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// A bitmap of `len` bits, all set (every row valid).
    pub fn all_valid(len: usize) -> Bitmap {
        let mut words = vec![u64::MAX; len.div_ceil(64)];
        if let Some(last) = words.last_mut() {
            let tail = len % 64;
            if tail != 0 {
                *last = (1u64 << tail) - 1;
            }
        }
        Bitmap { words, len }
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether bit `i` is set (row `i` is non-NULL).
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Set or clear bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize, valid: bool) {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % 64);
        if valid {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set_bits(b: &Bitmap) -> Vec<usize> {
        (0..b.len()).filter(|&i| b.get(i)).collect()
    }

    #[test]
    fn all_valid_sets_exactly_len_bits() {
        for len in [0usize, 1, 63, 64, 65, 130] {
            let b = Bitmap::all_valid(len);
            assert_eq!(b.len(), len);
            assert_eq!(set_bits(&b), (0..len).collect::<Vec<_>>(), "len {len}");
            assert_eq!(b.words.iter().map(|w| w.count_ones() as usize).sum::<usize>(), len);
        }
    }

    #[test]
    fn set_and_get_roundtrip_across_word_boundaries() {
        let mut b = Bitmap::all_valid(130);
        for i in 0..130 {
            b.set(i, false);
        }
        for i in [0usize, 63, 64, 65, 127, 128, 129] {
            b.set(i, true);
            assert!(b.get(i));
        }
        b.set(64, false);
        assert_eq!(set_bits(&b), [0, 63, 65, 127, 128, 129]);
    }

    #[test]
    fn empty_bitmap_is_empty() {
        assert!(Bitmap::all_valid(0).is_empty());
    }
}

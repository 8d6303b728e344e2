//! Validity bitmap: one bit per row, set = non-NULL.
//!
//! The bitmap is the NULL carrier for columnar data: a cleared bit means
//! the slot holds SQL `NULL` (a key the hash join never matches). Payload
//! lanes under a cleared bit hold an arbitrary placeholder and must never
//! be interpreted.

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

    /// A bitmap of `len` bits, all cleared (every row NULL).
    pub fn all_null(len: usize) -> Bitmap {
        Bitmap { words: vec![0; len.div_ceil(64)], len }
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

    /// Number of set bits (non-NULL rows).
    pub fn count_valid(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether every bit is clear — a NULL-only column.
    pub fn none_valid(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Whether every bit is set.
    pub fn all_set(&self) -> bool {
        self.count_valid() == self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_valid_sets_exactly_len_bits() {
        for len in [0usize, 1, 63, 64, 65, 130] {
            let b = Bitmap::all_valid(len);
            assert_eq!(b.len(), len);
            assert_eq!(b.count_valid(), len, "len {len}");
            assert!(b.all_set());
        }
    }

    #[test]
    fn all_null_has_no_valid_bits() {
        let b = Bitmap::all_null(100);
        assert_eq!(b.count_valid(), 0);
        assert!(b.none_valid());
        assert!(!b.get(0));
        assert!(!b.get(99));
    }

    #[test]
    fn set_and_get_roundtrip_across_word_boundaries() {
        let mut b = Bitmap::all_null(130);
        for i in [0usize, 63, 64, 65, 127, 128, 129] {
            b.set(i, true);
            assert!(b.get(i));
        }
        assert_eq!(b.count_valid(), 7);
        b.set(64, false);
        assert!(!b.get(64));
        assert_eq!(b.count_valid(), 6);
    }

    #[test]
    fn empty_bitmap_is_empty() {
        let b = Bitmap::all_valid(0);
        assert!(b.is_empty());
        assert_eq!(b.count_valid(), 0);
        assert!(b.none_valid() && b.all_set());
    }
}

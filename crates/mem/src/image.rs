/// A word-addressed functional memory image.
///
/// Holds the simulated system's entire address space as 32-bit words
/// (matching the paper's 32-bit datapath). Addresses are in **bytes** and
/// must be 4-byte aligned; `f32` values are stored bit-cast in the same
/// space as integers, so graph structure (`u32` row pointers and column
/// indices) and features (`f32`) coexist naturally.
///
/// A bump allocator ([`MemImage::alloc`]) hands out 64 B-aligned regions
/// so the runtime can lay out graph structure, features, weights and
/// outputs the way a real loader would.
///
/// # Example
///
/// ```
/// use gnna_mem::MemImage;
///
/// let mut img = MemImage::new();
/// let addr = img.alloc(4);
/// img.write_f32(addr, 1.5);
/// img.write_u32(addr + 4, 42);
/// assert_eq!(img.read_f32(addr), 1.5);
/// assert_eq!(img.read_u32(addr + 4), 42);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MemImage {
    words: Vec<u32>,
    bump: u64,
}

impl MemImage {
    /// Creates an empty image.
    pub fn new() -> Self {
        MemImage {
            words: Vec::new(),
            bump: 0,
        }
    }

    /// Total bytes currently backed.
    pub fn size_bytes(&self) -> u64 {
        self.words.len() as u64 * 4
    }

    /// Whether a `bytes`-long access at `addr` is word-aligned and lies
    /// inside the image (the accessors panic otherwise).
    pub fn contains(&self, addr: u64, bytes: u64) -> bool {
        addr.is_multiple_of(4)
            && addr
                .checked_add(bytes)
                .is_some_and(|end| end <= self.size_bytes())
    }

    /// Allocates `words` 32-bit words, 64 B-aligned, zero-initialised;
    /// returns the byte address.
    pub fn alloc(&mut self, words: usize) -> u64 {
        // Round the bump pointer up to a 64 B line.
        self.bump = self.bump.div_ceil(64) * 64;
        let addr = self.bump;
        self.bump += words as u64 * 4;
        let needed = (self.bump / 4) as usize;
        if self.words.len() < needed {
            self.words.resize(needed, 0);
        }
        addr
    }

    /// Allocates and fills a region with `u32` values; returns the byte
    /// address.
    pub fn alloc_u32(&mut self, values: &[u32]) -> u64 {
        let addr = self.alloc(values.len());
        for (i, &v) in values.iter().enumerate() {
            self.write_u32(addr + 4 * i as u64, v);
        }
        addr
    }

    /// Allocates and fills a region with `f32` values; returns the byte
    /// address.
    pub fn alloc_f32(&mut self, values: &[f32]) -> u64 {
        let addr = self.alloc(values.len());
        for (i, &v) in values.iter().enumerate() {
            self.write_f32(addr + 4 * i as u64, v);
        }
        addr
    }

    #[inline]
    fn word_index(&self, addr: u64) -> usize {
        assert!(addr.is_multiple_of(4), "unaligned word access at {addr:#x}");
        (addr / 4) as usize
    }

    /// Reads a `u32`.
    ///
    /// # Panics
    ///
    /// Panics on unaligned or out-of-range addresses.
    #[inline]
    pub fn read_u32(&self, addr: u64) -> u32 {
        let i = self.word_index(addr);
        assert!(i < self.words.len(), "read past end of memory at {addr:#x}");
        self.words[i]
    }

    /// Writes a `u32`.
    ///
    /// # Panics
    ///
    /// Panics on unaligned or out-of-range addresses.
    #[inline]
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        let i = self.word_index(addr);
        assert!(
            i < self.words.len(),
            "write past end of memory at {addr:#x}"
        );
        self.words[i] = value;
    }

    /// Reads an `f32` (bit-cast from the stored word).
    ///
    /// # Panics
    ///
    /// Panics on unaligned or out-of-range addresses.
    #[inline]
    pub fn read_f32(&self, addr: u64) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Writes an `f32` (bit-cast into the stored word).
    ///
    /// # Panics
    ///
    /// Panics on unaligned or out-of-range addresses.
    #[inline]
    pub fn write_f32(&mut self, addr: u64, value: f32) {
        self.write_u32(addr, value.to_bits());
    }

    /// Reads `n` consecutive words starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics on unaligned or out-of-range access.
    pub fn read_words(&self, addr: u64, n: usize) -> &[u32] {
        let i = self.word_index(addr);
        assert!(
            i + n <= self.words.len(),
            "read past end of memory at {addr:#x}+{n}"
        );
        &self.words[i..i + n]
    }

    /// Reads `n` consecutive `f32` values starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics on unaligned or out-of-range access.
    pub fn read_f32_slice(&self, addr: u64, n: usize) -> Vec<f32> {
        self.read_words(addr, n)
            .iter()
            .map(|&w| f32::from_bits(w))
            .collect()
    }

    /// Writes a slice of words starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics on unaligned or out-of-range access.
    pub fn write_words(&mut self, addr: u64, values: &[u32]) {
        let i = self.word_index(addr);
        assert!(
            i + values.len() <= self.words.len(),
            "write past end of memory at {addr:#x}+{}",
            values.len()
        );
        self.words[i..i + values.len()].copy_from_slice(values);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_line_aligned_and_zeroed() {
        let mut img = MemImage::new();
        let a = img.alloc(3);
        let b = img.alloc(1);
        assert_eq!(a % 64, 0);
        assert_eq!(b % 64, 0);
        assert_ne!(a, b);
        assert_eq!(img.read_u32(a), 0);
    }

    #[test]
    fn u32_f32_roundtrip() {
        let mut img = MemImage::new();
        let a = img.alloc(2);
        img.write_f32(a, -3.75);
        img.write_u32(a + 4, 0xdeadbeef);
        assert_eq!(img.read_f32(a), -3.75);
        assert_eq!(img.read_u32(a + 4), 0xdeadbeef);
    }

    #[test]
    fn bulk_alloc_helpers() {
        let mut img = MemImage::new();
        let a = img.alloc_u32(&[1, 2, 3]);
        let b = img.alloc_f32(&[0.5, 1.5]);
        assert_eq!(img.read_words(a, 3), &[1, 2, 3]);
        assert_eq!(img.read_f32_slice(b, 2), vec![0.5, 1.5]);
    }

    #[test]
    fn write_words_bulk() {
        let mut img = MemImage::new();
        let a = img.alloc(4);
        img.write_words(a + 4, &[7, 8]);
        assert_eq!(img.read_words(a, 4), &[0, 7, 8, 0]);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_access_panics() {
        let mut img = MemImage::new();
        let a = img.alloc(1);
        img.read_u32(a + 2);
    }

    #[test]
    #[should_panic(expected = "past end")]
    fn out_of_range_panics() {
        let img = MemImage::new();
        img.read_u32(64);
    }

    #[test]
    fn size_tracks_allocation() {
        let mut img = MemImage::new();
        assert_eq!(img.size_bytes(), 0);
        img.alloc(16);
        assert_eq!(img.size_bytes(), 64);
    }
}

//! Sparse byte-addressable memory.
//!
//! The load/store fast path of the emulator resolves every access through this
//! structure, so it is organised as a flat two-level page table instead of a
//! hash map: a sorted directory of *chunks* (binary-searched, one entry per
//! 4 MB region actually touched) pointing at dense arrays of lazily allocated
//! 4 KB pages.  A one-entry translation cache short-circuits the directory
//! search for the overwhelmingly common case of consecutive accesses hitting
//! the same page, and aligned multi-byte accesses that stay inside one page
//! are served with a single slice copy instead of per-byte lookups.

use std::cell::Cell;

const PAGE_BITS: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_BITS;
const PAGE_MASK: u64 = (PAGE_SIZE as u64) - 1;

/// Pages per chunk (second translation level): each chunk covers 4 MB.
const CHUNK_BITS: u32 = 10;
const CHUNK_PAGES: usize = 1 << CHUNK_BITS;
const CHUNK_MASK: u64 = (CHUNK_PAGES as u64) - 1;

type Page = Box<[u8; PAGE_SIZE]>;

/// One 4 MB region of the address space: a dense array of optional pages.
#[derive(Debug, Clone)]
struct Chunk {
    /// Chunk index: `page_index >> CHUNK_BITS`.
    index: u64,
    pages: Box<[Option<Page>]>,
}

impl Chunk {
    fn new(index: u64) -> Self {
        Chunk {
            index,
            pages: vec![None; CHUNK_PAGES].into_boxed_slice(),
        }
    }
}

/// A sparse, byte-addressable 64-bit memory.
///
/// Pages are allocated lazily on first touch; untouched memory reads as zero.
/// All multi-byte accesses are little-endian and may straddle page boundaries.
///
/// ```
/// use sdv_emu::SparseMemory;
///
/// let mut m = SparseMemory::new();
/// m.write_u64(0x1000, 0xdead_beef_cafe_f00d);
/// assert_eq!(m.read_u64(0x1000), 0xdead_beef_cafe_f00d);
/// assert_eq!(m.read_u32(0x1004), 0xdead_beef);
/// assert_eq!(m.read_u8(0x2000), 0, "untouched memory reads as zero");
/// ```
#[derive(Debug, Clone)]
pub struct SparseMemory {
    /// Chunk directory, sorted by chunk index.
    chunks: Vec<Chunk>,
    /// Last successful translation: `(chunk_index, position in chunks)`.
    /// Positions only grow stale on insertion, which revalidates the cache.
    last: Cell<(u64, usize)>,
    page_count: usize,
}

impl Default for SparseMemory {
    fn default() -> Self {
        SparseMemory {
            chunks: Vec::new(),
            last: Cell::new((u64::MAX, 0)),
            page_count: 0,
        }
    }
}

impl SparseMemory {
    /// Creates an empty memory.
    #[must_use]
    pub fn new() -> Self {
        SparseMemory::default()
    }

    /// Number of pages that have been touched.
    #[must_use]
    pub fn page_count(&self) -> usize {
        self.page_count
    }

    /// Position of the chunk for `chunk_index` in the directory, if present.
    /// Checks the translation cache before binary-searching.
    fn chunk_pos(&self, chunk_index: u64) -> Option<usize> {
        let (cached_index, cached_pos) = self.last.get();
        if cached_index == chunk_index {
            return Some(cached_pos);
        }
        let pos = self
            .chunks
            .binary_search_by_key(&chunk_index, |c| c.index)
            .ok()?;
        self.last.set((chunk_index, pos));
        Some(pos)
    }

    fn page(&self, addr: u64) -> Option<&[u8; PAGE_SIZE]> {
        let page_index = addr >> PAGE_BITS;
        let pos = self.chunk_pos(page_index >> CHUNK_BITS)?;
        self.chunks[pos].pages[(page_index & CHUNK_MASK) as usize].as_deref()
    }

    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        let page_index = addr >> PAGE_BITS;
        let chunk_index = page_index >> CHUNK_BITS;
        let pos = match self.chunk_pos(chunk_index) {
            Some(pos) => pos,
            None => {
                let pos = self
                    .chunks
                    .binary_search_by_key(&chunk_index, |c| c.index)
                    .unwrap_err();
                self.chunks.insert(pos, Chunk::new(chunk_index));
                self.last.set((chunk_index, pos));
                pos
            }
        };
        let slot = &mut self.chunks[pos].pages[(page_index & CHUNK_MASK) as usize];
        if slot.is_none() {
            *slot = Some(Box::new([0u8; PAGE_SIZE]));
            self.page_count += 1;
        }
        slot.as_deref_mut().expect("page allocated above")
    }

    /// Reads one byte.
    #[must_use]
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.page(addr)
            .map_or(0, |p| p[(addr & PAGE_MASK) as usize])
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.page_mut(addr)[(addr & PAGE_MASK) as usize] = value;
    }

    /// Reads `N` little-endian bytes starting at `addr`.
    fn read_bytes<const N: usize>(&self, addr: u64) -> [u8; N] {
        let mut out = [0u8; N];
        let offset = (addr & PAGE_MASK) as usize;
        if offset + N <= PAGE_SIZE {
            // Fast path: the whole access lives inside one page.
            if let Some(page) = self.page(addr) {
                out.copy_from_slice(&page[offset..offset + N]);
            }
            return out;
        }
        for (i, byte) in out.iter_mut().enumerate() {
            *byte = self.read_u8(addr.wrapping_add(i as u64));
        }
        out
    }

    /// Writes `N` little-endian bytes starting at `addr`.
    fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        let offset = (addr & PAGE_MASK) as usize;
        if offset + bytes.len() <= PAGE_SIZE {
            let page = self.page_mut(addr);
            page[offset..offset + bytes.len()].copy_from_slice(bytes);
            return;
        }
        for (i, &b) in bytes.iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u64), b);
        }
    }

    /// Reads a little-endian `u16`.
    #[must_use]
    pub fn read_u16(&self, addr: u64) -> u16 {
        u16::from_le_bytes(self.read_bytes(addr))
    }

    /// Writes a little-endian `u16`.
    pub fn write_u16(&mut self, addr: u64, value: u16) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Reads a little-endian `u32`.
    #[must_use]
    pub fn read_u32(&self, addr: u64) -> u32 {
        u32::from_le_bytes(self.read_bytes(addr))
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Reads a little-endian `u64`.
    #[must_use]
    pub fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read_bytes(addr))
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Reads an `f64` stored as its IEEE-754 bit pattern.
    #[must_use]
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Reads a value of `width` bytes (1, 2, 4 or 8), zero-extended to 64 bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not 1, 2, 4 or 8.
    #[must_use]
    pub fn read_uint(&self, addr: u64, width: u64) -> u64 {
        match width {
            1 => u64::from(self.read_u8(addr)),
            2 => u64::from(self.read_u16(addr)),
            4 => u64::from(self.read_u32(addr)),
            8 => self.read_u64(addr),
            _ => panic!("unsupported access width {width}"),
        }
    }

    /// Writes the low `width` bytes (1, 2, 4 or 8) of `value`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not 1, 2, 4 or 8.
    pub fn write_uint(&mut self, addr: u64, width: u64, value: u64) {
        match width {
            1 => self.write_u8(addr, value as u8),
            2 => self.write_u16(addr, value as u16),
            4 => self.write_u32(addr, value as u32),
            8 => self.write_u64(addr, value),
            _ => panic!("unsupported access width {width}"),
        }
    }

    /// Copies a byte slice into memory starting at `addr`.
    pub fn load_bytes(&mut self, addr: u64, bytes: &[u8]) {
        // Split on page boundaries so each page is resolved once.
        let mut addr = addr;
        let mut rest = bytes;
        while !rest.is_empty() {
            let offset = (addr & PAGE_MASK) as usize;
            let span = (PAGE_SIZE - offset).min(rest.len());
            let page = self.page_mut(addr);
            page[offset..offset + span].copy_from_slice(&rest[..span]);
            addr = addr.wrapping_add(span as u64);
            rest = &rest[span..];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialised() {
        let m = SparseMemory::new();
        assert_eq!(m.read_u64(0), 0);
        assert_eq!(m.read_u8(u64::MAX - 8), 0);
        assert_eq!(m.page_count(), 0);
    }

    #[test]
    fn read_write_round_trip_all_widths() {
        let mut m = SparseMemory::new();
        m.write_u8(10, 0xab);
        m.write_u16(20, 0xbeef);
        m.write_u32(30, 0xdead_beef);
        m.write_u64(40, 0x0123_4567_89ab_cdef);
        m.write_u64(50, (-1234.5678f64).to_bits());
        assert_eq!(m.read_u8(10), 0xab);
        assert_eq!(m.read_u16(20), 0xbeef);
        assert_eq!(m.read_u32(30), 0xdead_beef);
        assert_eq!(m.read_u64(40), 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_f64(50), -1234.5678);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = SparseMemory::new();
        m.write_u32(0x100, 0x0403_0201);
        assert_eq!(m.read_u8(0x100), 1);
        assert_eq!(m.read_u8(0x101), 2);
        assert_eq!(m.read_u8(0x102), 3);
        assert_eq!(m.read_u8(0x103), 4);
    }

    #[test]
    fn accesses_straddle_page_boundaries() {
        let mut m = SparseMemory::new();
        let addr = (1 << 12) - 3; // crosses into the second page
        m.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(m.page_count(), 2);
    }

    #[test]
    fn accesses_straddle_chunk_boundaries() {
        let mut m = SparseMemory::new();
        // Last page of chunk 0 into first page of chunk 1.
        let addr = (CHUNK_PAGES as u64) * (PAGE_SIZE as u64) - 4;
        m.write_u64(addr, 0xa1b2_c3d4_e5f6_0718);
        assert_eq!(m.read_u64(addr), 0xa1b2_c3d4_e5f6_0718);
        assert_eq!(m.page_count(), 2);
    }

    #[test]
    fn far_apart_regions_use_separate_chunks() {
        let mut m = SparseMemory::new();
        // Touch regions in non-sorted order to exercise directory insertion.
        m.write_u64(0x7000_0000_0000, 3);
        m.write_u64(0x1000, 1);
        m.write_u64(0x1_0000_0000, 2);
        assert_eq!(m.read_u64(0x1000), 1);
        assert_eq!(m.read_u64(0x1_0000_0000), 2);
        assert_eq!(m.read_u64(0x7000_0000_0000), 3);
        assert_eq!(m.page_count(), 3);
    }

    #[test]
    fn generic_width_accessors() {
        let mut m = SparseMemory::new();
        for width in [1u64, 2, 4, 8] {
            let value = 0xf0f0_f0f0_f0f0_f0f0u64;
            m.write_uint(width * 100, width, value);
            let mask = if width == 8 {
                u64::MAX
            } else {
                (1u64 << (8 * width)) - 1
            };
            assert_eq!(m.read_uint(width * 100, width), value & mask);
        }
    }

    #[test]
    #[should_panic(expected = "unsupported access width")]
    fn bad_width_panics() {
        let m = SparseMemory::new();
        let _ = m.read_uint(0, 3);
    }

    #[test]
    fn load_bytes_bulk() {
        let mut m = SparseMemory::new();
        let data: Vec<u8> = (0..=255).collect();
        m.load_bytes(0x5000, &data);
        for (i, &b) in data.iter().enumerate() {
            assert_eq!(m.read_u8(0x5000 + i as u64), b);
        }
    }

    #[test]
    fn load_bytes_across_pages() {
        let mut m = SparseMemory::new();
        let data: Vec<u8> = (0..PAGE_SIZE + 64).map(|i| (i % 251) as u8).collect();
        let base = (PAGE_SIZE as u64) - 32;
        m.load_bytes(base, &data);
        for (i, &b) in data.iter().enumerate() {
            assert_eq!(m.read_u8(base + i as u64), b, "byte {i}");
        }
        assert_eq!(m.page_count(), 3);
    }
}

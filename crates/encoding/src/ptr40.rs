//! 40-bit pointers (§3.3).
//!
//! The ternary CFP-tree stores pointers in 5 bytes, "sufficient to address
//! 1 TB of main memory". In this implementation a pointer is a byte offset
//! into the memory manager's arena. The field is stored big-endian so that
//! its *first* byte is the most significant one: the paper reserves a first
//! byte of `0xFF` to mark an embedded leaf node stored in place of the
//! pointer, and the memory manager guarantees it never hands out offsets
//! whose top byte is `0xFF` (offsets stay below 2^39 in practice).

/// Marker value of the first byte of a 5-byte field holding an embedded
/// leaf instead of a pointer.
pub const EMBED_MARKER: u8 = 0xFF;

/// Width of a stored pointer in bytes.
pub const PTR_BYTES: usize = 5;

/// Largest offset a [`Ptr40`] may carry without colliding with the
/// embedded-leaf marker (top byte must stay below `0xFF`).
pub const MAX_OFFSET: u64 = (0xFFu64 << 32) - 1;

/// A nullable 40-bit arena offset.
///
/// Offset 0 is the null pointer; the arena reserves it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Ptr40(u64);

impl Ptr40 {
    /// The null pointer.
    pub const NULL: Ptr40 = Ptr40(0);

    /// Wraps an arena offset.
    ///
    /// # Panics
    ///
    /// Panics if `offset` exceeds [`MAX_OFFSET`] (the arena would have to
    /// be ≥ 0xFF00000000 bytes ≈ 1020 GiB for that to happen).
    #[inline]
    pub fn new(offset: u64) -> Self {
        assert!(
            offset <= MAX_OFFSET,
            "arena offset {offset:#x} collides with the embedded-leaf marker"
        );
        Ptr40(offset)
    }

    /// The raw offset.
    #[inline]
    pub fn offset(self) -> u64 {
        self.0
    }

    /// Whether this is the null pointer.
    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    /// Writes the pointer as 5 big-endian bytes into `buf[..5]`.
    #[inline]
    pub fn write(self, buf: &mut [u8]) {
        write_raw40(buf, self.0);
    }

    /// Reads a pointer from 5 big-endian bytes.
    ///
    /// The caller must have checked that `buf[0] != EMBED_MARKER` (an
    /// embedded leaf is not a pointer); debug builds assert it.
    #[inline]
    pub fn read(buf: &[u8]) -> Self {
        debug_assert_ne!(buf[0], EMBED_MARKER, "embedded leaf read as pointer");
        Ptr40(read_raw40(buf))
    }
}

/// Writes `v` (must fit in 40 bits) as 5 big-endian bytes.
#[inline]
pub fn write_raw40(buf: &mut [u8], v: u64) {
    debug_assert!(v < 1u64 << 40);
    buf[0] = (v >> 32) as u8;
    buf[1] = (v >> 24) as u8;
    buf[2] = (v >> 16) as u8;
    buf[3] = (v >> 8) as u8;
    buf[4] = v as u8;
}

/// Reads 5 big-endian bytes as a u64.
#[inline]
pub fn read_raw40(buf: &[u8]) -> u64 {
    ((buf[0] as u64) << 32)
        | ((buf[1] as u64) << 24)
        | ((buf[2] as u64) << 16)
        | ((buf[3] as u64) << 8)
        | (buf[4] as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_round_trips_as_zero_bytes() {
        let mut buf = [0xAAu8; 5];
        Ptr40::NULL.write(&mut buf);
        assert_eq!(buf, [0; 5]);
        assert!(Ptr40::read(&buf).is_null());
    }

    #[test]
    fn five_byte_big_endian_layout() {
        let p = Ptr40::new(0x01_2345_6789);
        let mut buf = [0u8; 5];
        p.write(&mut buf);
        assert_eq!(buf, [0x01, 0x23, 0x45, 0x67, 0x89]);
        assert_eq!(Ptr40::read(&buf).offset(), 0x01_2345_6789);
    }

    #[test]
    fn max_offset_has_non_marker_top_byte() {
        let p = Ptr40::new(MAX_OFFSET);
        let mut buf = [0u8; 5];
        p.write(&mut buf);
        assert_eq!(buf[0], 0xFE);
    }

    #[test]
    #[should_panic(expected = "collides")]
    fn offsets_in_marker_range_rejected() {
        let _ = Ptr40::new(MAX_OFFSET + 1);
    }
}

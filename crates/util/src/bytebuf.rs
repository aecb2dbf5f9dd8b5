//! A growable little-endian byte writer.
//!
//! The wire encoders of the trace crate (corpus chunks and prologue,
//! session `RECORDS` payloads) append primitive values to a growable
//! buffer; [`ByteBuf`] provides that on top of `Vec<u8>`, nothing more.
//! Decoding needs no counterpart here: the trace crate parses records
//! from byte slices with its own wire cursor, and reads stream headers
//! through `std::io::Read`.
//!
//! # Example
//!
//! ```
//! use ev8_util::bytebuf::ByteBuf;
//!
//! let mut b = ByteBuf::with_capacity(16);
//! b.put_u8(0xAB);
//! b.put_u16_le(0x1234);
//! b.put_slice(b"hey");
//! assert_eq!(b.as_slice(), &[0xAB, 0x34, 0x12, b'h', b'e', b'y']);
//! ```

/// A growable byte buffer with little-endian primitive appends.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ByteBuf {
    data: Vec<u8>,
}

impl ByteBuf {
    /// An empty buffer.
    pub const fn new() -> Self {
        ByteBuf { data: Vec::new() }
    }

    /// An empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        ByteBuf {
            data: Vec::with_capacity(cap),
        }
    }

    /// Appends one byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.data.push(v);
    }

    /// Appends a `u16` in little-endian order.
    #[inline]
    pub fn put_u16_le(&mut self, v: u16) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32` in little-endian order.
    #[inline]
    pub fn put_u32_le(&mut self, v: u32) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes.
    #[inline]
    pub fn put_slice(&mut self, s: &[u8]) {
        self.data.extend_from_slice(s);
    }

    /// Bytes written so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when nothing has been written (or after [`ByteBuf::clear`]).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Empties the buffer, keeping its allocation.
    #[inline]
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// The written bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }

    /// Consumes the buffer, returning the written bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.data
    }
}

impl AsRef<[u8]> for ByteBuf {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl std::ops::Deref for ByteBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn little_endian_layout_is_exact() {
        let mut b = ByteBuf::new();
        b.put_u8(1);
        b.put_u16_le(0x1234);
        b.put_u32_le(0x0405_0607);
        b.put_slice(&[0xAA, 0xBB]);
        assert_eq!(
            b.as_slice(),
            &[1, 0x34, 0x12, 0x07, 0x06, 0x05, 0x04, 0xAA, 0xBB]
        );
    }

    #[test]
    fn clear_keeps_capacity_semantics() {
        let mut b = ByteBuf::with_capacity(4);
        b.put_u32_le(7);
        assert!(!b.is_empty());
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn into_vec_roundtrip() {
        let mut b = ByteBuf::new();
        b.put_slice(b"abc");
        assert_eq!(b.clone().into_vec(), b"abc".to_vec());
        assert_eq!(b.as_ref(), b"abc");
    }
}

//! Canonical wire encoding.
//!
//! Signatures require a *deterministic* byte representation of every signed
//! structure (the same logical message must hash identically at signer and
//! verifier), so the reproduction uses this hand-rolled canonical codec
//! instead of a general serialization framework: fixed big-endian integers,
//! `u32` length prefixes, no padding, no optional fields on the wire.
//!
//! ```
//! use fd_simnet::codec::{Decode, Encode, Reader, Writer};
//!
//! let mut w = Writer::new();
//! 42u32.encode(&mut w);
//! b"hello".to_vec().encode(&mut w);
//! let bytes = w.into_bytes();
//!
//! let mut r = Reader::new(&bytes);
//! assert_eq!(u32::decode(&mut r).unwrap(), 42);
//! assert_eq!(Vec::<u8>::decode(&mut r).unwrap(), b"hello");
//! assert!(r.is_empty());
//! ```

use crate::NodeId;
use core::fmt;

/// Errors produced when decoding malformed wire bytes.
///
/// Protocol automata treat any decode error on a received payload as
/// evidence of failure (a correct node never sends malformed bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// Input ended before the value was complete.
    UnexpectedEnd,
    /// A length prefix exceeded the remaining input (or a sanity limit).
    BadLength,
    /// An enum tag byte was not recognized.
    BadTag(u8),
    /// Trailing bytes remained after a complete decode.
    TrailingBytes,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEnd => write!(f, "unexpected end of input"),
            CodecError::BadLength => write!(f, "length prefix out of bounds"),
            CodecError::BadTag(t) => write!(f, "unrecognized tag byte {t:#04x}"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after value"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Canonical encoder: append-only byte buffer.
#[derive(Debug, Default, Clone)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Fresh empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Fresh empty writer with room for `capacity` bytes, for callers
    /// that encode several values into one buffer of known size.
    pub fn with_capacity(capacity: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Current encoded length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing was written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finish, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a big-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a big-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a big-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append raw bytes *without* a length prefix (fixed-width fields).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append a `u32`-length-prefixed byte string.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u32(bytes.len() as u32);
        self.put_raw(bytes);
    }
}

/// Canonical decoder over a byte slice.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Start reading `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { rest: bytes }
    }

    /// Remaining unread byte count.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// `true` when fully consumed.
    pub fn is_empty(&self) -> bool {
        self.rest.is_empty()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.rest.len() < n {
            return Err(CodecError::UnexpectedEnd);
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a big-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, CodecError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    /// Read a big-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a big-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read exactly `n` raw bytes (fixed-width field).
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }

    /// Read a `u32`-length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.get_u32()? as usize;
        if len > self.rest.len() {
            return Err(CodecError::BadLength);
        }
        self.take(len)
    }
}

/// A value with a canonical byte encoding.
pub trait Encode {
    /// Append the canonical encoding of `self`.
    fn encode(&self, w: &mut Writer);

    /// Convenience: encode into a fresh buffer.
    fn encode_to_vec(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.into_bytes()
    }
}

/// A value decodable from its canonical encoding.
pub trait Decode: Sized {
    /// Decode one value, advancing the reader.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] when the input is malformed.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// Decode a value that must consume the entire input.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::TrailingBytes`] if input remains afterwards.
    fn decode_exact(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(bytes);
        let v = Self::decode(&mut r)?;
        if !r.is_empty() {
            return Err(CodecError::TrailingBytes);
        }
        Ok(v)
    }
}

impl Encode for u8 {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(*self);
    }
}
impl Decode for u8 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.get_u8()
    }
}
impl Encode for u16 {
    fn encode(&self, w: &mut Writer) {
        w.put_u16(*self);
    }
}
impl Decode for u16 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.get_u16()
    }
}
impl Encode for u32 {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(*self);
    }
}
impl Decode for u32 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.get_u32()
    }
}
impl Encode for u64 {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(*self);
    }
}
impl Decode for u64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.get_u64()
    }
}

impl Encode for Vec<u8> {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(self);
    }
}
impl Decode for Vec<u8> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(r.get_bytes()?.to_vec())
    }
}

impl Encode for NodeId {
    fn encode(&self, w: &mut Writer) {
        w.put_u16(self.0);
    }
}
impl Decode for NodeId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(NodeId(r.get_u16()?))
    }
}

/// Length-prefixed homogeneous sequences.
impl<T: Encode> Encode for [T] {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.len() as u32);
        for item in self {
            item.encode(w);
        }
    }
}

/// Generic sequence decoding helper (a blanket `Vec<T>` impl would conflict
/// with the `Vec<u8>` byte-string form above, so sequences encode via the
/// `[T]` impl and decode through this explicit function).
///
/// # Errors
///
/// Propagates element decode errors; rejects absurd length prefixes.
pub fn decode_seq<T: Decode>(r: &mut Reader<'_>) -> Result<Vec<T>, CodecError> {
    let len = r.get_u32()? as usize;
    // Each element costs at least one byte on the wire.
    if len > r.remaining() {
        return Err(CodecError::BadLength);
    }
    let mut out = Vec::with_capacity(len.min(4096));
    for _ in 0..len {
        out.push(T::decode(r)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trips() {
        let mut w = Writer::new();
        w.put_u8(1);
        w.put_u16(2);
        w.put_u32(3);
        w.put_u64(4);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 1 + 2 + 4 + 8);
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 1);
        assert_eq!(r.get_u16().unwrap(), 2);
        assert_eq!(r.get_u32().unwrap(), 3);
        assert_eq!(r.get_u64().unwrap(), 4);
        assert!(r.is_empty());
    }

    #[test]
    fn big_endian_on_wire() {
        let mut w = Writer::new();
        w.put_u32(0x0102_0304);
        assert_eq!(w.into_bytes(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn byte_strings_are_length_prefixed() {
        let mut w = Writer::new();
        w.put_bytes(b"ab");
        assert_eq!(w.into_bytes(), vec![0, 0, 0, 2, b'a', b'b']);
    }

    #[test]
    fn unexpected_end_errors() {
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(r.get_u32(), Err(CodecError::UnexpectedEnd));
    }

    #[test]
    fn bad_length_rejected() {
        // Claims 100 bytes, provides 1.
        let bytes = [0u8, 0, 0, 100, 7];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_bytes(), Err(CodecError::BadLength));
    }

    #[test]
    fn decode_exact_rejects_trailing() {
        let mut w = Writer::new();
        32u32.encode(&mut w);
        let mut bytes = w.into_bytes();
        bytes.push(0xff);
        assert_eq!(u32::decode_exact(&bytes), Err(CodecError::TrailingBytes));
    }

    #[test]
    fn node_id_round_trip() {
        let bytes = NodeId(300).encode_to_vec();
        assert_eq!(NodeId::decode_exact(&bytes).unwrap(), NodeId(300));
    }

    #[test]
    fn seq_round_trip() {
        let v: Vec<u32> = vec![5, 6, 7];
        let bytes = v.as_slice().encode_to_vec();
        let mut r = Reader::new(&bytes);
        assert_eq!(decode_seq::<u32>(&mut r).unwrap(), v);
    }

    #[test]
    fn seq_absurd_length_rejected() {
        let bytes = [0xffu8, 0xff, 0xff, 0xff];
        let mut r = Reader::new(&bytes);
        assert_eq!(decode_seq::<u32>(&mut r), Err(CodecError::BadLength));
    }

    #[test]
    fn error_display() {
        assert_eq!(
            CodecError::BadTag(0x2a).to_string(),
            "unrecognized tag byte 0x2a"
        );
    }
}

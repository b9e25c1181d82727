//! Cheaply clonable message payloads.
//!
//! Every hop of a simulated message used to deep-copy its bytes: broadcast
//! fan-out cloned the buffer per peer, `Duplicate`/rushing-preview branches
//! cloned per delivery, and the report path cloned once more. [`Payload`]
//! replaces `Vec<u8>` on [`crate::Envelope`] with a handle to a shared
//! buffer: cloning is a reference-count bump, and `Bytes`-style
//! [`Payload::slice`] shares the underlying buffer instead of copying.
//! The handle is 16 bytes (a thin pointer and a `u32` window), which keeps
//! an envelope, and a send record parked in an engine, at 24 bytes.
//!
//! Mutation (the `Corrupt` link fault) goes through [`Payload::make_mut`],
//! which is copy-on-write: a uniquely owned buffer is flipped in place,
//! a shared one is copied first so sibling deliveries of the same
//! broadcast never observe the corruption.
//!
//! Equality, ordering, and hashing are all by visible bytes, so two
//! payloads compare equal regardless of how their buffers are shared —
//! sharing is invisible to protocol logic and to every determinism
//! surface.

use crate::codec::{CodecError, Decode, Encode, Reader, Writer};
use core::fmt;
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// An immutable, cheaply clonable byte payload: a shared buffer plus a
/// window of at most `u32::MAX` bytes.
#[derive(Clone)]
pub struct Payload {
    buf: Arc<Vec<u8>>,
    off: u32,
    len: u32,
}

impl Payload {
    /// The empty payload.
    pub fn new() -> Self {
        Payload::from(&[][..])
    }

    /// The visible bytes.
    pub fn as_slice(&self) -> &[u8] {
        let off = self.off as usize;
        &self.buf[off..off + self.len()]
    }

    /// Length of the visible window.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` if the visible window is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A sub-window sharing the same buffer (no copy), `Bytes`-style.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the current window.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Payload {
        let start = match range.start_bound() {
            Bound::Included(&s) => s,
            Bound::Excluded(&s) => s + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&e) => e + 1,
            Bound::Excluded(&e) => e,
            Bound::Unbounded => self.len(),
        };
        assert!(
            start <= end && end <= self.len(),
            "slice {start}..{end} out of bounds for payload of {} bytes",
            self.len
        );
        // In bounds of a window that fits a `u32`, so the casts are exact.
        Payload {
            buf: Arc::clone(&self.buf),
            off: self.off + start as u32,
            len: (end - start) as u32,
        }
    }

    /// The `k`-th of back-to-back windows as long as this one, counting
    /// this one as the 0-th, on the same buffer (no copy). A scatter
    /// ([`crate::Outbox::scatter`]) hands each receiver one such window.
    ///
    /// # Panics
    ///
    /// Panics if that window runs past the end of the buffer.
    pub fn stride(&self, k: usize) -> Payload {
        Payload {
            buf: Arc::clone(&self.buf),
            off: self.stride_offset(k),
            len: self.len,
        }
    }

    /// Turn this handle, which shares `first`'s buffer, into
    /// `first.stride(k)` in place: no reference count changes hands.
    pub(crate) fn restride(&mut self, first: &Payload, k: usize) {
        debug_assert!(self.shares_buffer_with(first));
        self.off = first.stride_offset(k);
        self.len = first.len;
    }

    /// Offset of [`Payload::stride`]`(k)`, checked against the buffer.
    fn stride_offset(&self, k: usize) -> u32 {
        let end = k
            .checked_add(1)
            .and_then(|windows| windows.checked_mul(self.len()))
            .and_then(|span| span.checked_add(self.off as usize))
            .filter(|&end| end <= self.buf.len());
        let Some(end) = end else {
            panic!(
                "stride {k} of a {}-byte window at offset {} runs past a {}-byte buffer",
                self.len,
                self.off,
                self.buf.len()
            );
        };
        // At most the buffer's length, which fits a `u32`.
        (end - self.len()) as u32
    }

    /// Mutable access to the visible bytes, copy-on-write: a uniquely
    /// owned whole-buffer payload is mutated in place, anything shared (or
    /// windowed) is copied first so other handles keep the original bytes.
    pub fn make_mut(&mut self) -> &mut [u8] {
        let unique_whole =
            self.off == 0 && self.len() == self.buf.len() && Arc::get_mut(&mut self.buf).is_some();
        if !unique_whole {
            self.buf = Arc::new(self.as_slice().to_vec());
            self.off = 0;
        }
        Arc::get_mut(&mut self.buf).expect("uniquely owned after copy-on-write")
    }

    /// How many [`Payload`] handles share this buffer (diagnostics: the
    /// allocation-sharing tests assert fan-out stays one buffer).
    pub fn ref_count(&self) -> usize {
        Arc::strong_count(&self.buf)
    }

    /// Identity of the backing allocation and visible window, as raw
    /// `(buffer address, offset, length)` words.
    ///
    /// Two payloads with equal idents are guaranteed to expose the same
    /// bytes **while both handles are alive** — the address cannot be
    /// recycled under a live `Arc`. This is the cheap cohort-equality test
    /// behind batched verification: a broadcast hands the same buffer to
    /// `n − 1` receivers, so an ident match replaces an `O(len)` byte
    /// compare (or hash) with three word compares. The ident says nothing
    /// across allocations: equal *bytes* in different buffers get
    /// different idents, which is always safe (a cache keyed by ident
    /// re-verifies instead of sharing).
    pub fn ident(&self) -> (usize, usize, usize) {
        (
            Arc::as_ptr(&self.buf) as usize,
            self.off as usize,
            self.len(),
        )
    }

    /// Whether two payloads share the same underlying buffer (regardless
    /// of their windows).
    pub fn shares_buffer_with(&self, other: &Payload) -> bool {
        Arc::ptr_eq(&self.buf, &other.buf)
    }
}

impl Default for Payload {
    fn default() -> Self {
        Payload::new()
    }
}

impl Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Payload {
    /// Takes the buffer over without copying its bytes (spare capacity is
    /// released).
    ///
    /// # Panics
    ///
    /// Panics on more than `u32::MAX` bytes; no transport carries a
    /// message that large (mesh frames stop at 64 MiB).
    fn from(mut bytes: Vec<u8>) -> Self {
        let len = u32::try_from(bytes.len()).expect("a payload is at most u32::MAX bytes");
        bytes.shrink_to_fit();
        Payload {
            buf: Arc::new(bytes),
            off: 0,
            len,
        }
    }
}

impl From<&[u8]> for Payload {
    fn from(bytes: &[u8]) -> Self {
        Payload::from(bytes.to_vec())
    }
}

impl From<&Vec<u8>> for Payload {
    fn from(bytes: &Vec<u8>) -> Self {
        Payload::from(bytes.as_slice())
    }
}

impl<const N: usize> From<[u8; N]> for Payload {
    fn from(bytes: [u8; N]) -> Self {
        Payload::from(&bytes[..])
    }
}

impl<const N: usize> From<&[u8; N]> for Payload {
    fn from(bytes: &[u8; N]) -> Self {
        Payload::from(&bytes[..])
    }
}

impl FromIterator<u8> for Payload {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Payload::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Payload {}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}
impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl PartialEq<Payload> for Vec<u8> {
    fn eq(&self, other: &Payload) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl<const N: usize> PartialEq<[u8; N]> for Payload {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl PartialOrd for Payload {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Payload {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl core::hash::Hash for Payload {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let head: String = self
            .as_slice()
            .iter()
            .take(8)
            .map(|b| format!("{b:02x}"))
            .collect();
        let ellipsis = if self.len() > 8 { "…" } else { "" };
        write!(f, "Payload({head}{ellipsis}[{}B])", self.len)
    }
}

impl Encode for Payload {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(self.as_slice());
    }
}

impl Decode for Payload {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Payload::from(r.get_bytes()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_the_buffer() {
        let p = Payload::from(vec![1, 2, 3, 4]);
        let q = p.clone();
        assert!(p.shares_buffer_with(&q));
        assert_eq!(p.ref_count(), 2);
        assert_eq!(p, q);
    }

    #[test]
    fn slice_shares_and_windows() {
        let p = Payload::from(vec![0, 1, 2, 3, 4, 5]);
        let mid = p.slice(2..5);
        assert_eq!(mid.as_slice(), &[2, 3, 4]);
        assert!(mid.shares_buffer_with(&p));
        let tail = mid.slice(1..);
        assert_eq!(tail.as_slice(), &[3, 4]);
        assert_eq!(p.slice(..).as_slice(), p.as_slice());
        assert!(p.slice(3..3).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        let _ = Payload::from(vec![1, 2]).slice(0..3);
    }

    #[test]
    fn strides_walk_back_to_back_windows_within_the_buffer() {
        let p = Payload::from(vec![0, 1, 2, 3, 4, 5, 6]);
        let first = p.slice(1..3);
        assert_eq!(first.stride(0), first);
        assert_eq!(first.stride(1).as_slice(), &[3, 4]);
        assert_eq!(first.stride(2).as_slice(), &[5, 6]);
        assert!(first.stride(2).shares_buffer_with(&p));
        let mut slot = first.stride(2);
        slot.restride(&first, 1);
        assert_eq!(slot.ident(), first.stride(1).ident());
        // Empty windows stride in place.
        assert!(p.slice(7..7).stride(usize::MAX - 1).is_empty());
        for k in [3, usize::MAX] {
            let past = std::panic::catch_unwind(|| first.stride(k));
            assert!(past.is_err(), "stride {k} left the buffer");
        }
    }

    #[test]
    #[should_panic(expected = "runs past")]
    fn a_stride_past_the_buffer_panics() {
        let _ = Payload::from(vec![1, 2, 3]).slice(..2).stride(1);
    }

    #[test]
    fn make_mut_in_place_when_unique() {
        let mut p = Payload::from(vec![1, 2, 3]);
        p.make_mut()[1] = 9;
        assert_eq!(p.as_slice(), &[1, 9, 3]);
    }

    #[test]
    fn make_mut_copies_when_shared() {
        let mut p = Payload::from(vec![1, 2, 3]);
        let q = p.clone();
        p.make_mut()[0] = 7;
        assert_eq!(p.as_slice(), &[7, 2, 3]);
        assert_eq!(q.as_slice(), &[1, 2, 3], "sibling handle untouched");
        assert!(!p.shares_buffer_with(&q));
    }

    #[test]
    fn make_mut_narrows_windowed_payloads() {
        let base = Payload::from(vec![0, 1, 2, 3]);
        let mut window = base.slice(1..3);
        window.make_mut()[0] = 9;
        assert_eq!(window.as_slice(), &[9, 2]);
        assert_eq!(base.as_slice(), &[0, 1, 2, 3]);
    }

    #[test]
    fn equality_is_by_bytes_not_identity() {
        let a = Payload::from(vec![1, 2]);
        let b = Payload::from(vec![1, 2]);
        assert_eq!(a, b);
        assert!(!a.shares_buffer_with(&b));
        assert_eq!(a, vec![1, 2]);
        assert_eq!(vec![1, 2], a);
        assert_eq!(a, [1, 2]);
        assert_eq!(a, [1u8, 2][..]);
    }

    #[test]
    fn deref_gives_slice_methods() {
        let p = Payload::from(vec![5, 6]);
        assert_eq!(p.first(), Some(&5));
        assert_eq!(p[1], 6);
        assert_eq!(p.to_vec(), vec![5, 6]);
    }

    #[test]
    fn codec_round_trip() {
        let p = Payload::from(vec![1, 2, 3]);
        let bytes = p.encode_to_vec();
        assert_eq!(Payload::decode_exact(&bytes).unwrap(), p);
        // Byte-compatible with the Vec<u8> encoding.
        assert_eq!(bytes, vec![1u8, 2, 3].encode_to_vec());
    }

    #[test]
    fn a_payload_is_a_thin_handle_and_a_window() {
        assert_eq!(std::mem::size_of::<Payload>(), 16);
    }

    #[test]
    fn empty_default() {
        assert!(Payload::default().is_empty());
        assert_eq!(Payload::new().len(), 0);
    }
}

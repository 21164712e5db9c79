//! The one byte codec of the repo: every socket message and every
//! snapshot section payload is encoded here.
//!
//! The repo's convention is std-only serialization (no serde). The
//! Unix-socket transport (`pace-mpisim`), the serving daemon
//! (`pace-serve`) and the snapshot container (`pace-store`) all encode
//! through this crate, so one module decides how a length, a float or
//! a byte run looks on a socket and on disk:
//!
//! - [`Wire`]: encode/decode for a type, little-endian, `u32` length
//!   prefixes on variable-size fields. Byte runs (`Vec<u8>`, `String`)
//!   are copied in bulk, never byte by byte;
//! - [`WireReader`]: a bounds-checked cursor that decoding reads from —
//!   truncated or trailing bytes are errors, never panics, and a length
//!   prefix is checked against the bytes left *before* anything is
//!   allocated (see [`Wire::MIN_BYTES`]);
//! - [`Crc32`]/[`crc32`]: the one CRC-32 of the repo (frames, snapshot
//!   sections, checkpoint fingerprints);
//! - framing: every socket payload travels as
//!   `[len: u32 LE][crc32: u32 LE][payload bytes]`, where the checksum
//!   covers the payload. A frame that fails its length sanity bound or
//!   its checksum is a hard transport error (a Unix socket does not
//!   corrupt bytes in practice; a bad checksum means a codec bug or a
//!   desynced stream, both of which must fail loudly).
//!
//! Both socket servers also share [`lock_recover`]: one panicking
//! connection thread must not take every other thread down with it
//! through a poisoned lock.
//!
//! Protocol-specific message enums (the transport's `Ctl` handshake,
//! the daemon's request/response lines) live with their protocols; only
//! the neutral codec machinery lives here. Within a protocol version,
//! fields are append-only: new fields go at the *end* of a message's
//! encoding and decoding must tolerate their absence only across a
//! version bump, never silently.

use std::io::{self, Read, Write};
use std::sync::{Mutex, MutexGuard};

/// Upper bound on a frame payload. A `Work`/`Report` batch is a few
/// hundred pairs (tens of KiB) and an ingest batch a few MiB of FASTA;
/// anything near this bound is a desynced stream, not a real message.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// Error produced by decoding: truncated input, trailing bytes, or a
/// value that fails validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire decode error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for io::Error {
    fn from(e: WireError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e.to_string())
    }
}

/// Bounds-checked read cursor over one decoded payload.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError(format!(
                "truncated: need {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// A raw byte run of known length.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A `u32`-prefixed length, validated against the bytes actually left
    /// so a corrupt length cannot trigger a huge allocation.
    pub fn len_prefix(&mut self, elem_size: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(elem_size.max(1)) > self.remaining() {
            return Err(WireError(format!(
                "length prefix {n} exceeds remaining payload ({} bytes)",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// A `u32`-prefixed byte run, borrowed from the payload.
    pub fn byte_run(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.len_prefix(1)?;
        self.take(n)
    }

    /// A `u32`-prefixed run of items, each read by `item` and encoded in
    /// at least `min_bytes` bytes; the layout [`encode_seq`] writes.
    pub fn seq<T>(
        &mut self,
        min_bytes: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let n = self.len_prefix(min_bytes)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// Decoding must end exactly at the payload boundary; trailing bytes
    /// mean sender and receiver disagree about the message layout.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError(format!(
                "{} trailing bytes after message",
                self.remaining()
            )));
        }
        Ok(())
    }
}

fn encode_len(n: usize, out: &mut Vec<u8>) {
    u32::try_from(n)
        .expect("run too long for the wire format")
        .encode(out);
}

/// Encode `items` as a `u32` count followed by each item written by
/// `item`: the layout of `Vec<T>`, for element types that cannot
/// implement [`Wire`] where they are encoded.
pub fn encode_seq<T>(items: &[T], out: &mut Vec<u8>, mut item: impl FnMut(&T, &mut Vec<u8>)) {
    encode_len(items.len(), out);
    for x in items {
        item(x, out);
    }
}

/// A type that can cross a socket or sit in a snapshot. Encodings are
/// little-endian and self-delimiting (variable-size fields carry `u32`
/// length prefixes).
pub trait Wire: Sized {
    /// The fewest bytes any value's encoding takes. A decoder checks a
    /// `Vec<Self>` count against it, so a hostile prefix cannot reserve
    /// more elements than the payload could hold.
    const MIN_BYTES: usize = 1;

    fn encode(&self, out: &mut Vec<u8>);
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Encode `items` with the layout of `Vec<Self>`. `u8` overrides
    /// this with one bulk copy.
    fn encode_slice(items: &[Self], out: &mut Vec<u8>) {
        encode_seq(items, out, Self::encode);
    }

    /// Decode what [`encode_slice`](Self::encode_slice) wrote.
    fn decode_vec(r: &mut WireReader<'_>) -> Result<Vec<Self>, WireError> {
        r.seq(Self::MIN_BYTES, Self::decode)
    }

    /// Encode into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decode a complete payload; trailing bytes are an error.
    fn from_bytes(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(buf);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

/// Bytes are the one bulk path: a byte run is copied whole, both ways.
impl Wire for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.u8()
    }
    fn encode_slice(items: &[u8], out: &mut Vec<u8>) {
        encode_len(items.len(), out);
        out.extend_from_slice(items);
    }
    fn decode_vec(r: &mut WireReader<'_>) -> Result<Vec<u8>, WireError> {
        Ok(r.byte_run()?.to_vec())
    }
}

impl Wire for u16 {
    const MIN_BYTES: usize = 2;
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.u16()
    }
}

impl Wire for u32 {
    const MIN_BYTES: usize = 4;
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.u32()
    }
}

impl Wire for u64 {
    const MIN_BYTES: usize = 8;
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.u64()
    }
}

impl Wire for usize {
    const MIN_BYTES: usize = 8;
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        usize::try_from(r.u64()?).map_err(|_| WireError("usize out of range".into()))
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError(format!("bad bool byte {b:#04x}"))),
        }
    }
}

/// Floats travel as their IEEE-754 bit pattern, so a value round-trips
/// bit-exactly (including NaN payloads and signed zeros).
impl Wire for f64 {
    const MIN_BYTES: usize = 8;
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(f64::from_bits(r.u64()?))
    }
}

/// Strings travel as a byte run (the layout of `Vec<u8>`); decoding
/// rejects invalid UTF-8 rather than lossily replacing it.
impl Wire for String {
    const MIN_BYTES: usize = 4;
    fn encode(&self, out: &mut Vec<u8>) {
        u8::encode_slice(self.as_bytes(), out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        std::str::from_utf8(r.byte_run()?)
            .map(str::to_owned)
            .map_err(|_| WireError("invalid UTF-8 in wire string".into()))
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 4;
    fn encode(&self, out: &mut Vec<u8>) {
        T::encode_slice(self, out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        T::decode_vec(r)
    }
}

/// Implement [`Wire`] for a struct as its fields back to back, in the
/// order listed: the list is the layout, written once for both
/// directions. `MIN_BYTES` is the sum of the listed field types'.
///
/// ```
/// struct Hit { est: u32, score: f64 }
/// pace_wire::wire_struct!(Hit { est: u32, score: f64 });
/// # use pace_wire::Wire;
/// assert_eq!(Hit::MIN_BYTES, 12);
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($ty:ident { $($field:ident: $fty:ty),+ $(,)? }) => {
        impl $crate::Wire for $ty {
            const MIN_BYTES: usize = 0 $(+ <$fty as $crate::Wire>::MIN_BYTES)+;
            fn encode(&self, out: &mut Vec<u8>) {
                $($crate::Wire::encode(&self.$field, out);)+
            }
            fn decode(r: &mut $crate::WireReader<'_>) -> Result<Self, $crate::WireError> {
                Ok($ty {
                    $($field: <$fty as $crate::Wire>::decode(r)?,)+
                })
            }
        }
    };
}

/// Tuples are their fields back to back, with no framing of their own.
macro_rules! wire_tuple {
    ($($t:ident),+) => {
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            const MIN_BYTES: usize = 0 $(+ $t::MIN_BYTES)+;
            #[allow(non_snake_case)]
            fn encode(&self, out: &mut Vec<u8>) {
                let ($($t,)+) = self;
                $($t.encode(out);)+
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                Ok(($($t::decode(r)?,)+))
            }
        }
    };
}

wire_tuple!(A, B);
wire_tuple!(A, B, C);
wire_tuple!(A, B, C, D);

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected) — inlined so framing needs no deps.
// ---------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// Streaming CRC-32 (the classic IEEE polynomial, as used by
/// gzip/PNG): feed bytes in any chunking, [`finish`](Self::finish)
/// gives the checksum of their concatenation.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    pub fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    pub fn update(&mut self, data: &[u8]) {
        for &b in data {
            self.0 = CRC32_TABLE[((self.0 ^ u32::from(b)) & 0xFF) as usize] ^ (self.0 >> 8);
        }
    }

    pub fn finish(&self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Write one frame: `[len][crc32][payload]`.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&n| n <= MAX_FRAME_LEN)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "frame payload of {} bytes exceeds MAX_FRAME_LEN",
                    payload.len()
                ),
            )
        })?;
    let mut header = [0u8; 8];
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame. Returns `Ok(None)` on a clean EOF at a frame
/// boundary (the peer closed its socket); EOF mid-frame, an oversized
/// length, or a checksum mismatch are `Err`.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 8];
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame header",
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(header[..4].try_into().unwrap());
    let crc = u32::from_le_bytes(header[4..].try_into().unwrap());
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME_LEN (desynced stream?)"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let actual = crc32(&payload);
    if actual != crc {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame checksum mismatch: header says {crc:#010x}, payload is {actual:#010x}"),
        ));
    }
    Ok(Some(payload))
}

/// Lock `m`, recovering the guard if a thread panicked while holding it.
///
/// `.lock().unwrap()` would propagate one thread's panic into every
/// other thread that touches the lock. Recovery is only sound when the
/// guarded data cannot be left half-updated — every critical section
/// either completes its mutation or panics before starting it. Callers
/// whose data *can* be torn must check [`Mutex::lock`]'s error instead
/// (or, as the daemon's core lock does, taint the state).
pub fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = v.to_bytes();
        let back = T::from_bytes(&bytes).expect("decode");
        assert_eq!(&back, v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(&0u8);
        roundtrip(&255u8);
        roundtrip(&0xDEAD_BEEFu32);
        roundtrip(&u64::MAX);
        roundtrip(&12345usize);
        roundtrip(&true);
        roundtrip(&false);
        roundtrip(&-0.0f64);
        roundtrip(&f64::NAN.to_bits().to_le_bytes().to_vec());
        roundtrip(&vec![1u32, 2, 3]);
        roundtrip(&Vec::<u64>::new());
    }

    #[test]
    fn nan_bit_pattern_survives() {
        let v = f64::from_bits(0x7FF8_0000_0000_0001);
        let back = f64::from_bytes(&v.to_bytes()).unwrap();
        assert_eq!(back.to_bits(), v.to_bits());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = 7u32.to_bytes();
        bytes.push(0);
        assert!(u32::from_bytes(&bytes).is_err());
    }

    #[test]
    fn truncation_rejected() {
        let bytes = 7u64.to_bytes();
        assert!(u64::from_bytes(&bytes[..7]).is_err());
    }

    #[test]
    fn bad_bool_rejected() {
        assert!(bool::from_bytes(&[2]).is_err());
    }

    #[test]
    fn hostile_length_prefix_cannot_allocate() {
        // A Vec<u64> claiming u32::MAX elements in a 4-byte payload.
        let bytes = u32::MAX.to_bytes();
        assert!(Vec::<u64>::from_bytes(&bytes).is_err());
    }

    #[test]
    fn count_beyond_what_the_bytes_can_encode_is_rejected() {
        // Refused at the prefix, before any element is reserved: five
        // strings need at least 5 × 4 bytes and two u64s sixteen, but
        // a one-byte bound would let both through to decode elements.
        let refused_at_prefix = |e: WireError| e.0.starts_with("length prefix");
        let mut bytes = 5u32.to_bytes();
        bytes.extend_from_slice(&[0; 8]);
        assert!(Vec::<String>::from_bytes(&bytes).is_err_and(refused_at_prefix));
        let mut bytes = 2u32.to_bytes();
        bytes.extend_from_slice(&[0; 12]);
        assert!(Vec::<u64>::from_bytes(&bytes).is_err_and(refused_at_prefix));
        assert_eq!(<(u32, u64, bool)>::MIN_BYTES, 13);
    }

    #[test]
    fn byte_runs_and_strings_share_one_layout() {
        let run = b"ACGT\xff".to_vec();
        assert_eq!(run.to_bytes(), [&5u32.to_bytes()[..], &run].concat());
        assert_eq!("ACGT".to_string().to_bytes(), b"ACGT".to_vec().to_bytes());
        roundtrip(&vec![run, Vec::new()]);
        roundtrip(&(7u16, "x".to_string(), vec![(1u32, 2u32)]));
        assert!(String::from_bytes(&[1, 0, 0, 0, 0xFF]).is_err());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard test vector for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn streaming_crc_equals_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut c = Crc32::new();
        for chunk in data.chunks(7) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), crc32(data));
    }

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn corrupt_frame_is_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload-bytes").unwrap();
        // Flip one payload bit.
        let n = buf.len();
        buf[n - 3] ^= 0x10;
        let mut cursor = std::io::Cursor::new(buf);
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frame_is_an_error_not_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"0123456789").unwrap();
        buf.truncate(buf.len() - 4);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn oversized_frame_length_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        buf.extend_from_slice(&[0u8; 4]);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(read_frame(&mut cursor).is_err());
    }
}

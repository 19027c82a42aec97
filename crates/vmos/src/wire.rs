//! The binary wire format: every byte the campaign stack puts on a
//! pipe, a socket or a disk goes through this module.
//!
//! The offline `serde` shim only *serializes* (to JSON, for reports); the
//! campaign stack needs a true round trip plus hostile-input tolerance: a
//! truncated or bit-flipped message must decode to an error, never a panic
//! or an allocation bomb. This module provides bounds-checked
//! little-endian primitives ([`Writer`]/[`Reader`]), the FNV-1a digest
//! checkpoints are sealed with, the CXFR stream framing
//! ([`write_frame`]/[`read_frame`]), and the [`Wire`] trait every message
//! type implements.
//!
//! Framing conventions:
//!
//! * integers are little-endian, fixed width; `usize` travels as `u64`,
//!   `f64` as its bit pattern, `bool` as one byte that must be 0 or 1;
//! * a `Vec`, `String` or byte string is a `u64` count followed by the
//!   elements; `Option` is a `bool` and then the value;
//! * enums are a `u8` tag; unknown tags are [`WireError::Malformed`].
//!
//! # Declaring a message
//!
//! A message type is declared once, and its encoder and decoder both come
//! from that declaration, so the two cannot walk different fields:
//!
//! * [`wire_struct!`](crate::wire_struct) lists a struct's fields in wire
//!   order. Decode builds a struct literal, so a field left out of the list
//!   is a compile error. A field written `name as Codec` is carried by
//!   that [`Codec`] instead of its own type's form — [`Nested`] for a
//!   length-prefixed sub-message.
//! * [`wire_enum!`](crate::wire_enum) lists an enum's variants with their
//!   explicit tags and the [`WireError::Malformed`] message an unknown tag
//!   reads as.
//!
//! Hand-written [`Wire`] impls remain only where a format is not field
//! order: a fixed layout, a size check, a header, a folded tag.
//!
//! # The count rule
//!
//! Every type declares [`Wire::MIN_LEN`], the fewest bytes any of its
//! values takes on the wire. A decoded `Vec<T>` count `n` is rejected as
//! [`WireError::Truncated`] when `n > remaining / T::MIN_LEN`, before
//! anything is allocated: a corrupt count costs at most the bytes that
//! are really there.

use crate::cov::{VirginMap, MAP_SIZE};
use crate::crash::{Crash, CrashKind};

/// Decoding failure. Decoders return this for any malformed input; they
/// must never panic, whatever the bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value did (or a length field claimed
    /// more bytes than remain).
    Truncated,
    /// Structurally invalid data: unknown enum tag, bad UTF-8, wrong
    /// section size.
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire data truncated"),
            WireError::Malformed(what) => write!(f, "malformed wire data: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// FNV-1a offset basis (the digest of the empty string).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into a running FNV-1a digest `h`.
fn fnv1a_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// FNV-1a over `bytes` — the digest checkpoint payloads are sealed with.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_update(FNV_OFFSET, bytes)
}

/// Append-only encoder.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
    /// Offsets of the counts written so far, kept only by
    /// [`Writer::recording`].
    counts: Option<Vec<usize>>,
}

impl Writer {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty writer with room for `capacity` bytes, so a large encode
    /// of known size is built without reallocating.
    pub fn with_capacity(capacity: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(capacity),
            counts: None,
        }
    }

    /// Empty writer that notes the offset of every count it writes (see
    /// [`Writer::count_offsets`]), so a test can corrupt each one.
    pub fn recording() -> Self {
        Writer {
            buf: Vec::new(),
            counts: Some(Vec::new()),
        }
    }

    /// Offsets of the `u64` counts (of a `Vec`, a string or a nested
    /// message) written so far; empty unless built by
    /// [`Writer::recording`].
    pub fn count_offsets(&self) -> &[usize] {
        self.counts.as_deref().unwrap_or_default()
    }

    /// Consume the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Append one byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a bool as one byte.
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Append a little-endian `u16`.
    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `i64` (two's-complement bit pattern).
    #[inline]
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as a `u64`.
    #[inline]
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append the element count of a `Vec`, a string or a nested message.
    #[inline]
    pub fn put_count(&mut self, n: usize) {
        if let Some(counts) = &mut self.counts {
            counts.push(self.buf.len());
        }
        self.put_usize(n);
    }

    /// Append a length-prefixed byte string.
    #[inline]
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_count(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed UTF-8 string.
    #[inline]
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Bounds-checked decoder over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Reader over `buf`, starting at the beginning.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed — decoders should check this
    /// at the end so trailing garbage is rejected, not ignored.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if n > self.remaining() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a bool. Only 0/1 are valid; any other byte is malformed —
    /// corruption must not decode silently.
    #[inline]
    pub fn get_bool(&mut self) -> Result<bool, WireError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("bool tag")),
        }
    }

    /// Read a little-endian `u16`.
    #[inline]
    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes(b.try_into().expect("2 bytes")))
    }

    /// Read a little-endian `u32`.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Read a little-endian `i64`.
    #[inline]
    pub fn get_i64(&mut self) -> Result<i64, WireError> {
        let b = self.take(8)?;
        Ok(i64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Read a little-endian `u64`.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Read a `u64` and narrow it to `usize`, checking it fits in the
    /// bytes that remain (so corrupt lengths cannot trigger huge
    /// allocations).
    #[inline]
    pub fn get_len(&mut self) -> Result<usize, WireError> {
        let v = self.get_u64()?;
        if v > self.remaining() as u64 {
            return Err(WireError::Truncated);
        }
        Ok(v as usize)
    }

    /// Read a `u64` narrowed to usize *without* the remaining-bytes bound
    /// (for counts of fixed-size records; callers must bound it).
    #[inline]
    pub fn get_count(&mut self) -> Result<usize, WireError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| WireError::Malformed("count overflows usize"))
    }

    /// Read a length-prefixed byte string.
    #[inline]
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let n = self.get_len()?;
        Ok(self.take(n)?.to_vec())
    }

    /// Read a length-prefixed UTF-8 string.
    #[inline]
    pub fn get_str(&mut self) -> Result<String, WireError> {
        let b = self.get_bytes()?;
        String::from_utf8(b).map_err(|_| WireError::Malformed("utf-8 string"))
    }
}

// ---------------------------------------------------------------------------
// Declared codecs.
// ---------------------------------------------------------------------------

/// A type with one wire form. Implemented by the primitives and
/// containers below, by [`wire_struct!`](crate::wire_struct) and
/// [`wire_enum!`](crate::wire_enum) declarations, and by hand only where a
/// format is not field order.
pub trait Wire: Sized {
    /// The fewest bytes any value of the type takes on the wire. A decoded
    /// `Vec<Self>` count is bounded by `remaining / MIN_LEN` before
    /// anything is allocated, so this must never exceed a real encoding.
    const MIN_LEN: usize;

    /// Append the value to `w`.
    fn encode(&self, w: &mut Writer);

    /// Read a value written by [`Wire::encode`].
    ///
    /// # Errors
    /// [`WireError`] on truncated or malformed bytes; never panics.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// The value's encoding in a buffer of its own.
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Decode a buffer that holds exactly one value.
    ///
    /// # Errors
    /// As [`Wire::decode`], and [`WireError::Malformed`] on trailing bytes.
    fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let v = Self::decode(&mut r)?;
        if !r.is_empty() {
            return Err(WireError::Malformed("trailing bytes"));
        }
        Ok(v)
    }

    /// Encode the elements of a `Vec<Self>`. `u8` overrides it with one
    /// bulk copy.
    #[doc(hidden)]
    fn encode_run(run: &[Self], w: &mut Writer) {
        for v in run {
            v.encode(w);
        }
    }

    /// Decode the `n` elements of a `Vec<Self>`, `n` already bounded by
    /// the bytes remaining. `u8` overrides it with one bulk copy.
    #[doc(hidden)]
    fn decode_run(r: &mut Reader<'_>, n: usize) -> Result<Vec<Self>, WireError> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(Self::decode(r)?);
        }
        Ok(out)
    }
}

macro_rules! wire_fixed {
    ($($t:ty => $put:ident, $get:ident;)*) => {$(
        impl Wire for $t {
            const MIN_LEN: usize = std::mem::size_of::<$t>();

            #[inline]
            fn encode(&self, w: &mut Writer) {
                w.$put(*self);
            }

            #[inline]
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                r.$get()
            }
        }
    )*};
}

wire_fixed! {
    bool => put_bool, get_bool;
    u16 => put_u16, get_u16;
    u32 => put_u32, get_u32;
    u64 => put_u64, get_u64;
    i64 => put_i64, get_i64;
    usize => put_usize, get_count;
}

// The primitive impls, like `Writer`'s and `Reader`'s methods, are
// `#[inline]`: a declaration is generic code instantiated in the crate
// that declares it, and without the hint every field costs a chain of
// calls across the crate boundary (about 10% more time to decode a
// snapshot than the hand-written decoders took).
impl Wire for u8 {
    const MIN_LEN: usize = 1;

    #[inline]
    fn encode(&self, w: &mut Writer) {
        w.put_u8(*self);
    }

    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.get_u8()
    }

    #[inline]
    fn encode_run(run: &[u8], w: &mut Writer) {
        w.buf.extend_from_slice(run);
    }

    #[inline]
    fn decode_run(r: &mut Reader<'_>, n: usize) -> Result<Vec<u8>, WireError> {
        Ok(r.take(n)?.to_vec())
    }
}

impl Wire for f64 {
    const MIN_LEN: usize = 8;

    #[inline]
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.to_bits());
    }

    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(f64::from_bits(r.get_u64()?))
    }
}

impl Wire for String {
    const MIN_LEN: usize = 8;

    #[inline]
    fn encode(&self, w: &mut Writer) {
        w.put_str(self);
    }

    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.get_str()
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_LEN: usize = 8;

    fn encode(&self, w: &mut Writer) {
        w.put_count(self.len());
        T::encode_run(self, w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.get_count()?;
        if n > r.remaining() / T::MIN_LEN.max(1) {
            return Err(WireError::Truncated);
        }
        T::decode_run(r, n)
    }
}

impl<T: Wire> Wire for Option<T> {
    const MIN_LEN: usize = 1;

    fn encode(&self, w: &mut Writer) {
        w.put_bool(self.is_some());
        if let Some(v) = self {
            v.encode(w);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(if r.get_bool()? {
            Some(T::decode(r)?)
        } else {
            None
        })
    }
}

impl<T: Wire> Wire for Box<T> {
    const MIN_LEN: usize = T::MIN_LEN;

    fn encode(&self, w: &mut Writer) {
        T::encode(self, w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        T::decode(r).map(Box::new)
    }
}

/// A borrowed value encodes exactly as the value does, so a message can be
/// sent from state it does not own; it always decodes owned.
impl<T: Wire + Clone> Wire for std::borrow::Cow<'_, T> {
    const MIN_LEN: usize = T::MIN_LEN;

    fn encode(&self, w: &mut Writer) {
        T::encode(self, w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        T::decode(r).map(std::borrow::Cow::Owned)
    }
}

impl<T: Wire + Copy + Default, const N: usize> Wire for [T; N] {
    const MIN_LEN: usize = N * T::MIN_LEN;

    fn encode(&self, w: &mut Writer) {
        for v in self {
            v.encode(w);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut out = [T::default(); N];
        for v in &mut out {
            *v = T::decode(r)?;
        }
        Ok(out)
    }
}

macro_rules! wire_tuple {
    ($($name:ident)+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            const MIN_LEN: usize = 0 $(+ $name::MIN_LEN)+;

            #[allow(non_snake_case)]
            fn encode(&self, w: &mut Writer) {
                let ($($name,)+) = self;
                $($name.encode(w);)+
            }

            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(($($name::decode(r)?,)+))
            }
        }
    };
}

wire_tuple!(A B);
wire_tuple!(A B C);

/// How a declared field travels: a field's own [`Wire`] form is
/// [`Plain`]; a declaration names another codec with `field as Codec`.
pub trait Codec<T> {
    /// The fewest bytes the field takes (see [`Wire::MIN_LEN`]).
    const MIN_LEN: usize;

    /// Append `v` to `w`.
    fn encode(v: &T, w: &mut Writer);

    /// Read a field written by [`Codec::encode`].
    ///
    /// # Errors
    /// [`WireError`] on truncated or malformed bytes.
    fn decode(r: &mut Reader<'_>) -> Result<T, WireError>;
}

/// The field type's own [`Wire`] form.
#[derive(Debug)]
pub struct Plain;

impl<T: Wire> Codec<T> for Plain {
    const MIN_LEN: usize = T::MIN_LEN;

    fn encode(v: &T, w: &mut Writer) {
        v.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<T, WireError> {
        T::decode(r)
    }
}

/// A sub-message carried as a byte string: a `u64` length, then the
/// value's own encoding, which decoding must consume exactly.
#[derive(Debug)]
pub struct Nested;

impl<T: Wire> Codec<T> for Nested {
    const MIN_LEN: usize = 8;

    fn encode(v: &T, w: &mut Writer) {
        // Encode in place behind a length placeholder, then patch it.
        let at = w.buf.len();
        w.put_count(0);
        v.encode(w);
        let len = (w.buf.len() - at - 8) as u64;
        w.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> Result<T, WireError> {
        let n = r.get_len()?;
        T::from_bytes(r.take(n)?)
    }
}

/// [`Codec::MIN_LEN`] of the codec `C` for the field `field` selects
/// (the declaration macros' way to name a field's type without spelling
/// it).
#[doc(hidden)]
pub const fn field_min_len<S, T, C: Codec<T>>(_field: fn(&S) -> &T) -> usize {
    C::MIN_LEN
}

/// The codec a declared field names, or [`Plain`].
#[doc(hidden)]
#[macro_export]
macro_rules! wire_codec {
    () => {
        $crate::wire::Plain
    };
    ($codec:ty) => {
        $codec
    };
}

/// Implement [`Wire`] for a struct by listing its fields in wire order:
/// `wire_struct!(Type { a, b, c as Nested })`. Decode builds a struct
/// literal, so a field missing from the list does not compile; a field
/// written `name as Codec` travels through that [`Codec`].
#[macro_export]
macro_rules! wire_struct {
    ($ty:ty { $($field:ident $(as $codec:ty)?),* $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            const MIN_LEN: usize = 0 $(
                + $crate::wire::field_min_len::<Self, _, $crate::wire_codec!($($codec)?)>(
                    |s: &Self| &s.$field,
                )
            )*;

            fn encode(&self, w: &mut $crate::wire::Writer) {
                $(<$crate::wire_codec!($($codec)?) as $crate::wire::Codec<_>>::encode(
                    &self.$field,
                    w,
                );)*
            }

            fn decode(
                r: &mut $crate::wire::Reader<'_>,
            ) -> Result<Self, $crate::wire::WireError> {
                Ok(Self {
                    $($field: <$crate::wire_codec!($($codec)?) as $crate::wire::Codec<_>>::decode(
                        r,
                    )?,)*
                })
            }
        }
    };
}

/// Implement [`Wire`] for an enum by listing its variants with explicit
/// tags: `wire_enum!(Type, "type tag" { 0 => Unit, 1 => Tuple(a), 2 =>
/// Struct { x, y } })`. A variant is its `u8` tag and then its fields in
/// order (a tuple field may name a [`Codec`] with `as`); an unknown tag
/// reads as `WireError::Malformed` with the given message.
#[macro_export]
macro_rules! wire_enum {
    ($ty:ty, $what:literal {
        $($tag:literal => $variant:ident
            $(( $($arg:ident $(as $codec:ty)?),* ))?
            $({ $($field:ident),* })?),* $(,)?
    }) => {
        impl $crate::wire::Wire for $ty {
            const MIN_LEN: usize = 1;

            fn encode(&self, w: &mut $crate::wire::Writer) {
                match self {
                    $(Self::$variant $(( $($arg),* ))? $({ $($field),* })? => {
                        w.put_u8($tag);
                        $($(<$crate::wire_codec!($($codec)?) as $crate::wire::Codec<_>>::encode(
                            $arg,
                            w,
                        );)*)?
                        $($($crate::wire::Wire::encode($field, w);)*)?
                    })*
                }
            }

            fn decode(
                r: &mut $crate::wire::Reader<'_>,
            ) -> Result<Self, $crate::wire::WireError> {
                Ok(match r.get_u8()? {
                    $($tag => Self::$variant
                        $(( $({
                            let $arg = <$crate::wire_codec!($($codec)?) as $crate::wire::Codec<_>>::decode(r)?;
                            $arg
                        }),* ))?
                        $({ $($field: $crate::wire::Wire::decode(r)?),* })?,)*
                    _ => return Err($crate::wire::WireError::Malformed($what)),
                })
            }
        }
    };
}

wire_enum!(CrashKind, "crash kind tag" {
    0 => NullPtrDeref,
    1 => DivisionByZero,
    2 => UnaddressableAccess,
    3 => InvalidRead,
    4 => InvalidWrite,
    5 => NegativeSizeMemcpy,
    6 => OutOfBoundsAccess,
    7 => DoubleFree,
    8 => InvalidFree,
    9 => FdExhaustion,
    10 => OutOfMemory,
    11 => StackOverflow,
    12 => Abort,
    13 => UnreachableExecuted,
    14 => BadLongjmp,
});

wire_struct!(Crash {
    kind,
    function,
    block,
    detail
});

/// Hand-written: the map is a byte string that must be exactly
/// [`MAP_SIZE`] long.
impl Wire for VirginMap {
    const MIN_LEN: usize = 8 + MAP_SIZE;

    fn encode(&self, w: &mut Writer) {
        w.put_bytes(self.as_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let bytes = r.get_bytes()?;
        if bytes.len() != MAP_SIZE {
            return Err(WireError::Malformed("virgin map size"));
        }
        Ok(VirginMap::from_saved(bytes))
    }
}

// ---------------------------------------------------------------------------
// Stream framing: the supervisor ⇄ worker wire protocol's transport layer.
// ---------------------------------------------------------------------------

/// Magic opening every frame on a supervisor ⇄ worker pipe.
pub const FRAME_MAGIC: [u8; 4] = *b"CXFR";

/// Frame header size: magic (4) + kind (1) + payload length (4, LE) +
/// FNV-1a checksum (8, LE).
pub const FRAME_HEADER_LEN: usize = 17;

/// The header's *length prefix* region: magic (4) + kind (1) + payload
/// length (4). A peer that closes the stream before these 9 bytes
/// complete never committed to a frame, so the reader reports a clean
/// disconnect ([`FrameError::Eof`]) rather than a torn frame — the
/// distinction supervisors use to tell "the peer went away" from "the
/// peer died mid-write" (see [`read_frame`]).
pub const FRAME_PREFIX_LEN: usize = 9;

/// Default ceiling on a frame's payload length. A corrupted or hostile
/// length field is rejected against this bound *before* any allocation
/// happens, so garbage on the pipe can never become an allocation bomb.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Why a frame could not be read. Every decode path returns one of these;
/// none panics, whatever the peer (or the corruption) sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The underlying pipe failed with a real I/O error.
    Io(std::io::ErrorKind),
    /// Clean end-of-stream exactly on a frame boundary — the peer closed
    /// the pipe. For a worker this is the supervisor-died signal: exit,
    /// don't spin.
    Eof,
    /// End-of-stream in the middle of a frame: the peer died mid-write.
    Truncated,
    /// The header did not start with [`FRAME_MAGIC`] — the stream is
    /// desynchronized or corrupt.
    BadMagic,
    /// The length field exceeds the reader's ceiling; rejected before
    /// allocating.
    Oversized {
        /// The length the header claimed.
        claimed: u64,
    },
    /// Header + payload failed checksum validation (bit rot or a torn
    /// write that still parsed structurally).
    ChecksumMismatch,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(kind) => write!(f, "frame i/o error: {kind:?}"),
            FrameError::Eof => write!(f, "pipe closed at frame boundary"),
            FrameError::Truncated => write!(f, "pipe closed mid-frame"),
            FrameError::BadMagic => write!(f, "bad frame magic"),
            FrameError::Oversized { claimed } => {
                write!(f, "frame length {claimed} exceeds ceiling")
            }
            FrameError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Digest a frame's integrity-checked region: kind, length field, payload.
fn frame_checksum(kind: u8, payload: &[u8]) -> u64 {
    let mut h = fnv1a_update(FNV_OFFSET, &[kind]);
    h = fnv1a_update(h, &(payload.len() as u32).to_le_bytes());
    fnv1a_update(h, payload)
}

/// Fill `buf` from `r`, distinguishing a clean EOF before the first byte
/// (`Err(true)`) from one mid-buffer (`Err(false)` wrapped as Truncated by
/// the caller).
fn read_full(r: &mut impl std::io::Read, buf: &mut [u8]) -> Result<(), FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if filled == 0 {
                    FrameError::Eof
                } else {
                    FrameError::Truncated
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e.kind())),
        }
    }
    Ok(())
}

/// Write one `kind`-tagged frame carrying `payload` to `w` and flush it.
///
/// # Errors
/// [`FrameError::Oversized`] if the payload exceeds [`MAX_FRAME_LEN`];
/// [`FrameError::Io`] on pipe failure.
pub fn write_frame(
    w: &mut impl std::io::Write,
    kind: u8,
    payload: &[u8],
) -> Result<(), FrameError> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(FrameError::Oversized {
            claimed: payload.len() as u64,
        });
    }
    let mut header = [0u8; FRAME_HEADER_LEN];
    header[..4].copy_from_slice(&FRAME_MAGIC);
    header[4] = kind;
    header[5..9].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[9..17].copy_from_slice(&frame_checksum(kind, payload).to_le_bytes());
    w.write_all(&header)
        .and_then(|()| w.write_all(payload))
        .and_then(|()| w.flush())
        .map_err(|e| FrameError::Io(e.kind()))
}

/// Read one frame from `r`, returning `(kind, payload)`.
///
/// Validation order: magic, length ceiling (`max_len`, before any
/// allocation), payload presence, checksum. A clean EOF on the frame
/// boundary — or anywhere inside the first [`FRAME_PREFIX_LEN`] bytes,
/// before the peer has committed a frame length — is
/// [`FrameError::Eof`]: the peer disconnected, it did not tear a frame.
/// An EOF after the length prefix completed (checksum region or payload)
/// is [`FrameError::Truncated`]: a frame was promised and died mid-write.
/// Supervisors rely on this split to classify clean disconnects as
/// pipe-EOF instead of frame corruption.
///
/// # Errors
/// A typed [`FrameError`]; this function never panics on hostile input.
pub fn read_frame(r: &mut impl std::io::Read, max_len: usize) -> Result<(u8, Vec<u8>), FrameError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    // The length prefix first: an EOF in here is a disconnect, not a torn
    // frame — nothing was promised yet.
    match read_full(r, &mut header[..FRAME_PREFIX_LEN]) {
        Ok(()) => {}
        Err(FrameError::Truncated) => return Err(FrameError::Eof),
        Err(e) => return Err(e),
    }
    // From here on the peer owes us a full frame: any EOF is a tear.
    match read_full(r, &mut header[FRAME_PREFIX_LEN..]) {
        Ok(()) => {}
        Err(FrameError::Eof) => return Err(FrameError::Truncated),
        Err(e) => return Err(e),
    }
    if header[..4] != FRAME_MAGIC {
        return Err(FrameError::BadMagic);
    }
    let kind = header[4];
    let len = u32::from_le_bytes(header[5..9].try_into().expect("4 bytes")) as usize;
    let want = u64::from_le_bytes(header[9..17].try_into().expect("8 bytes"));
    if len > max_len.min(MAX_FRAME_LEN) {
        return Err(FrameError::Oversized {
            claimed: len as u64,
        });
    }
    // Grow towards `len` instead of trusting it up front: even below the
    // ceiling, a lying length only costs what the pipe actually delivers.
    let mut payload = Vec::with_capacity(len.min(64 << 10));
    let mut taken = std::io::Read::take(r, len as u64);
    let got = {
        use std::io::Read as _;
        taken
            .read_to_end(&mut payload)
            .map_err(|e| FrameError::Io(e.kind()))?
    };
    if got < len {
        return Err(FrameError::Truncated);
    }
    if frame_checksum(kind, &payload) != want {
        return Err(FrameError::ChecksumMismatch);
    }
    Ok((kind, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_capacity_starts_empty_with_room() {
        let mut w = Writer::with_capacity(256);
        w.put_u32(7);
        let bytes = w.into_bytes();
        assert_eq!(bytes, 7u32.to_le_bytes());
        assert!(bytes.capacity() >= 256, "the capacity is reserved up front");
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_bytes(b"hello");
        w.put_str("wörld");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_bytes().unwrap(), b"hello");
        assert_eq!(r.get_str().unwrap(), "wörld");
        assert!(r.is_empty());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = Writer::new();
        w.put_bytes(&[1, 2, 3, 4, 5]);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(r.get_bytes().is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn corrupt_length_cannot_allocate() {
        // A length field of u64::MAX must be rejected by the remaining-
        // bytes bound, not passed to Vec::with_capacity.
        let mut w = Writer::new();
        w.put_u64(u64::MAX);
        w.put_u8(0);
        let bytes = w.into_bytes();
        assert_eq!(
            Reader::new(&bytes).get_bytes().unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn unknown_crash_kind_tag_is_malformed() {
        assert_eq!(
            CrashKind::from_bytes(&[200]),
            Err(WireError::Malformed("crash kind tag"))
        );
    }

    #[test]
    fn virgin_map_round_trips_with_edge_count() {
        let mut v = VirginMap::new();
        let mut run = crate::CovMap::new();
        run.hit(3);
        run.hit(700);
        v.merge(&run);
        let decoded = VirginMap::from_bytes(&v.to_bytes()).unwrap();
        assert_eq!(decoded.edges_found(), v.edges_found());
        assert_eq!(decoded.as_bytes(), v.as_bytes());
    }

    #[test]
    fn virgin_map_wrong_size_rejected() {
        let mut w = Writer::new();
        w.put_bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();
        assert!(VirginMap::decode(&mut Reader::new(&bytes)).is_err());
    }

    #[test]
    fn fnv1a_matches_known_vector() {
        // FNV-1a("a") = 0xaf63dc4c8601ec8c
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }

    fn frame_bytes(kind: u8, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, kind, payload).unwrap();
        buf
    }

    #[test]
    fn frames_round_trip() {
        for payload in [&b""[..], b"x", b"hello frames", &[0u8; 4096]] {
            let buf = frame_bytes(0x2A, payload);
            assert_eq!(buf.len(), FRAME_HEADER_LEN + payload.len());
            let mut r = &buf[..];
            let (kind, got) = read_frame(&mut r, MAX_FRAME_LEN).unwrap();
            assert_eq!(kind, 0x2A);
            assert_eq!(got, payload);
            assert!(r.is_empty(), "frame must consume exactly its bytes");
        }
    }

    #[test]
    fn back_to_back_frames_stay_in_sync() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, b"first").unwrap();
        write_frame(&mut buf, 2, b"second").unwrap();
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r, MAX_FRAME_LEN).unwrap(),
            (1, b"first".to_vec())
        );
        assert_eq!(
            read_frame(&mut r, MAX_FRAME_LEN).unwrap(),
            (2, b"second".to_vec())
        );
        assert_eq!(
            read_frame(&mut r, MAX_FRAME_LEN).unwrap_err(),
            FrameError::Eof
        );
    }

    #[test]
    fn clean_eof_differs_from_torn_frame() {
        let buf = frame_bytes(9, b"payload");
        let mut empty: &[u8] = &[];
        assert_eq!(
            read_frame(&mut empty, MAX_FRAME_LEN).unwrap_err(),
            FrameError::Eof
        );
        for cut in 1..buf.len() {
            let mut torn = &buf[..cut];
            // Before the 9-byte length prefix completes, no frame was ever
            // promised: the peer disconnected. From the checksum region on,
            // the frame is torn.
            let want = if cut < FRAME_PREFIX_LEN {
                FrameError::Eof
            } else {
                FrameError::Truncated
            };
            assert_eq!(
                read_frame(&mut torn, MAX_FRAME_LEN).unwrap_err(),
                want,
                "cut at {cut}"
            );
        }
    }

    /// Regression: a peer that dies mid-length-prefix used to surface as
    /// `Truncated`, which supervisors classify as frame corruption. It
    /// must read as a clean disconnect (`Eof` → `PipeEof` upstream) —
    /// the peer never committed a frame.
    #[test]
    fn eof_mid_length_prefix_is_a_clean_disconnect() {
        let buf = frame_bytes(3, b"never finished");
        // Cut inside the length field itself (bytes 5..9 of the header).
        for cut in 5..FRAME_PREFIX_LEN {
            let mut torn = &buf[..cut];
            assert_eq!(
                read_frame(&mut torn, MAX_FRAME_LEN).unwrap_err(),
                FrameError::Eof,
                "EOF mid-length-prefix (cut {cut}) must classify as disconnect"
            );
        }
        // One byte past the prefix the peer has committed: now it's a tear.
        let mut torn = &buf[..FRAME_PREFIX_LEN];
        assert_eq!(
            read_frame(&mut torn, MAX_FRAME_LEN).unwrap_err(),
            FrameError::Truncated
        );
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let buf = frame_bytes(7, b"integrity matters");
        for byte in 0..buf.len() {
            for bit in 0..8 {
                let mut evil = buf.clone();
                evil[byte] ^= 1 << bit;
                let mut r = &evil[..];
                assert!(
                    read_frame(&mut r, MAX_FRAME_LEN).is_err(),
                    "flip at byte {byte} bit {bit} must not decode"
                );
            }
        }
    }

    #[test]
    fn hostile_length_rejected_before_allocating() {
        // Hand-build a header claiming a u32::MAX-byte payload with a valid
        // magic; the ceiling check must fire before any allocation.
        let mut evil = Vec::from(FRAME_MAGIC);
        evil.push(0);
        evil.extend_from_slice(&u32::MAX.to_le_bytes());
        evil.extend_from_slice(&0u64.to_le_bytes());
        let mut r = &evil[..];
        assert_eq!(
            read_frame(&mut r, MAX_FRAME_LEN).unwrap_err(),
            FrameError::Oversized {
                claimed: u64::from(u32::MAX)
            }
        );
        // A caller-tightened ceiling applies too.
        let ok = frame_bytes(1, &[0u8; 128]);
        let mut r = &ok[..];
        assert_eq!(
            read_frame(&mut r, 64).unwrap_err(),
            FrameError::Oversized { claimed: 128 }
        );
    }

    #[test]
    fn oversized_writes_are_refused() {
        let huge = vec![0u8; MAX_FRAME_LEN + 1];
        let mut sink = Vec::new();
        assert_eq!(
            write_frame(&mut sink, 0, &huge).unwrap_err(),
            FrameError::Oversized {
                claimed: huge.len() as u64
            }
        );
        assert!(sink.is_empty(), "nothing may reach the pipe");
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut buf = frame_bytes(3, b"ok");
        buf[0] = b'X';
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r, MAX_FRAME_LEN).unwrap_err(),
            FrameError::BadMagic
        );
    }

    mod frame_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Arbitrary garbage never panics the decoder and never
            /// round-trips as a valid frame by accident (the 4-byte magic
            /// plus 64-bit checksum make a false positive vanishingly
            /// unlikely; with these generators it must simply not happen).
            #[test]
            fn garbage_never_decodes(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
                let mut r = &bytes[..];
                prop_assert!(read_frame(&mut r, MAX_FRAME_LEN).is_err());
            }

            /// Every well-formed frame round-trips through the stream codec.
            #[test]
            fn frames_round_trip(
                kind in any::<u8>(),
                payload in prop::collection::vec(any::<u8>(), 0..512),
            ) {
                let buf = frame_bytes(kind, &payload);
                let mut r = &buf[..];
                let decoded = read_frame(&mut r, MAX_FRAME_LEN);
                prop_assert_eq!(decoded.unwrap(), (kind, payload));
            }

            /// Torn frames (any strict prefix) are typed, never Ok and
            /// never a panic: a cut inside the length prefix is a clean
            /// disconnect, a cut after it is Truncated.
            #[test]
            fn torn_frames_are_typed(
                payload in prop::collection::vec(any::<u8>(), 1..128),
                cut_seed in any::<u64>(),
            ) {
                let buf = frame_bytes(1, &payload);
                let cut = 1 + (cut_seed as usize % (buf.len() - 1));
                let mut r = &buf[..cut];
                let want = if cut < FRAME_PREFIX_LEN {
                    FrameError::Eof
                } else {
                    FrameError::Truncated
                };
                prop_assert_eq!(read_frame(&mut r, MAX_FRAME_LEN).unwrap_err(), want);
            }

            /// A single flipped bit anywhere in a frame yields a typed
            /// error — corruption cannot decode silently.
            #[test]
            fn bit_flips_never_decode(
                payload in prop::collection::vec(any::<u8>(), 0..128),
                pos_seed in any::<u64>(),
                bit in 0u8..8,
            ) {
                let mut buf = frame_bytes(5, &payload);
                let byte = pos_seed as usize % buf.len();
                buf[byte] ^= 1 << bit;
                let mut r = &buf[..];
                prop_assert!(read_frame(&mut r, MAX_FRAME_LEN).is_err());
            }
        }
    }
}

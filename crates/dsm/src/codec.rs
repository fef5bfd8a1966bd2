//! The one wire codec: every frame the system sends.
//!
//! JIAJIA ships its protocol over raw UDP datagrams; this codec gives
//! every process boundary the same failure surface. A value that crosses
//! one implements [`Wire`]: [`to_frame`] seals it into a self-contained
//! little-endian frame ending in a checksum, and [`from_frame`] — the one
//! place a frame is opened — checks the checksum, decodes, and rejects
//! trailing bytes. Decoding **never panics**: malformed input surfaces as
//! a typed [`DsmError`], which the reliability layer treats as a lost
//! frame (the sender's retransmission timer recovers it).
//!
//! The frame families are [`Msg`] and [`Reply`] (here), the UDP datagram
//! ([`crate::transport::udp::Datagram`]), the service's `Request` and
//! `Response` (`genomedsm-serve`), and the result gather of
//! [`crate::DsmSystem::run_wire`]. Each writes its tag byte as its first
//! field. Lists travel as `Vec<T>` and records as tuples, so the `u64`
//! length prefix is written and checked in one place.
//!
//! The checksum is a wrapping byte sum, which is guaranteed to catch any
//! single-byte corruption (a changed byte shifts the sum by a non-zero
//! delta smaller than 2³²) — exactly the fault a fault plan's
//! `corrupt` verdict models.

use crate::error::DsmError;
use crate::msg::{Msg, Notice, Patches, Reply};
use crate::stats::NodeStats;
use std::time::Duration;

/// Sanity bound on any length field (pages, patch data, notice lists).
/// Frames are in-memory, so this only guards fuzzed/corrupted input.
const MAX_LEN: usize = 1 << 28;

fn checksum(bytes: &[u8]) -> u32 {
    bytes
        .iter()
        .fold(0u32, |acc, &b| acc.wrapping_add(b as u32))
}

// ---------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------

/// Appends little-endian fields to one frame; [`FrameWriter::finish`]
/// seals it with the checksum.
#[derive(Default)]
pub struct FrameWriter {
    buf: Vec<u8>,
}

impl FrameWriter {
    /// Appends a single byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a `usize` as a little-endian `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    /// Appends a length-prefixed byte string in one copy.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }
    /// Seals the frame: appends the checksum and returns the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let sum = checksum(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }
}

/// Reads the fields of one frame body that [`from_frame`] has checked.
///
/// Every malformation (truncation, oversize length) surfaces as a typed
/// [`DsmError`].
pub struct FrameReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> FrameReader<'a> {
    /// Verifies the trailing checksum and returns a reader over the body.
    fn checked(frame: &'a [u8]) -> Result<Self, DsmError> {
        if frame.len() < 5 {
            return Err(DsmError::Truncated {
                need: 5,
                have: frame.len(),
            });
        }
        let (body, tail) = frame.split_at(frame.len() - 4);
        let mut sum = [0u8; 4];
        sum.copy_from_slice(tail);
        let expect = u32::from_le_bytes(sum);
        let got = checksum(body);
        if expect != got {
            return Err(DsmError::Checksum { expect, got });
        }
        Ok(Self { buf: body, pos: 0 })
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DsmError> {
        let truncated = DsmError::Truncated {
            need: n,
            have: self.remaining(),
        };
        let end = self.pos.checked_add(n).ok_or(truncated.clone())?;
        let s = self.buf.get(self.pos..end).ok_or(truncated)?;
        self.pos = end;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DsmError> {
        let s = self.take(N)?;
        let mut a = [0u8; N];
        a.copy_from_slice(s);
        Ok(a)
    }

    /// Reads the next byte.
    ///
    /// # Errors
    /// [`DsmError::Truncated`] at end of frame.
    pub fn u8(&mut self) -> Result<u8, DsmError> {
        let [b] = self.array::<1>()?;
        Ok(b)
    }
    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    /// [`DsmError::Truncated`] when fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32, DsmError> {
        Ok(u32::from_le_bytes(self.array()?))
    }
    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    /// [`DsmError::Truncated`] when fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, DsmError> {
        Ok(u64::from_le_bytes(self.array()?))
    }
    /// Reads a `u64` that must fit a `usize`.
    ///
    /// # Errors
    /// [`DsmError::Truncated`] / [`DsmError::Oversize`] on malformation.
    pub fn usize(&mut self) -> Result<usize, DsmError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| DsmError::Oversize {
            len: u64::MAX as usize,
            max: MAX_LEN,
        })
    }

    /// A length field that must be plausible for elements of at least
    /// `elem_size` bytes in the remaining frame — the guard that makes
    /// fuzzed frames fail fast instead of allocating.
    fn len(&mut self, elem_size: usize) -> Result<usize, DsmError> {
        let v = self.usize()?;
        if v > MAX_LEN || v.saturating_mul(elem_size) > self.remaining() {
            return Err(DsmError::Oversize {
                len: v,
                max: self.remaining() / elem_size.max(1),
            });
        }
        Ok(v)
    }

    /// Reads a length-prefixed byte string in one copy.
    ///
    /// # Errors
    /// Typed [`DsmError`] on truncation or an implausible length.
    pub fn bytes(&mut self) -> Result<Vec<u8>, DsmError> {
        Ok(self.byte_slice()?.to_vec())
    }

    /// A length-prefixed byte string, borrowed from the frame.
    fn byte_slice(&mut self) -> Result<&'a [u8], DsmError> {
        let n = self.len(1)?;
        self.take(n)
    }
}

// ---------------------------------------------------------------------
// The trait and its entry points
// ---------------------------------------------------------------------

/// A value with a frame encoding: `decode(encode(x)) == x`.
///
/// A frame family (a message enum) writes its tag byte as its first field
/// and answers an unknown tag with [`DsmError::BadTag`].
pub trait Wire: Sized {
    /// Fewest bytes any value takes on the wire. A list's claimed length
    /// is checked against it and the bytes left before anything is
    /// allocated, so it must never exceed the true minimum.
    const MIN_WIRE: usize = 1;
    /// Appends this value's fields to the frame.
    fn encode(&self, w: &mut FrameWriter);
    /// Reads the value back; every malformation is a typed error.
    fn decode(r: &mut FrameReader<'_>) -> Result<Self, DsmError>;
    /// Appends `items` the way `Vec<Self>` travels: a `u64` count, then
    /// each value. `u8` overrides it with one copy.
    fn encode_list(items: &[Self], w: &mut FrameWriter) {
        w.usize(items.len());
        for item in items {
            item.encode(w);
        }
    }
    /// Reads a list written by [`Wire::encode_list`].
    fn decode_list(r: &mut FrameReader<'_>) -> Result<Vec<Self>, DsmError> {
        let n = r.len(Self::MIN_WIRE)?;
        (0..n).map(|_| Self::decode(r)).collect()
    }
}

/// Seals `value` into one checksummed frame.
pub fn to_frame<T: Wire>(value: &T) -> Vec<u8> {
    let mut w = FrameWriter::default();
    value.encode(&mut w);
    w.finish()
}

/// Opens one frame: verifies the checksum, decodes a `T`, and rejects
/// bytes left over after it.
///
/// # Errors
/// [`DsmError::Truncated`] for frames shorter than tag + checksum,
/// [`DsmError::Checksum`] on a sum mismatch, [`DsmError::Trailing`] for
/// junk after the value, and whatever `T`'s decode reports.
pub fn from_frame<T: Wire>(frame: &[u8]) -> Result<T, DsmError> {
    let mut r = FrameReader::checked(frame)?;
    let value = T::decode(&mut r)?;
    match r.remaining() {
        0 => Ok(value),
        extra => Err(DsmError::Trailing { extra }),
    }
}

/// The malformed-frame contract every frame family is tested against,
/// starting from one valid `frame` of a `T`: the frame decodes, every
/// truncation of it is a typed error, every single-byte flip is rejected,
/// and 5 000 seeded buffers — the frame's body with one to three bytes
/// overwritten and a quarter of them cut short, under a recomputed
/// checksum so the decoder itself sees them — decode or fail typed
/// without panicking.
///
/// # Errors
/// Names the first buffer that broke the contract.
pub fn check_malformed<T: Wire>(frame: &[u8]) -> Result<(), String> {
    if let Err(e) = from_frame::<T>(frame) {
        return Err(format!("the valid frame fails: {e}"));
    }
    for cut in 0..frame.len() {
        if from_frame::<T>(&frame[..cut]).is_ok() {
            return Err(format!("the frame cut to {cut} bytes decodes"));
        }
    }
    for at in 0..frame.len() {
        for flip in [0x01u8, 0x80, 0xff] {
            let mut bad = frame.to_vec();
            bad[at] ^= flip;
            if from_frame::<T>(&bad).is_ok() {
                return Err(format!("flip {flip:#04x} at byte {at} decodes"));
            }
        }
    }
    let mut seed = 0x5eed_u64;
    let mut below = |n: usize| {
        seed = seed
            .wrapping_mul(0x5851_F42D_4C95_7F2D)
            .wrapping_add(0x1405_7B7E_F767_814F);
        (seed >> 33) as usize % n.max(1)
    };
    for _ in 0..5_000 {
        let mut buf = frame[..frame.len() - 4].to_vec();
        for _ in 0..=below(3) {
            let at = below(buf.len());
            buf[at] = below(256) as u8;
        }
        if below(4) == 0 {
            buf.truncate(below(buf.len()));
        }
        let sum = checksum(&buf);
        buf.extend_from_slice(&sum.to_le_bytes());
        let _ = from_frame::<T>(&buf);
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Primitives and containers
// ---------------------------------------------------------------------

impl Wire for () {
    const MIN_WIRE: usize = 0;
    fn encode(&self, _w: &mut FrameWriter) {}
    fn decode(_r: &mut FrameReader<'_>) -> Result<Self, DsmError> {
        Ok(())
    }
}

impl Wire for u8 {
    fn encode(&self, w: &mut FrameWriter) {
        w.u8(*self);
    }
    fn decode(r: &mut FrameReader<'_>) -> Result<Self, DsmError> {
        r.u8()
    }
    fn encode_list(items: &[u8], w: &mut FrameWriter) {
        w.bytes(items);
    }
    fn decode_list(r: &mut FrameReader<'_>) -> Result<Vec<u8>, DsmError> {
        r.bytes()
    }
}

/// A `u32` that is 0 or not: every protocol flag is four bytes wide.
impl Wire for bool {
    const MIN_WIRE: usize = 4;
    fn encode(&self, w: &mut FrameWriter) {
        w.u32(u32::from(*self));
    }
    fn decode(r: &mut FrameReader<'_>) -> Result<Self, DsmError> {
        Ok(r.u32()? != 0)
    }
}

impl Wire for u32 {
    const MIN_WIRE: usize = 4;
    fn encode(&self, w: &mut FrameWriter) {
        w.u32(*self);
    }
    fn decode(r: &mut FrameReader<'_>) -> Result<Self, DsmError> {
        r.u32()
    }
}

impl Wire for u64 {
    const MIN_WIRE: usize = 8;
    fn encode(&self, w: &mut FrameWriter) {
        w.u64(*self);
    }
    fn decode(r: &mut FrameReader<'_>) -> Result<Self, DsmError> {
        r.u64()
    }
}

impl Wire for usize {
    const MIN_WIRE: usize = 8;
    fn encode(&self, w: &mut FrameWriter) {
        w.usize(*self);
    }
    fn decode(r: &mut FrameReader<'_>) -> Result<Self, DsmError> {
        r.usize()
    }
}

impl Wire for i32 {
    const MIN_WIRE: usize = 4;
    fn encode(&self, w: &mut FrameWriter) {
        w.u32(*self as u32);
    }
    fn decode(r: &mut FrameReader<'_>) -> Result<Self, DsmError> {
        Ok(r.u32()? as i32)
    }
}

impl Wire for i64 {
    const MIN_WIRE: usize = 8;
    fn encode(&self, w: &mut FrameWriter) {
        w.u64(*self as u64);
    }
    fn decode(r: &mut FrameReader<'_>) -> Result<Self, DsmError> {
        Ok(r.u64()? as i64)
    }
}

impl Wire for Duration {
    const MIN_WIRE: usize = 12;
    fn encode(&self, w: &mut FrameWriter) {
        w.u64(self.as_secs());
        w.u32(self.subsec_nanos());
    }
    fn decode(r: &mut FrameReader<'_>) -> Result<Self, DsmError> {
        let secs = r.u64()?;
        let nanos = r.u32()?;
        if nanos >= 1_000_000_000 {
            return Err(DsmError::Oversize {
                len: nanos as usize,
                max: 999_999_999,
            });
        }
        Ok(Duration::new(secs, nanos))
    }
}

impl Wire for String {
    const MIN_WIRE: usize = 8;
    fn encode(&self, w: &mut FrameWriter) {
        w.bytes(self.as_bytes());
    }
    fn decode(r: &mut FrameReader<'_>) -> Result<Self, DsmError> {
        String::from_utf8(r.bytes()?).map_err(|e| DsmError::Utf8 {
            valid_up_to: e.utf8_error().valid_up_to(),
        })
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_WIRE: usize = 8;
    fn encode(&self, w: &mut FrameWriter) {
        T::encode_list(self, w);
    }
    fn decode(r: &mut FrameReader<'_>) -> Result<Self, DsmError> {
        T::decode_list(r)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, w: &mut FrameWriter) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut FrameReader<'_>) -> Result<Self, DsmError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            other => Err(DsmError::BadTag(other)),
        }
    }
}

/// A tuple travels as its fields in order: the records of the frame
/// families, and the rows of types other crates own.
macro_rules! tuple_wire {
    ($($t:ident . $i:tt),+) => {
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            const MIN_WIRE: usize = 0 $(+ $t::MIN_WIRE)+;
            fn encode(&self, w: &mut FrameWriter) {
                $(self.$i.encode(w);)+
            }
            fn decode(r: &mut FrameReader<'_>) -> Result<Self, DsmError> {
                Ok(($($t::decode(r)?,)+))
            }
        }
    };
}

tuple_wire!(A.0, B.1);
tuple_wire!(A.0, B.1, C.2);
tuple_wire!(A.0, B.1, C.2, D.3, E.4);

/// Implements [`Wire`] for a struct as its named fields, in the order
/// listed: each record's field list is written once, and a field whose
/// listed type is not its declared one does not compile.
///
/// ```
/// use genomedsm_dsm::{from_frame, to_frame, wire_struct};
///
/// #[derive(Debug, PartialEq)]
/// struct Lease {
///     tag: u8,
///     holder: usize,
///     pages: Vec<u64>,
/// }
/// wire_struct!(Lease { tag: u8, holder: usize, pages: Vec<u64> });
///
/// let lease = Lease { tag: 0x30, holder: 2, pages: vec![7, 9] };
/// assert_eq!(from_frame::<Lease>(&to_frame(&lease)), Ok(lease));
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($ty:ident { $($f:ident: $t:ty),+ $(,)? }) => {
        impl $crate::Wire for $ty {
            const MIN_WIRE: usize = 0 $(+ <$t as $crate::Wire>::MIN_WIRE)+;
            fn encode(&self, w: &mut $crate::FrameWriter) {
                $($crate::Wire::encode(&self.$f, w);)+
            }
            fn decode(r: &mut $crate::FrameReader<'_>) -> Result<Self, $crate::DsmError> {
                Ok($ty { $($f: <$t as $crate::Wire>::decode(r)?),+ })
            }
        }
    };
}

wire_struct!(NodeStats {
    communication: Duration,
    lock_cv: Duration,
    barrier: Duration,
    total: Duration,
    modeled_network: Duration,
    measured_network: Duration,
    datagrams_sent: u64,
    datagrams_received: u64,
    malformed_dropped: u64,
    page_fetches: u64,
    diffs_sent: u64,
    invalidations: u64,
    evictions: u64,
    migrations: u64,
    msgs_sent: u64,
    bytes_sent: u64,
    retransmits: u64,
    dups_dropped: u64,
    corrupt_dropped: u64,
    recovery_time: Duration,
    takeovers: u64,
    rejoins: u64,
    leases_broken: u64,
    obituaries: u64,
    waiters_woken: u64,
});

// ---------------------------------------------------------------------
// Msg
// ---------------------------------------------------------------------

const MSG_GETPAGE: u8 = 0;
const MSG_DIFF: u8 = 1;
const MSG_ACQUIRE: u8 = 2;
const MSG_RELEASE: u8 = 3;
const MSG_SETCV: u8 = 4;
const MSG_WAITCV: u8 = 5;
const MSG_BARRIER: u8 = 6;
const MSG_MIGRATION_NOTICE: u8 = 7;
const MSG_MIGRATE_OUT: u8 = 8;
const MSG_ADOPT_PAGE: u8 = 9;
const MSG_SHUTDOWN: u8 = 10;
// 11 was a liveness heartbeat and 13 a stalled wait's probe of its cv
// manager; both are retired, never reused.
const MSG_OBITUARY: u8 = 12;
const MSG_REJOIN: u8 = 14;

wire_struct!(Notice {
    page: u64,
    writer: usize,
    home: usize,
});

/// A diff travels as a list of `(offset: u32, data: bytes)` runs, the
/// frame a `Vec` of [`crate::msg::Patch`] records would be, and decodes
/// straight into the flat run table and byte buffer.
impl Wire for Patches {
    const MIN_WIRE: usize = 8;
    fn encode(&self, w: &mut FrameWriter) {
        w.usize(self.len());
        for (offset, data) in self.runs() {
            w.u32(offset);
            w.bytes(data);
        }
    }
    fn decode(r: &mut FrameReader<'_>) -> Result<Self, DsmError> {
        // A run is at least its offset and its length field.
        const RUN_MIN_WIRE: usize = 12;
        let n = r.len(RUN_MIN_WIRE)?;
        let mut patches = Patches::default();
        patches.reserve(n, r.remaining() - n * RUN_MIN_WIRE);
        for _ in 0..n {
            let offset = r.u32()?;
            let data = r.byte_slice()?;
            let len = u32::try_from(data.len()).map_err(|_| DsmError::Oversize {
                len: data.len(),
                max: u32::MAX as usize,
            })?;
            patches.push_run(offset, len, data);
        }
        Ok(patches)
    }
}

impl Wire for Msg {
    fn encode(&self, w: &mut FrameWriter) {
        match self {
            Msg::GetPage { page, from, epoch } => {
                w.u8(MSG_GETPAGE);
                w.u64(*page);
                w.usize(*from);
                w.u64(*epoch);
            }
            Msg::Diff {
                page,
                from,
                patches,
                epoch,
            } => {
                w.u8(MSG_DIFF);
                w.u64(*page);
                w.usize(*from);
                w.u64(*epoch);
                patches.encode(w);
            }
            Msg::Acquire {
                lock,
                from,
                last_seq,
            } => {
                w.u8(MSG_ACQUIRE);
                w.u32(*lock);
                w.usize(*from);
                w.u64(*last_seq);
            }
            Msg::Release {
                lock,
                from,
                notices,
            } => {
                w.u8(MSG_RELEASE);
                w.u32(*lock);
                w.usize(*from);
                notices.encode(w);
            }
            Msg::SetCv { cv, from, notices } => {
                w.u8(MSG_SETCV);
                w.u32(*cv);
                w.usize(*from);
                notices.encode(w);
            }
            Msg::WaitCv { cv, from, last_seq } => {
                w.u8(MSG_WAITCV);
                w.u32(*cv);
                w.usize(*from);
                w.u64(*last_seq);
            }
            Msg::Barrier { from, notices } => {
                w.u8(MSG_BARRIER);
                w.usize(*from);
                notices.encode(w);
            }
            Msg::MigrationNotice { epoch, incoming } => {
                w.u8(MSG_MIGRATION_NOTICE);
                w.u64(*epoch);
                incoming.encode(w);
            }
            Msg::MigrateOut { page, to } => {
                w.u8(MSG_MIGRATE_OUT);
                w.u64(*page);
                w.usize(*to);
            }
            Msg::AdoptPage { page, data } => {
                w.u8(MSG_ADOPT_PAGE);
                w.u64(*page);
                w.bytes(data);
            }
            Msg::Shutdown => w.u8(MSG_SHUTDOWN),
            Msg::Obituary { node, incarnation } => {
                w.u8(MSG_OBITUARY);
                w.usize(*node);
                w.u32(*incarnation);
            }
            Msg::Rejoin {
                node,
                incarnation,
                admit_at_round,
                stride,
            } => {
                w.u8(MSG_REJOIN);
                w.usize(*node);
                w.u32(*incarnation);
                w.u64(*admit_at_round);
                w.u64(*stride);
            }
        }
    }

    fn decode(r: &mut FrameReader<'_>) -> Result<Self, DsmError> {
        Ok(match r.u8()? {
            MSG_GETPAGE => Msg::GetPage {
                page: r.u64()?,
                from: r.usize()?,
                epoch: r.u64()?,
            },
            MSG_DIFF => Msg::Diff {
                page: r.u64()?,
                from: r.usize()?,
                epoch: r.u64()?,
                patches: Wire::decode(r)?,
            },
            MSG_ACQUIRE => Msg::Acquire {
                lock: r.u32()?,
                from: r.usize()?,
                last_seq: r.u64()?,
            },
            MSG_RELEASE => Msg::Release {
                lock: r.u32()?,
                from: r.usize()?,
                notices: Wire::decode(r)?,
            },
            MSG_SETCV => Msg::SetCv {
                cv: r.u32()?,
                from: r.usize()?,
                notices: Wire::decode(r)?,
            },
            MSG_WAITCV => Msg::WaitCv {
                cv: r.u32()?,
                from: r.usize()?,
                last_seq: r.u64()?,
            },
            MSG_BARRIER => Msg::Barrier {
                from: r.usize()?,
                notices: Wire::decode(r)?,
            },
            MSG_MIGRATION_NOTICE => Msg::MigrationNotice {
                epoch: r.u64()?,
                incoming: Wire::decode(r)?,
            },
            MSG_MIGRATE_OUT => Msg::MigrateOut {
                page: r.u64()?,
                to: r.usize()?,
            },
            MSG_ADOPT_PAGE => Msg::AdoptPage {
                page: r.u64()?,
                data: r.bytes()?,
            },
            MSG_SHUTDOWN => Msg::Shutdown,
            MSG_OBITUARY => Msg::Obituary {
                node: r.usize()?,
                incarnation: r.u32()?,
            },
            MSG_REJOIN => Msg::Rejoin {
                node: r.usize()?,
                incarnation: r.u32()?,
                admit_at_round: r.u64()?,
                stride: r.u64()?,
            },
            other => return Err(DsmError::BadTag(other)),
        })
    }
}

/// Encodes a request into a checksummed frame.
pub fn encode_msg(msg: &Msg) -> Vec<u8> {
    to_frame(msg)
}

/// Decodes a request frame; returns a typed error on any malformation.
pub fn decode_msg(frame: &[u8]) -> Result<Msg, DsmError> {
    from_frame(frame)
}

// ---------------------------------------------------------------------
// Reply
// ---------------------------------------------------------------------

const REPLY_PAGE: u8 = 0x80;
const REPLY_DIFF_ACK: u8 = 0x81;
const REPLY_LOCK_GRANTED: u8 = 0x82;
const REPLY_CV_GRANTED: u8 = 0x83;
const REPLY_BARRIER_DONE: u8 = 0x84;
const REPLY_NODE_FAILED: u8 = 0x85;
// 0x86 was the report answering tag 13's probe; retired, never reused.
const REPLY_REJOIN_ACK: u8 = 0x87;

impl Wire for Reply {
    fn encode(&self, w: &mut FrameWriter) {
        match self {
            Reply::Page { page, data } => {
                w.u8(REPLY_PAGE);
                w.u64(*page);
                w.bytes(data);
            }
            Reply::DiffAck => w.u8(REPLY_DIFF_ACK),
            Reply::LockGranted { notices, seq } => {
                w.u8(REPLY_LOCK_GRANTED);
                w.u64(*seq);
                notices.encode(w);
            }
            Reply::CvGranted { notices, seq } => {
                w.u8(REPLY_CV_GRANTED);
                w.u64(*seq);
                notices.encode(w);
            }
            Reply::BarrierDone {
                notices,
                migrations,
                dead,
            } => {
                w.u8(REPLY_BARRIER_DONE);
                notices.encode(w);
                migrations.encode(w);
                dead.encode(w);
            }
            Reply::NodeFailed { node } => {
                w.u8(REPLY_NODE_FAILED);
                w.usize(*node);
            }
            Reply::RejoinAck {
                round,
                dead,
                migrations,
            } => {
                w.u8(REPLY_REJOIN_ACK);
                w.u64(*round);
                dead.encode(w);
                migrations.encode(w);
            }
        }
    }

    fn decode(r: &mut FrameReader<'_>) -> Result<Self, DsmError> {
        Ok(match r.u8()? {
            REPLY_PAGE => Reply::Page {
                page: r.u64()?,
                data: r.bytes()?,
            },
            REPLY_DIFF_ACK => Reply::DiffAck,
            REPLY_LOCK_GRANTED => Reply::LockGranted {
                seq: r.u64()?,
                notices: Wire::decode(r)?,
            },
            REPLY_CV_GRANTED => Reply::CvGranted {
                seq: r.u64()?,
                notices: Wire::decode(r)?,
            },
            REPLY_BARRIER_DONE => Reply::BarrierDone {
                notices: Wire::decode(r)?,
                migrations: Wire::decode(r)?,
                dead: Wire::decode(r)?,
            },
            REPLY_NODE_FAILED => Reply::NodeFailed { node: r.usize()? },
            REPLY_REJOIN_ACK => Reply::RejoinAck {
                round: r.u64()?,
                dead: Wire::decode(r)?,
                migrations: Wire::decode(r)?,
            },
            other => return Err(DsmError::BadTag(other)),
        })
    }
}

/// Encodes a reply into a checksummed frame.
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    to_frame(reply)
}

/// Decodes a reply frame; returns a typed error on any malformation.
pub fn decode_reply(frame: &[u8]) -> Result<Reply, DsmError> {
    from_frame(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Patch;

    const TAG: u8 = 0x77;

    /// Round-trips `v` behind a tag byte (a frame is never empty).
    fn roundtrip<T: Wire + Clone + PartialEq + std::fmt::Debug>(v: T) {
        let frame = to_frame(&(TAG, v.clone()));
        assert_eq!(from_frame::<(u8, T)>(&frame).expect("decode"), (TAG, v));
    }

    #[test]
    fn roundtrip_simple() {
        let m = Msg::GetPage {
            page: 42,
            from: 3,
            epoch: 7,
        };
        assert_eq!(from_frame::<Msg>(&to_frame(&m)).unwrap(), m);
    }

    #[test]
    fn single_byte_flip_is_always_caught() {
        let m = Msg::Diff {
            page: 9,
            from: 1,
            epoch: 0,
            patches: [Patch {
                offset: 4,
                data: vec![1, 2, 3, 250],
            }]
            .into_iter()
            .collect(),
        };
        let frame = to_frame(&m);
        for i in 0..frame.len() {
            for flip in [0x01u8, 0x5a, 0xff] {
                let mut bad = frame.clone();
                bad[i] ^= flip;
                assert!(
                    from_frame::<Msg>(&bad).is_err(),
                    "flip {flip:#x} at byte {i} went undetected"
                );
            }
        }
    }

    #[test]
    fn supervision_frames_roundtrip() {
        for m in [
            Msg::Obituary {
                node: 2,
                incarnation: 0,
            },
            Msg::Rejoin {
                node: 3,
                incarnation: 2,
                admit_at_round: 41,
                stride: 9,
            },
        ] {
            assert_eq!(from_frame::<Msg>(&to_frame(&m)).unwrap(), m);
        }
        for r in [
            Reply::NodeFailed { node: 4 },
            Reply::RejoinAck {
                round: 12,
                dead: vec![5],
                migrations: vec![(17, 2), (40, 0)],
            },
            Reply::BarrierDone {
                notices: vec![],
                migrations: vec![(3, 1)],
                dead: vec![2],
            },
        ] {
            assert_eq!(from_frame::<Reply>(&to_frame(&r)).unwrap(), r);
        }
    }

    #[test]
    fn truncation_is_typed() {
        let frame = to_frame(&Reply::DiffAck);
        for cut in 0..frame.len() {
            assert!(from_frame::<Reply>(&frame[..cut]).is_err());
        }
    }

    #[test]
    fn bad_tag_is_typed() {
        let frame = |tag| {
            let mut w = FrameWriter::default();
            w.u8(tag);
            w.u64(1);
            w.finish()
        };
        // 11 and 13 (requests) and 0x86 (a reply) are retired tags.
        for tag in [0x7f, 11, 13] {
            assert_eq!(from_frame::<Msg>(&frame(tag)), Err(DsmError::BadTag(tag)));
        }
        assert_eq!(
            from_frame::<Reply>(&frame(0x86)),
            Err(DsmError::BadTag(0x86))
        );
    }

    #[test]
    fn oversize_length_rejected_without_allocation() {
        // A Diff frame claiming 2^60 patches must fail fast.
        let mut w = FrameWriter::default();
        w.u8(MSG_DIFF);
        w.u64(0); // page
        w.u64(0); // from
        w.u64(0); // epoch
        w.u64(1 << 60); // patch count
        let frame = w.finish();
        assert!(matches!(
            from_frame::<Msg>(&frame),
            Err(DsmError::Oversize { .. })
        ));
        // The bound is per element type: two notices need 48 bytes, so a
        // count of 2 over 47 bytes of body is refused before allocating.
        let mut w = FrameWriter::default();
        w.u8(MSG_BARRIER);
        w.u64(0); // from
        w.u64(2); // notice count
        for _ in 0..47 {
            w.u8(0);
        }
        assert_eq!(
            from_frame::<Msg>(&w.finish()),
            Err(DsmError::Oversize { len: 2, max: 1 })
        );
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(());
        roundtrip(0xabu8);
        roundtrip(true);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(usize::MAX);
        roundtrip(-123i32);
        roundtrip(i64::MIN);
        roundtrip(Duration::new(3, 999_999_999));
        roundtrip("héllo".to_string());
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(vec![0u8, 255, 7]);
        roundtrip(Some((7usize, "x".to_string())));
        roundtrip(Option::<u32>::None);
        roundtrip((1u8, 2u32, vec![3i64]));
        roundtrip((1u8, 2u32, (4i32, vec![vec![5u8]])));
        roundtrip((1u8, 2u32, 3u64, 4i32, -5i64));
    }

    #[test]
    fn node_stats_roundtrip() {
        let s = NodeStats {
            total: Duration::from_millis(1234),
            page_fetches: 42,
            measured_network: Duration::from_micros(77),
            datagrams_sent: 9,
            ..NodeStats::default()
        };
        let frame = to_frame(&(TAG, s.clone()));
        let (_, back) = from_frame::<(u8, NodeStats)>(&frame).expect("decode");
        assert_eq!(back.total, s.total);
        assert_eq!(back.page_fetches, 42);
        assert_eq!(back.measured_network, s.measured_network);
        assert_eq!(back.datagrams_sent, 9);
        // The result gather's payload meets the malformed-frame contract.
        check_malformed::<(u8, Vec<i64>, NodeStats)>(&to_frame(&(TAG, vec![-1i64, 2], s))).unwrap();
    }

    #[test]
    fn malformations_are_typed_errors() {
        let frame = to_frame(&(TAG, vec![1u32, 2, 3]));
        // Wrong family: the tag is not a request's.
        assert_eq!(from_frame::<Msg>(&frame), Err(DsmError::BadTag(TAG)));
        // Flipped byte: checksum.
        let mut bad = frame.clone();
        bad[3] ^= 0xff;
        assert!(matches!(
            from_frame::<(u8, Vec<u32>)>(&bad),
            Err(DsmError::Checksum { .. })
        ));
        // Truncation.
        assert!(from_frame::<(u8, Vec<u32>)>(&frame[..frame.len() - 6]).is_err());
        // Wrong type: trailing or short reads, never a panic.
        assert!(from_frame::<(u8, u64)>(&frame).is_err());
    }

    #[test]
    fn bad_duration_nanos_rejected() {
        let mut w = FrameWriter::default();
        w.u64(1);
        w.u32(2_000_000_000); // nanos field out of range
        let frame = w.finish();
        assert!(matches!(
            from_frame::<Duration>(&frame),
            Err(DsmError::Oversize { .. })
        ));
    }
}

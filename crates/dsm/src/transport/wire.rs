//! Wire-encodable values for the cluster result gather.
//!
//! A multi-process run computes each rank's closure result in a
//! different OS process, then all-gathers the results through the DSM
//! itself (see [`DsmSystem::run_wire`](crate::DsmSystem::run_wire)).
//! [`Wire`] is the encoding those results travel in: the same
//! checksummed [`FrameWriter`]/[`FrameReader`] discipline as the
//! protocol messages, so a corrupted gather blob is a typed
//! [`DsmError`], never a panic or a silently wrong result.

use crate::codec::{FrameReader, FrameWriter};
use crate::error::DsmError;
use crate::stats::NodeStats;
use std::time::Duration;

/// A value with a self-consistent frame encoding:
/// `decode(encode(x)) == x`.
pub trait Wire: Sized {
    /// Appends this value's fields to the frame.
    fn encode(&self, w: &mut FrameWriter);
    /// Reads the value back; every malformation is a typed error.
    fn decode(r: &mut FrameReader<'_>) -> Result<Self, DsmError>;
}

/// Encodes one value as a complete checksummed frame with tag `tag`.
pub fn encode_frame<T: Wire>(tag: u8, value: &T) -> Vec<u8> {
    let mut w = FrameWriter::new(tag);
    value.encode(&mut w);
    w.finish()
}

/// Decodes a frame produced by [`encode_frame`], checking the tag, the
/// checksum, and that no trailing bytes remain.
pub fn decode_frame<T: Wire>(tag: u8, frame: &[u8]) -> Result<T, DsmError> {
    let mut r = FrameReader::checked(frame)?;
    let got = r.u8()?;
    if got != tag {
        return Err(DsmError::BadTag(got));
    }
    let value = T::decode(&mut r)?;
    r.done(value)
}

impl Wire for () {
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
}

impl Wire for bool {
    fn encode(&self, w: &mut FrameWriter) {
        w.u8(*self as u8);
    }
    fn decode(r: &mut FrameReader<'_>) -> Result<Self, DsmError> {
        Ok(r.u8()? != 0)
    }
}

impl Wire for u32 {
    fn encode(&self, w: &mut FrameWriter) {
        w.u32(*self);
    }
    fn decode(r: &mut FrameReader<'_>) -> Result<Self, DsmError> {
        r.u32()
    }
}

impl Wire for u64 {
    fn encode(&self, w: &mut FrameWriter) {
        w.u64(*self);
    }
    fn decode(r: &mut FrameReader<'_>) -> Result<Self, DsmError> {
        r.u64()
    }
}

impl Wire for usize {
    fn encode(&self, w: &mut FrameWriter) {
        w.usize(*self);
    }
    fn decode(r: &mut FrameReader<'_>) -> Result<Self, DsmError> {
        r.usize()
    }
}

impl Wire for i32 {
    fn encode(&self, w: &mut FrameWriter) {
        w.u32(*self as u32);
    }
    fn decode(r: &mut FrameReader<'_>) -> Result<Self, DsmError> {
        Ok(r.u32()? as i32)
    }
}

impl Wire for i64 {
    fn encode(&self, w: &mut FrameWriter) {
        w.u64(*self as u64);
    }
    fn decode(r: &mut FrameReader<'_>) -> Result<Self, DsmError> {
        Ok(r.u64()? as i64)
    }
}

impl Wire for f64 {
    fn encode(&self, w: &mut FrameWriter) {
        w.u64(self.to_bits());
    }
    fn decode(r: &mut FrameReader<'_>) -> Result<Self, DsmError> {
        Ok(f64::from_bits(r.u64()?))
    }
}

impl Wire for Duration {
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
    fn encode(&self, w: &mut FrameWriter) {
        w.str(self);
    }
    fn decode(r: &mut FrameReader<'_>) -> Result<Self, DsmError> {
        r.str()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, w: &mut FrameWriter) {
        w.usize(self.len());
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut FrameReader<'_>) -> Result<Self, DsmError> {
        // Every element is at least one byte on the wire, so `len`'s
        // remaining-bytes bound rejects absurd counts before allocating.
        let n = r.len(1)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
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

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, w: &mut FrameWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut FrameReader<'_>) -> Result<Self, DsmError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, w: &mut FrameWriter) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
    fn decode(r: &mut FrameReader<'_>) -> Result<Self, DsmError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl Wire for NodeStats {
    fn encode(&self, w: &mut FrameWriter) {
        self.communication.encode(w);
        self.lock_cv.encode(w);
        self.barrier.encode(w);
        self.total.encode(w);
        self.modeled_network.encode(w);
        self.measured_network.encode(w);
        w.u64(self.datagrams_sent);
        w.u64(self.datagrams_received);
        w.u64(self.malformed_dropped);
        w.u64(self.page_fetches);
        w.u64(self.diffs_sent);
        w.u64(self.invalidations);
        w.u64(self.evictions);
        w.u64(self.migrations);
        w.u64(self.msgs_sent);
        w.u64(self.bytes_sent);
        w.u64(self.retransmits);
        w.u64(self.dups_dropped);
        w.u64(self.corrupt_dropped);
        self.recovery_time.encode(w);
        w.u64(self.heartbeats);
        w.u64(self.takeovers);
        w.u64(self.rejoins);
        w.u64(self.leases_broken);
        w.u64(self.obituaries);
        w.u64(self.waiters_woken);
    }
    fn decode(r: &mut FrameReader<'_>) -> Result<Self, DsmError> {
        Ok(NodeStats {
            communication: Duration::decode(r)?,
            lock_cv: Duration::decode(r)?,
            barrier: Duration::decode(r)?,
            total: Duration::decode(r)?,
            modeled_network: Duration::decode(r)?,
            measured_network: Duration::decode(r)?,
            datagrams_sent: r.u64()?,
            datagrams_received: r.u64()?,
            malformed_dropped: r.u64()?,
            page_fetches: r.u64()?,
            diffs_sent: r.u64()?,
            invalidations: r.u64()?,
            evictions: r.u64()?,
            migrations: r.u64()?,
            msgs_sent: r.u64()?,
            bytes_sent: r.u64()?,
            retransmits: r.u64()?,
            dups_dropped: r.u64()?,
            corrupt_dropped: r.u64()?,
            recovery_time: Duration::decode(r)?,
            heartbeats: r.u64()?,
            takeovers: r.u64()?,
            rejoins: r.u64()?,
            leases_broken: r.u64()?,
            obituaries: r.u64()?,
            waiters_woken: r.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TAG: u8 = 0x77;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let frame = encode_frame(TAG, &v);
        assert_eq!(decode_frame::<T>(TAG, &frame).expect("decode"), v);
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
        roundtrip(-0.5f64);
        roundtrip(Duration::new(3, 999_999_999));
        roundtrip("héllo".to_string());
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(Some((7usize, "x".to_string())));
        roundtrip(Option::<u32>::None);
        roundtrip((1u8, 2u32, vec![3i64]));
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
        let frame = encode_frame(TAG, &s);
        let back = decode_frame::<NodeStats>(TAG, &frame).expect("decode");
        assert_eq!(back.total, s.total);
        assert_eq!(back.page_fetches, 42);
        assert_eq!(back.measured_network, s.measured_network);
        assert_eq!(back.datagrams_sent, 9);
    }

    #[test]
    fn malformations_are_typed_errors() {
        let frame = encode_frame(TAG, &vec![1u32, 2, 3]);
        // Wrong tag.
        assert!(matches!(
            decode_frame::<Vec<u32>>(TAG + 1, &frame),
            Err(DsmError::BadTag(_))
        ));
        // Flipped byte: checksum.
        let mut bad = frame.clone();
        bad[3] ^= 0xff;
        assert!(matches!(
            decode_frame::<Vec<u32>>(TAG, &bad),
            Err(DsmError::Checksum { .. })
        ));
        // Truncation.
        assert!(decode_frame::<Vec<u32>>(TAG, &frame[..frame.len() - 6]).is_err());
        // Wrong type: trailing or short reads, never a panic.
        assert!(decode_frame::<u64>(TAG, &frame).is_err());
    }

    #[test]
    fn bad_duration_nanos_rejected() {
        let mut w = FrameWriter::new(TAG);
        w.u64(1);
        w.u32(2_000_000_000); // nanos field out of range
        let frame = w.finish();
        assert!(matches!(
            decode_frame::<Duration>(TAG, &frame),
            Err(DsmError::Oversize { .. })
        ));
    }
}

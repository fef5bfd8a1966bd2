//! Wire encodings for strategy results crossing process boundaries.
//!
//! A multi-process run ([`genomedsm_dsm::DsmSystem::run_wire`]) gathers every rank's
//! closure result through the DSM itself, so the result type must
//! implement the dsm crate's [`Wire`] codec. The alignment types live in
//! `genomedsm-core`, which knows nothing about the DSM — the orphan rule
//! therefore forces thin newtype wrappers here rather than impls on the
//! core types directly; each wrapper travels as a list of tuples, so the
//! codec's own container impls do the framing.

use genomedsm_core::nw::RegionAlignment;
use genomedsm_core::{GlobalAlignment, LocalRegion};
use genomedsm_dsm::{DsmError, FrameReader, FrameWriter, Wire};

/// A phase-1 result queue ([`Vec<LocalRegion>`]) in wire form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireRegions(pub Vec<LocalRegion>);

/// A phase-2 result set (`Vec<(queue index, RegionAlignment)>`) in wire
/// form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireIndexed(pub Vec<(usize, RegionAlignment)>);

/// A [`LocalRegion`] on the wire: `(s_begin, s_end, t_begin, t_end, score)`.
type RegionRow = (usize, usize, usize, usize, i32);

fn region_row(r: &LocalRegion) -> RegionRow {
    (r.s_begin, r.s_end, r.t_begin, r.t_end, r.score)
}

fn region_of((s_begin, s_end, t_begin, t_end, score): RegionRow) -> LocalRegion {
    LocalRegion {
        s_begin,
        s_end,
        t_begin,
        t_end,
        score,
    }
}

impl Wire for WireRegions {
    fn encode(&self, w: &mut FrameWriter) {
        let rows: Vec<RegionRow> = self.0.iter().map(region_row).collect();
        rows.encode(w);
    }
    fn decode(r: &mut FrameReader<'_>) -> Result<Self, DsmError> {
        let rows = Vec::<RegionRow>::decode(r)?;
        Ok(WireRegions(rows.into_iter().map(region_of).collect()))
    }
}

/// One phase-2 result on the wire: queue index, region, both aligned
/// strings, score.
type IndexedRow = (usize, RegionRow, Vec<u8>, Vec<u8>, i32);

impl Wire for WireIndexed {
    fn encode(&self, w: &mut FrameWriter) {
        let rows: Vec<IndexedRow> = self
            .0
            .iter()
            .map(|(idx, ra)| {
                let a = &ra.alignment;
                let (s, t) = (a.aligned_s.clone(), a.aligned_t.clone());
                (*idx, region_row(&ra.region), s, t, a.score)
            })
            .collect();
        rows.encode(w);
    }
    fn decode(r: &mut FrameReader<'_>) -> Result<Self, DsmError> {
        let rows = Vec::<IndexedRow>::decode(r)?;
        let indexed = rows
            .into_iter()
            .map(|(idx, region, aligned_s, aligned_t, score)| {
                let alignment = GlobalAlignment {
                    aligned_s,
                    aligned_t,
                    score,
                };
                let region = region_of(region);
                (idx, RegionAlignment { region, alignment })
            });
        Ok(WireIndexed(indexed.collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genomedsm_dsm::{check_malformed, from_frame, to_frame};

    fn region(k: usize) -> LocalRegion {
        LocalRegion {
            s_begin: k,
            s_end: k + 10,
            t_begin: 2 * k,
            t_end: 2 * k + 5,
            score: -(k as i32) + 40,
        }
    }

    #[test]
    fn regions_roundtrip() {
        let v = WireRegions((0..5).map(region).collect());
        let frame = to_frame(&(0x60u8, v.clone()));
        let back: (u8, WireRegions) = from_frame(&frame).expect("decode");
        assert_eq!(back.1, v);
        let empty = WireRegions(Vec::new());
        let frame = to_frame(&(0x60u8, empty.clone()));
        assert_eq!(
            from_frame::<(u8, WireRegions)>(&frame).expect("decode").1,
            empty
        );
    }

    #[test]
    fn indexed_roundtrip() {
        let v = WireIndexed(
            (0..3)
                .map(|k| {
                    (
                        7 * k,
                        RegionAlignment {
                            region: region(k),
                            alignment: GlobalAlignment {
                                aligned_s: vec![b'A'; k + 1],
                                aligned_t: vec![b'-'; k + 1],
                                score: k as i32 - 1,
                            },
                        },
                    )
                })
                .collect(),
        );
        let frame = to_frame(&(0x61u8, v.clone()));
        let back: (u8, WireIndexed) = from_frame(&frame).expect("decode");
        assert_eq!(back.1, v);
        check_malformed::<(u8, WireIndexed)>(&frame).unwrap();
    }

    #[test]
    fn truncated_frames_are_typed_errors() {
        let v = WireRegions(vec![region(1)]);
        check_malformed::<(u8, WireRegions)>(&to_frame(&(0x60u8, v))).unwrap();
    }
}

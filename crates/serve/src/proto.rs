//! The service wire protocol: dsm-framed messages, one hex line each.
//!
//! [`Request`] and [`Response`] are two more frame families of the `dsm`
//! codec: each implements [`Wire`], so a message is sealed by
//! [`to_frame`] and opened — checksum, decode, no trailing bytes, never a
//! panic — by [`from_frame`]; [`Request::encode`] and friends are those
//! two calls. Frames are hex-armored onto a single line
//! ([`to_hex_line`] / [`from_hex_line`]), so the transport is plain
//! line-delimited text while every payload byte stays under the wrapping
//! byte-sum checksum; a corrupted or truncated line surfaces as a typed
//! error, never a wrong answer.
//!
//! The exchange is client-driven:
//!
//! ```text
//! client                         server
//!   Hello {name, weight}    →
//!                           ←    Welcome {epoch, records}
//!   Search {id, queries,…}  →
//!                           ←    Hits {id, query 0, …}   (streamed,
//!                           ←    Hits {id, query 1, …}    ascending)
//!                           ←    Done {id, queries}
//!   Search {id', …}         →
//!                           ←    Overloaded {id', depth, limit}
//!   Reload {path}           →
//!                           ←    Reloaded {epoch, records, purged}
//!   Stats                   →
//!                           ←    StatsReply {…}
//! ```
//!
//! `Hits` messages for one request arrive in ascending query order and
//! each carries that query's *final* top-k (the engine's streaming
//! emission) — the received stream is always a prefix of the complete
//! answer.

use genomedsm_batch::Hit;
use genomedsm_core::submat::{MatrixScoring, SubstMatrix, AA_N};
use genomedsm_dsm::{from_frame, to_frame, wire_struct, DsmError, FrameReader, FrameWriter, Wire};

const REQ_HELLO: u8 = 0x40;
const REQ_SEARCH: u8 = 0x41;
const REQ_RELOAD: u8 = 0x42;
const REQ_STATS: u8 = 0x43;
const REQ_SHUTDOWN: u8 = 0x44;

const RSP_WELCOME: u8 = 0x50;
const RSP_HITS: u8 = 0x51;
const RSP_DONE: u8 = 0x52;
const RSP_OVERLOADED: u8 = 0x53;
const RSP_RELOADED: u8 = 0x54;
const RSP_STATS: u8 = 0x55;
const RSP_ERROR: u8 = 0x56;

/// A client → server message.
#[derive(Debug, Clone, PartialEq, Eq)]
// `Search` carries the full 24x24 substitution matrix inline; requests are
// transient (decode, serve, drop), so the size is irrelevant and keeping
// `MatrixScoring` unboxed lets it flow into `ScoreMode` by plain copy.
#[allow(clippy::large_enum_variant)]
pub enum Request {
    /// Introduces the client: a display name for the fairness ledger and
    /// a scheduling weight (≥ 1; a weight-2 client is entitled to twice
    /// the served units of a weight-1 client under contention).
    Hello {
        /// Client name (fairness ledger key).
        client: String,
        /// Scheduling weight, clamped to ≥ 1 by the server.
        weight: u32,
    },
    /// A search: score every query against the resident database.
    Search {
        /// Client-chosen request id, echoed on every response.
        id: u64,
        /// Hits to keep per query.
        top_k: u32,
        /// Query sequences.
        queries: Vec<Vec<u8>>,
        /// Protein scoring override: the full substitution matrix plus
        /// affine gap penalties. `None` runs the server's configured
        /// scoring mode (DNA linear-gap by default). The matrix travels
        /// in full — 24×24 `i16` scores — so a client can use any scheme,
        /// not just the baked-in names, and the server's cache keys on
        /// its fingerprint.
        scoring: Option<MatrixScoring>,
    },
    /// Hot-reload the database from a FASTA path visible to the server.
    Reload {
        /// The FASTA file to load.
        path: String,
    },
    /// Ask for service statistics.
    Stats,
    /// Ask the server to shut down gracefully.
    Shutdown,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Session opener: the resident database's identity.
    Welcome {
        /// Current database epoch.
        epoch: u64,
        /// Records in the database.
        records: u64,
    },
    /// One query's final top-k (streamed in ascending query order).
    Hits {
        /// The request this answers.
        id: u64,
        /// Query index within the request.
        query: u32,
        /// Whether this answer came from the result cache.
        cached: bool,
        /// Database epoch the answer was computed against.
        epoch: u64,
        /// The top-k hits, best first.
        hits: Vec<Hit>,
    },
    /// The request is complete; all `queries` answers were sent.
    Done {
        /// The request this finishes.
        id: u64,
        /// Number of queries answered.
        queries: u32,
    },
    /// Admission control refused the request: the queue is full.
    Overloaded {
        /// The refused request.
        id: u64,
        /// Queue depth at rejection.
        depth: u64,
        /// Queue capacity.
        limit: u64,
    },
    /// A reload completed.
    Reloaded {
        /// The new epoch.
        epoch: u64,
        /// Records in the new database.
        records: u64,
        /// Cache entries purged (exactly the superseded epochs).
        purged: u64,
    },
    /// Service statistics snapshot.
    StatsReply(ServiceStats),
    /// A request-level failure (bad reload path, malformed search…).
    Error {
        /// The request this concerns (0 when unattributable).
        id: u64,
        /// Human-readable cause.
        message: String,
    },
}

/// A statistics snapshot, as carried by [`Response::StatsReply`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Current database epoch.
    pub epoch: u64,
    /// Records in the resident database.
    pub records: u64,
    /// Requests currently queued.
    pub depth: u64,
    /// Highest queue depth observed.
    pub high_water: u64,
    /// Queue capacity (admission limit).
    pub capacity: u64,
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests refused with `Overloaded`.
    pub rejected: u64,
    /// Requests dispatched to workers.
    pub dispatched: u64,
    /// Cache hits.
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Cache insertions.
    pub cache_inserts: u64,
    /// Cache entries evicted by capacity.
    pub cache_evicted: u64,
    /// Cache entries purged by epoch reloads.
    pub cache_stale_purged: u64,
    /// Malformed or undecodable request lines the server has seen.
    pub protocol_errors: u64,
    /// Per-client fairness ledger.
    pub clients: Vec<ClientLedger>,
}

/// One client's row in the fairness ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientLedger {
    /// Client name (from `Hello`).
    pub client: String,
    /// Scheduling weight.
    pub weight: u64,
    /// Requests this client submitted.
    pub submitted: u64,
    /// Requests refused by admission control.
    pub rejected: u64,
    /// Requests dispatched to a worker.
    pub dispatched: u64,
    /// Work units (queries) served for this client.
    pub served_units: u64,
}

impl Request {
    /// Encodes the request into one checksummed frame.
    pub fn encode(&self) -> Vec<u8> {
        to_frame(self)
    }

    /// Decodes one frame into a request.
    ///
    /// # Errors
    /// Typed [`DsmError`] on any malformation — including a scoring
    /// override whose gap penalties [`MatrixScoring::gaps_valid`] refuses;
    /// never panics.
    pub fn decode(frame: &[u8]) -> Result<Self, DsmError> {
        from_frame(frame)
    }
}

impl Wire for Request {
    fn encode(&self, w: &mut FrameWriter) {
        match self {
            Request::Hello { client, weight } => {
                w.u8(REQ_HELLO);
                client.encode(w);
                w.u32(*weight);
            }
            Request::Search {
                id,
                top_k,
                queries,
                scoring,
            } => {
                w.u8(REQ_SEARCH);
                w.u64(*id);
                w.u32(*top_k);
                queries.encode(w);
                match scoring {
                    None => w.u32(0),
                    Some(ms) => {
                        w.u32(1);
                        (matrix_bytes(&ms.matrix), ms.gap_open, ms.gap_extend).encode(w);
                    }
                }
            }
            Request::Reload { path } => {
                w.u8(REQ_RELOAD);
                path.encode(w);
            }
            Request::Stats => w.u8(REQ_STATS),
            Request::Shutdown => w.u8(REQ_SHUTDOWN),
        }
    }

    fn decode(r: &mut FrameReader<'_>) -> Result<Self, DsmError> {
        Ok(match r.u8()? {
            REQ_HELLO => Request::Hello {
                client: Wire::decode(r)?,
                weight: r.u32()?,
            },
            REQ_SEARCH => Request::Search {
                id: r.u64()?,
                top_k: r.u32()?,
                queries: Wire::decode(r)?,
                scoring: decode_scoring(r)?,
            },
            REQ_RELOAD => Request::Reload {
                path: Wire::decode(r)?,
            },
            REQ_STATS => Request::Stats,
            REQ_SHUTDOWN => Request::Shutdown,
            other => return Err(DsmError::BadTag(other)),
        })
    }
}

/// Bytes of a Search frame's matrix payload: 24×24 `i16` scores,
/// row-major, little-endian.
const MATRIX_BYTES: usize = AA_N * AA_N * 2;

fn matrix_bytes(m: &SubstMatrix) -> Vec<u8> {
    let mut out = Vec::with_capacity(MATRIX_BYTES);
    for row in m.table() {
        for &s in row {
            out.extend_from_slice(&s.to_le_bytes());
        }
    }
    out
}

/// A Search's scoring override: a `u32` presence flag (0 or 1, any other
/// value a bad discriminant), then the matrix blob and both gap
/// penalties, which must pass [`MatrixScoring::gaps_valid`] — a bad
/// override is refused here, before any worker sees it.
fn decode_scoring(r: &mut FrameReader<'_>) -> Result<Option<MatrixScoring>, DsmError> {
    match r.u32()? {
        0 => return Ok(None),
        1 => {}
        other => return Err(DsmError::BadTag(u8::try_from(other).unwrap_or(u8::MAX))),
    }
    let (raw, gap_open, gap_extend) = <(Vec<u8>, i32, i32)>::decode(r)?;
    if raw.len() != MATRIX_BYTES {
        return Err(DsmError::Oversize {
            len: raw.len(),
            max: MATRIX_BYTES,
        });
    }
    let mut scores = [[0i16; AA_N]; AA_N];
    for (cell, pair) in scores.iter_mut().flatten().zip(raw.chunks_exact(2)) {
        if let &[a, b] = pair {
            *cell = i16::from_le_bytes([a, b]);
        }
    }
    let ms = MatrixScoring::new(SubstMatrix::from_scores(scores), gap_open, gap_extend);
    if !ms.gaps_valid() {
        return Err(DsmError::Invalid(
            "gap penalties must be negative and >= MatrixScoring::MIN_GAP",
        ));
    }
    Ok(Some(ms))
}

/// A [`Hit`] on the wire: `(score, target, end)`.
type HitRow = (i32, usize, (usize, usize));

impl Response {
    /// Encodes the response into one checksummed frame.
    pub fn encode(&self) -> Vec<u8> {
        to_frame(self)
    }

    /// Decodes one frame into a response.
    ///
    /// # Errors
    /// Typed [`DsmError`] on any malformation; never panics.
    pub fn decode(frame: &[u8]) -> Result<Self, DsmError> {
        from_frame(frame)
    }
}

impl Wire for Response {
    fn encode(&self, w: &mut FrameWriter) {
        match self {
            Response::Welcome { epoch, records } => {
                w.u8(RSP_WELCOME);
                w.u64(*epoch);
                w.u64(*records);
            }
            Response::Hits {
                id,
                query,
                cached,
                epoch,
                hits,
            } => {
                w.u8(RSP_HITS);
                w.u64(*id);
                w.u32(*query);
                cached.encode(w);
                w.u64(*epoch);
                let rows: Vec<HitRow> = hits.iter().map(|h| (h.score, h.target, h.end)).collect();
                rows.encode(w);
            }
            Response::Done { id, queries } => {
                w.u8(RSP_DONE);
                w.u64(*id);
                w.u32(*queries);
            }
            Response::Overloaded { id, depth, limit } => {
                w.u8(RSP_OVERLOADED);
                w.u64(*id);
                w.u64(*depth);
                w.u64(*limit);
            }
            Response::Reloaded {
                epoch,
                records,
                purged,
            } => {
                w.u8(RSP_RELOADED);
                w.u64(*epoch);
                w.u64(*records);
                w.u64(*purged);
            }
            Response::StatsReply(s) => {
                w.u8(RSP_STATS);
                s.encode(w);
            }
            Response::Error { id, message } => {
                w.u8(RSP_ERROR);
                w.u64(*id);
                message.encode(w);
            }
        }
    }

    fn decode(r: &mut FrameReader<'_>) -> Result<Self, DsmError> {
        Ok(match r.u8()? {
            RSP_WELCOME => Response::Welcome {
                epoch: r.u64()?,
                records: r.u64()?,
            },
            RSP_HITS => Response::Hits {
                id: r.u64()?,
                query: r.u32()?,
                cached: Wire::decode(r)?,
                epoch: r.u64()?,
                hits: Vec::<HitRow>::decode(r)?
                    .into_iter()
                    .map(|(score, target, end)| Hit { score, target, end })
                    .collect(),
            },
            RSP_DONE => Response::Done {
                id: r.u64()?,
                queries: r.u32()?,
            },
            RSP_OVERLOADED => Response::Overloaded {
                id: r.u64()?,
                depth: r.u64()?,
                limit: r.u64()?,
            },
            RSP_RELOADED => Response::Reloaded {
                epoch: r.u64()?,
                records: r.u64()?,
                purged: r.u64()?,
            },
            RSP_STATS => Response::StatsReply(Wire::decode(r)?),
            RSP_ERROR => Response::Error {
                id: r.u64()?,
                message: Wire::decode(r)?,
            },
            other => return Err(DsmError::BadTag(other)),
        })
    }
}

wire_struct!(ServiceStats {
    epoch: u64,
    records: u64,
    depth: u64,
    high_water: u64,
    capacity: u64,
    submitted: u64,
    rejected: u64,
    dispatched: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_inserts: u64,
    cache_evicted: u64,
    cache_stale_purged: u64,
    protocol_errors: u64,
    clients: Vec<ClientLedger>,
});

wire_struct!(ClientLedger {
    client: String,
    weight: u64,
    submitted: u64,
    rejected: u64,
    dispatched: u64,
    served_units: u64,
});

/// Hex-armors a frame onto one line (lowercase, no newline).
pub fn to_hex_line(frame: &[u8]) -> String {
    let mut s = String::with_capacity(frame.len() * 2);
    for &b in frame {
        let hi = b >> 4;
        let lo = b & 0xf;
        s.push(char::from_digit(hi as u32, 16).unwrap_or('0'));
        s.push(char::from_digit(lo as u32, 16).unwrap_or('0'));
    }
    s
}

/// Decodes one hex-armored line back into frame bytes.
///
/// # Errors
/// [`crate::ServeError::BadLine`] on odd length or a non-hex character —
/// the transport-level counterpart of a checksum failure.
pub fn from_hex_line(line: &str) -> Result<Vec<u8>, crate::ServeError> {
    let line = line.trim();
    if !line.len().is_multiple_of(2) {
        return Err(crate::ServeError::BadLine {
            what: format!("odd hex length {}", line.len()),
        });
    }
    let mut out = Vec::with_capacity(line.len() / 2);
    let bytes = line.as_bytes();
    for pair in bytes.chunks_exact(2) {
        let &[h, l] = pair else {
            continue;
        };
        let hi = hex_val(h).ok_or_else(|| crate::ServeError::BadLine {
            what: format!("non-hex byte {h:#04x}"),
        })?;
        let lo = hex_val(l).ok_or_else(|| crate::ServeError::BadLine {
            what: format!("non-hex byte {l:#04x}"),
        })?;
        out.push((hi << 4) | lo);
    }
    Ok(out)
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Round-trips `req` through a frame and a hex line, and holds the
    /// frame to the codec's malformed-frame contract; returns the line.
    fn roundtrip_req(req: Request) -> String {
        let frame = req.encode();
        assert_eq!(Request::decode(&frame).unwrap(), req);
        genomedsm_dsm::check_malformed::<Request>(&frame).unwrap();
        let line = to_hex_line(&frame);
        assert!(!line.contains('\n'));
        assert_eq!(from_hex_line(&line).unwrap(), frame);
        line
    }

    fn roundtrip_rsp(rsp: Response) -> String {
        let frame = rsp.encode();
        assert_eq!(Response::decode(&frame).unwrap(), rsp);
        genomedsm_dsm::check_malformed::<Response>(&frame).unwrap();
        let line = to_hex_line(&frame);
        assert_eq!(from_hex_line(&line).unwrap(), frame);
        line
    }

    /// The exact lines of the requests in [`requests_roundtrip`], in order.
    /// Frozen: a codec change that moves one byte breaks older clients.
    const REQUEST_GOLDEN: [&str; 5] = [
        "400500000000000000616c6963650300000046020000",
        "412a0000000000000005000000030000000000000004000000000000004143475400000000000000000700000000000000474154544143410000000092030000",
        "420a000000000000002f746d702f64622e6661b6030000",
        "4343000000",
        "4444000000",
    ];

    /// The exact lines of the responses in [`responses_roundtrip`].
    const RESPONSE_GOLDEN: [&str; 7] = [
        "50010000000000000009000000000000005a000000",
        "5107000000000000000200000001000000030000000000000002000000000000000b000000040000000000000005000000000000000600000000000000030000000000000000000000000000000000000001000000000000007e000000",
        "520700000000000000030000005c000000",
        "530900000000000000100000000000000010000000000000007c000000",
        "5402000000000000000c00000000000000050000000000000067000000",
        "5502000000000000000a0000000000000001000000000000000400000000000000100000000000000014000000000000000200000000000000130000000000000007000000000000000c000000000000000c0000000000000001000000000000000300000000000000000000000000000001000000000000000300000000000000626f6202000000000000000a0000000000000001000000000000000900000000000000280000000000000037020000",
        "5600000000000000000c000000000000006e6f20737563682066696c65d2040000",
    ];

    #[test]
    fn requests_roundtrip() {
        let lines: Vec<String> = [
            Request::Hello {
                client: "alice".into(),
                weight: 3,
            },
            Request::Search {
                id: 42,
                top_k: 5,
                queries: vec![b"ACGT".to_vec(), b"".to_vec(), b"GATTACA".to_vec()],
                scoring: None,
            },
            Request::Reload {
                path: "/tmp/db.fa".into(),
            },
            Request::Stats,
            Request::Shutdown,
        ]
        .into_iter()
        .map(roundtrip_req)
        .collect();
        assert_eq!(lines, REQUEST_GOLDEN);
    }

    #[test]
    fn responses_roundtrip() {
        let lines: Vec<String> = [
            Response::Welcome {
                epoch: 1,
                records: 9,
            },
            Response::Hits {
                id: 7,
                query: 2,
                cached: true,
                epoch: 3,
                hits: vec![
                    Hit {
                        score: 11,
                        target: 4,
                        end: (5, 6),
                    },
                    Hit {
                        score: 3,
                        target: 0,
                        end: (0, 1),
                    },
                ],
            },
            Response::Done { id: 7, queries: 3 },
            Response::Overloaded {
                id: 9,
                depth: 16,
                limit: 16,
            },
            Response::Reloaded {
                epoch: 2,
                records: 12,
                purged: 5,
            },
            Response::StatsReply(ServiceStats {
                epoch: 2,
                records: 10,
                depth: 1,
                high_water: 4,
                capacity: 16,
                submitted: 20,
                rejected: 2,
                dispatched: 19,
                cache_hits: 7,
                cache_misses: 12,
                cache_inserts: 12,
                cache_evicted: 1,
                cache_stale_purged: 3,
                protocol_errors: 0,
                clients: vec![ClientLedger {
                    client: "bob".into(),
                    weight: 2,
                    submitted: 10,
                    rejected: 1,
                    dispatched: 9,
                    served_units: 40,
                }],
            }),
            Response::Error {
                id: 0,
                message: "no such file".into(),
            },
        ]
        .into_iter()
        .map(roundtrip_rsp)
        .collect();
        assert_eq!(lines, RESPONSE_GOLDEN);
    }

    #[test]
    fn protein_scoring_params_roundtrip_in_full() {
        // A named matrix with non-default gaps...
        roundtrip_req(Request::Search {
            id: 9,
            top_k: 3,
            queries: vec![b"WQHKRWCEW".to_vec()],
            scoring: Some(MatrixScoring::new(SubstMatrix::pam250(), -10, -2)),
        });
        // ...and a fully custom table: every cell must survive the wire.
        let mut scores = [[0i16; AA_N]; AA_N];
        for (i, row) in scores.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = (i as i16 * 24 + j as i16) - 288;
            }
        }
        let ms = MatrixScoring::new(SubstMatrix::from_scores(scores), -7, -1);
        let req = Request::Search {
            id: 10,
            top_k: 1,
            queries: vec![b"ARND".to_vec()],
            scoring: Some(ms),
        };
        roundtrip_req(req.clone());
        match Request::decode(&req.encode()).unwrap() {
            Request::Search {
                scoring: Some(got), ..
            } => {
                assert_eq!(got, ms);
                assert_eq!(got.fingerprint(), ms.fingerprint());
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn truncated_matrix_payload_is_a_typed_error() {
        // Hand-build a Search frame whose matrix blob is one byte short:
        // the decoder must refuse with a typed error, never panic.
        let mut w = FrameWriter::default();
        w.u8(REQ_SEARCH);
        w.u64(1);
        w.u32(1);
        w.u64(0);
        w.u32(1);
        w.bytes(&vec![0u8; MATRIX_BYTES - 1]);
        w.u32(0);
        w.u32(0);
        assert!(Request::decode(&w.finish()).is_err());
        // And a presence flag outside {0, 1} is a bad discriminant, like
        // every other one.
        let mut w = FrameWriter::default();
        w.u8(REQ_SEARCH);
        w.u64(1);
        w.u32(1);
        w.u64(0);
        w.u32(7);
        assert_eq!(Request::decode(&w.finish()), Err(DsmError::BadTag(7)));
    }

    #[test]
    fn gap_penalties_outside_the_admitted_range_are_refused() {
        let search = |gap_open, gap_extend| Request::Search {
            id: 3,
            top_k: 2,
            queries: vec![b"WQHK".to_vec()],
            scoring: Some(MatrixScoring::new(
                SubstMatrix::blosum62(),
                gap_open,
                gap_extend,
            )),
        };
        for (open, extend) in [(-11, 0), (1, -1), (-11, i32::MIN), (i32::MIN, -1)] {
            assert!(
                matches!(
                    Request::decode(&search(open, extend).encode()),
                    Err(DsmError::Invalid(_))
                ),
                "{open}/{extend} accepted"
            );
        }
        // A cheap open with a dear extension is unusual but valid.
        roundtrip_req(search(-1, -5));
        roundtrip_req(search(MatrixScoring::MIN_GAP, -1));
    }

    #[test]
    fn corrupted_line_is_a_typed_error_never_a_panic() {
        let frame = Request::Stats.encode();
        let mut line = to_hex_line(&frame);
        // Flip one hex digit: the checksum catches it.
        let flipped = if line.ends_with('0') { '1' } else { '0' };
        line.pop();
        line.push(flipped);
        let bytes = from_hex_line(&line).unwrap();
        assert!(Request::decode(&bytes).is_err());
        // Structural junk.
        assert!(from_hex_line("zz").is_err());
        assert!(from_hex_line("abc").is_err());
        assert!(Request::decode(&[]).is_err());
        assert!(Response::decode(&[1, 2, 3]).is_err());
        // Wrong-family tag.
        let rsp_frame = Response::Done { id: 1, queries: 1 }.encode();
        assert!(Request::decode(&rsp_frame).is_err());
    }

    #[test]
    fn negative_scores_survive_the_u32_cast() {
        // Hits always have score > 0 in practice, but the codec must not
        // corrupt values regardless.
        roundtrip_rsp(Response::Hits {
            id: 1,
            query: 0,
            cached: false,
            epoch: 1,
            hits: vec![Hit {
                score: -5,
                target: 1,
                end: (2, 3),
            }],
        });
    }
}

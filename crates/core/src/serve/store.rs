//! Crash-safe persistence for serving sessions: a versioned binary codec
//! for [`Decomposition`]s and cached consumer plans, with end-to-end
//! corruption detection (DESIGN.md §2.8).
//!
//! # Format (version 1)
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"LOCSTORE"
//! 8       2     version (u16 LE) = 1
//! 10      8     total_len (u64 LE): whole file, incl. trailing checksum
//! 18      4     section count (u32 LE)
//! 22      ...   sections: [tag u8][payload_len u64 LE][payload]
//! end-8   8     CRC-64/XZ (u64 LE) over bytes [0, total_len - 8)
//! ```
//!
//! Session snapshots carry one graph-fingerprint section (tag 1: node
//! count, edge count, adjacency checksum — so a snapshot can never be
//! restored against the wrong graph) followed by one section per cached
//! decomposition slot (tag 2: canonical options, cluster assignment,
//! cluster colors, quality, cost meter, consumer plan). Standalone
//! decomposition blobs ([`encode_decomposition`]) use tag 3.
//!
//! # Failure semantics
//!
//! Decoding never panics: every malformed input — truncation at any byte,
//! any single-bit flip, version skew, or a snapshot of a different graph —
//! is a typed [`StoreError`] (`tests/proptest_store.rs` sweeps all of
//! these exhaustively). The outer checksum is an *integrity* check against
//! torn writes and storage rot, not an authenticity check: restore
//! re-validates structure (assignment contiguity, color arity) and
//! requires the consumer plan to be the one its decomposition implies —
//! the recorded color classes equal the decomposition's clusters grouped
//! by color, and the recorded quality equals the one the plan derives —
//! but deliberately skips the expensive per-cluster diameter sweeps the
//! plan memoizes. Writes go through
//! [`write_atomic`]: the bytes are flushed to a sibling temp file, synced,
//! and renamed into place, so a crash mid-persist leaves either the old
//! snapshot or the new one, never a torn file.

use super::request::{DecompMethod, DecomposeOptions};
use super::session::{DecompSlot, Session};
use crate::consume;
use crate::decomposition::types::{DecompQuality, Decomposition};
use locality_graph::cluster::Clustering;
use locality_graph::Graph;
use locality_sim::cost::CostMeter;
use std::error::Error;
use std::fmt;
use std::io::Write as _;
use std::path::Path;

/// File magic: "LOCality decomposition STORE".
pub const MAGIC: [u8; 8] = *b"LOCSTORE";
/// The codec version this build reads and writes.
pub const VERSION: u16 = 1;
/// Smallest well-formed file: header (22 bytes) + trailing checksum.
const MIN_LEN: usize = 30;

const TAG_GRAPH: u8 = 1;
const TAG_DECOMP_SLOT: u8 = 2;
const TAG_BARE_DECOMP: u8 = 3;

/// Typed failure of the store path. Decoding returns these instead of
/// panicking, for every corrupt, truncated, or mismatched input.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A filesystem operation failed.
    Io {
        /// Which operation (`"read"`, `"create"`, `"write"`, ...).
        op: &'static str,
        /// The OS error class.
        kind: std::io::ErrorKind,
        /// The OS error message.
        detail: String,
    },
    /// The file does not start with [`MAGIC`] — not a store file at all.
    BadMagic,
    /// The file's codec version is not one this build reads.
    UnsupportedVersion {
        /// The version the file claims.
        got: u16,
        /// The version this build supports.
        supported: u16,
    },
    /// The byte count disagrees with the recorded length (torn write,
    /// truncation, or a corrupted length field).
    Truncated {
        /// The length the header records (or the minimum for a header).
        expected: u64,
        /// The bytes actually present.
        got: u64,
    },
    /// The trailing CRC-64 does not match the content.
    ChecksumMismatch {
        /// The checksum stored in the file.
        stored: u64,
        /// The checksum recomputed over the content.
        computed: u64,
    },
    /// The envelope verified but a section's content is inconsistent.
    Malformed {
        /// Which section (or encode stage) was inconsistent.
        section: &'static str,
        /// What was wrong.
        detail: String,
    },
    /// The snapshot was taken of a different graph than the one offered at
    /// restore.
    GraphMismatch {
        /// Which part of the fingerprint disagreed.
        detail: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, kind, detail } => {
                write!(f, "store {op} failed ({kind:?}): {detail}")
            }
            StoreError::BadMagic => write!(f, "not a decomposition store file (bad magic)"),
            StoreError::UnsupportedVersion { got, supported } => {
                write!(
                    f,
                    "store version {got} unsupported (this build reads {supported})"
                )
            }
            StoreError::Truncated { expected, got } => {
                write!(
                    f,
                    "store file truncated: expected {expected} bytes, got {got}"
                )
            }
            StoreError::ChecksumMismatch { stored, computed } => write!(
                f,
                "store checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            StoreError::Malformed { section, detail } => {
                write!(f, "malformed store section {section}: {detail}")
            }
            StoreError::GraphMismatch { detail } => {
                write!(f, "store snapshot is of a different graph: {detail}")
            }
        }
    }
}

impl Error for StoreError {}

// ---------------------------------------------------------------------------
// CRC-64/XZ (reflected ECMA-182 polynomial), table-driven, const-built.

const CRC64_POLY: u64 = 0xC96C_5795_D787_0F42;

const fn crc64_table() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ CRC64_POLY
            } else {
                crc >> 1
            };
            j += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC64_TABLE: [u64; 256] = crc64_table();

/// Streaming CRC-64/XZ accumulator.
#[derive(Debug, Clone)]
struct Crc64(u64);

impl Crc64 {
    fn new() -> Self {
        Self(!0)
    }

    fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.0;
        for &b in bytes {
            crc = CRC64_TABLE[((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.0 = crc;
    }

    fn finish(&self) -> u64 {
        !self.0
    }
}

// ---------------------------------------------------------------------------
// Little-endian write helpers (encode side builds in-memory, so plain
// Vec pushes suffice; lengths are written by the assembler).

fn w16(buf: &mut Vec<u8>, x: u16) {
    buf.extend_from_slice(&x.to_le_bytes());
}

fn w32(buf: &mut Vec<u8>, x: u32) {
    buf.extend_from_slice(&x.to_le_bytes());
}

fn w64(buf: &mut Vec<u8>, x: u64) {
    buf.extend_from_slice(&x.to_le_bytes());
}

/// Frame `sections` into a complete store file: header, payloads, trailing
/// checksum.
fn assemble(sections: Vec<(u8, Vec<u8>)>) -> Vec<u8> {
    let mut body = 0usize;
    for (_, payload) in &sections {
        body += 1 + 8 + payload.len();
    }
    let total = MIN_LEN + body;
    let mut buf = Vec::with_capacity(total);
    buf.extend_from_slice(&MAGIC);
    w16(&mut buf, VERSION);
    w64(&mut buf, total as u64);
    w32(&mut buf, sections.len() as u32);
    for (tag, payload) in &sections {
        buf.push(*tag);
        w64(&mut buf, payload.len() as u64);
        buf.extend_from_slice(payload);
    }
    let mut crc = Crc64::new();
    crc.update(&buf);
    w64(&mut buf, crc.finish());
    buf
}

// ---------------------------------------------------------------------------
// Bounds-checked reader: every read is `get`-based, so corrupt interior
// lengths surface as typed errors, never as slice panics.

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8], section: &'static str) -> Self {
        Self {
            buf,
            pos: 0,
            section,
        }
    }

    fn malformed(&self, detail: String) -> StoreError {
        StoreError::Malformed {
            section: self.section,
            detail,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self.pos.checked_add(n);
        match end.and_then(|e| self.buf.get(self.pos..e)) {
            Some(bytes) => {
                self.pos += n;
                Ok(bytes)
            }
            None => Err(self.malformed(format!(
                "needs {n} more bytes at offset {} of {}",
                self.pos,
                self.buf.len()
            ))),
        }
    }

    fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, StoreError> {
        let b = self.take(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }

    fn u64(&mut self) -> Result<u64, StoreError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// A `u64` count that must fit `usize` and leave the remaining buffer
    /// plausibly large (each counted item occupies at least `min_item`
    /// bytes), so corrupt counts fail fast instead of driving huge
    /// allocations.
    fn count(&mut self, min_item: usize, what: &str) -> Result<usize, StoreError> {
        let raw = self.u64()?;
        let n = usize::try_from(raw)
            .map_err(|_| self.malformed(format!("{what} count {raw} overflows usize")))?;
        let remaining = self.buf.len() - self.pos.min(self.buf.len());
        if min_item > 0 && n > remaining / min_item.max(1) + 1 {
            return Err(self.malformed(format!(
                "{what} count {n} impossible in {remaining} remaining bytes"
            )));
        }
        Ok(n)
    }

    fn finish(&self) -> Result<(), StoreError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(self.malformed(format!(
                "{} trailing bytes after content",
                self.buf.len() - self.pos
            )))
        }
    }
}

/// Verify the envelope (length, magic, version, checksum) and return the
/// sections as `(tag, payload)` pairs.
fn open_sections(bytes: &[u8]) -> Result<Vec<(u8, &[u8])>, StoreError> {
    if bytes.len() < MIN_LEN {
        return Err(StoreError::Truncated {
            expected: MIN_LEN as u64,
            got: bytes.len() as u64,
        });
    }
    let mut header = Reader::new(bytes, "header");
    let magic = header.take(8)?;
    if magic != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version_bytes = header.take(2)?;
    let version = u16::from_le_bytes([version_bytes[0], version_bytes[1]]);
    if version != VERSION {
        return Err(StoreError::UnsupportedVersion {
            got: version,
            supported: VERSION,
        });
    }
    let total_len = header.u64()?;
    if total_len != bytes.len() as u64 {
        return Err(StoreError::Truncated {
            expected: total_len,
            got: bytes.len() as u64,
        });
    }
    let content_end = bytes.len() - 8;
    let mut stored = [0u8; 8];
    stored.copy_from_slice(&bytes[content_end..]);
    let stored = u64::from_le_bytes(stored);
    let mut crc = Crc64::new();
    crc.update(&bytes[..content_end]);
    let computed = crc.finish();
    if stored != computed {
        return Err(StoreError::ChecksumMismatch { stored, computed });
    }
    let section_count = header.u32()? as usize;
    let mut r = Reader::new(&bytes[header.pos..content_end], "section table");
    let mut sections = Vec::new();
    for _ in 0..section_count {
        let tag = r.u8()?;
        let len = r.count(1, "section payload")?;
        let payload = r.take(len)?;
        sections.push((tag, payload));
    }
    r.finish()?;
    Ok(sections)
}

// ---------------------------------------------------------------------------
// Graph fingerprint.

/// `(node count, edge count, adjacency CRC)` — the adjacency CRC folds
/// every node's degree and neighbor list in order, so any structural
/// difference between two graphs of equal size is still caught.
fn graph_fingerprint(g: &Graph) -> (u64, u64, u64) {
    let mut crc = Crc64::new();
    for v in 0..g.node_count() {
        crc.update(&(g.degree(v) as u64).to_le_bytes());
        for &u in g.neighbors(v) {
            crc.update(&(u as u64).to_le_bytes());
        }
    }
    (g.node_count() as u64, g.edge_count() as u64, crc.finish())
}

fn encode_graph_section(g: &Graph) -> Vec<u8> {
    let (n, m, crc) = graph_fingerprint(g);
    let mut buf = Vec::with_capacity(24);
    w64(&mut buf, n);
    w64(&mut buf, m);
    w64(&mut buf, crc);
    buf
}

fn check_graph_section(payload: &[u8], g: &Graph) -> Result<(), StoreError> {
    let mut r = Reader::new(payload, "graph fingerprint");
    let (n, m, crc) = (r.u64()?, r.u64()?, r.u64()?);
    r.finish()?;
    let (gn, gm, gcrc) = graph_fingerprint(g);
    if n != gn || m != gm {
        return Err(StoreError::GraphMismatch {
            detail: format!("snapshot is of an {n}-node/{m}-edge graph, offered {gn}/{gm}"),
        });
    }
    if crc != gcrc {
        return Err(StoreError::GraphMismatch {
            detail: "equal sizes but the adjacency checksum differs".to_string(),
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Decomposition payloads.

const UNASSIGNED: u32 = u32::MAX;

fn method_code(method: DecompMethod) -> Result<u8, StoreError> {
    match method {
        DecompMethod::BallCarving => Ok(1),
        DecompMethod::Mpx => Ok(2),
        DecompMethod::ElkinNeiman => Ok(3),
        DecompMethod::Derandomized => Ok(4),
        // Cached slots hold canonical (lowered) options; an Auto here is a
        // session invariant violation, reported instead of encoded.
        _ => Err(StoreError::Malformed {
            section: "encode options",
            detail: format!("non-concrete decomposition method {method:?}"),
        }),
    }
}

fn decode_method(code: u8) -> Result<DecompMethod, StoreError> {
    match code {
        1 => Ok(DecompMethod::BallCarving),
        2 => Ok(DecompMethod::Mpx),
        3 => Ok(DecompMethod::ElkinNeiman),
        4 => Ok(DecompMethod::Derandomized),
        other => Err(StoreError::Malformed {
            section: "options",
            detail: format!("unknown decomposition method code {other}"),
        }),
    }
}

fn encode_decomp_into(buf: &mut Vec<u8>, d: &Decomposition) -> Result<(), StoreError> {
    let clustering = d.clustering();
    let n = clustering.node_count();
    w64(buf, n as u64);
    for v in 0..n {
        let word = match clustering.cluster_of(v) {
            None => UNASSIGNED,
            Some(c) => {
                if c as u64 >= UNASSIGNED as u64 {
                    return Err(StoreError::Malformed {
                        section: "encode decomposition",
                        detail: format!("cluster id {c} does not fit the u32 wire format"),
                    });
                }
                c as u32
            }
        };
        w32(buf, word);
    }
    let k = clustering.cluster_count();
    w64(buf, k as u64);
    for c in 0..k {
        w64(buf, d.color_of_cluster(c) as u64);
    }
    Ok(())
}

fn decode_decomp_from(r: &mut Reader<'_>) -> Result<Decomposition, StoreError> {
    let n = r.count(4, "assignment")?;
    let mut assignment = Vec::with_capacity(n);
    for _ in 0..n {
        let word = r.u32()?;
        assignment.push(if word == UNASSIGNED {
            None
        } else {
            Some(word as usize)
        });
    }
    let k = r.count(8, "cluster colors")?;
    let clustering = Clustering::from_assignment(assignment)
        .map_err(|e| r.malformed(format!("invalid cluster assignment: {e}")))?;
    if clustering.cluster_count() != k {
        return Err(r.malformed(format!(
            "assignment names {} clusters but {k} colors are recorded",
            clustering.cluster_count()
        )));
    }
    let mut colors = Vec::with_capacity(k);
    for _ in 0..k {
        let color = r.u64()?;
        colors.push(
            usize::try_from(color)
                .map_err(|_| r.malformed(format!("cluster color {color} overflows usize")))?,
        );
    }
    Decomposition::new(clustering, colors)
        .map_err(|e| r.malformed(format!("invalid decomposition: {e}")))
}

/// Encode one decomposition as a standalone store blob.
///
/// # Errors
/// [`StoreError::Malformed`] if the decomposition cannot be expressed in
/// the wire format (cluster ids past `u32::MAX - 1`).
pub fn encode_decomposition(d: &Decomposition) -> Result<Vec<u8>, StoreError> {
    let mut payload = Vec::new();
    encode_decomp_into(&mut payload, d)?;
    Ok(assemble(vec![(TAG_BARE_DECOMP, payload)]))
}

/// Decode a standalone decomposition blob written by
/// [`encode_decomposition`].
///
/// # Errors
/// Every corrupt input is a typed [`StoreError`]; this never panics and
/// never returns a structurally inconsistent decomposition.
pub fn decode_decomposition(bytes: &[u8]) -> Result<Decomposition, StoreError> {
    let sections = open_sections(bytes)?;
    let [(TAG_BARE_DECOMP, payload)] = sections.as_slice() else {
        return Err(StoreError::Malformed {
            section: "section table",
            detail: format!(
                "expected exactly one bare-decomposition section, got {:?}",
                sections.iter().map(|(t, _)| *t).collect::<Vec<_>>()
            ),
        });
    };
    let mut r = Reader::new(payload, "decomposition");
    let d = decode_decomp_from(&mut r)?;
    r.finish()?;
    Ok(d)
}

// ---------------------------------------------------------------------------
// Session snapshots: one graph-fingerprint section + one section per slot.

fn encode_slot(slot: &DecompSlot) -> Result<Vec<u8>, StoreError> {
    let mut buf = Vec::new();
    buf.push(method_code(slot.options.method)?);
    w64(&mut buf, slot.options.seed);
    w32(&mut buf, slot.options.cap);
    let flags = u8::from(slot.options.require_deterministic);
    buf.push(flags);
    encode_decomp_into(&mut buf, &slot.decomposition)?;
    w64(&mut buf, slot.quality.colors as u64);
    w32(&mut buf, slot.quality.max_diameter);
    w64(&mut buf, slot.quality.clusters as u64);
    let m = &slot.meter;
    for x in [
        m.rounds,
        m.messages,
        m.bits_sent,
        m.max_message_bits,
        m.congest_violations,
        m.random_bits,
        m.dropped,
        m.duplicated,
        m.delayed,
    ] {
        w64(&mut buf, x);
    }
    w64(&mut buf, slot.plan.classes.len() as u64);
    for (color, clusters) in &slot.plan.classes {
        w64(&mut buf, *color as u64);
        w64(&mut buf, clusters.len() as u64);
        for &c in clusters {
            w32(&mut buf, c);
        }
    }
    w64(&mut buf, slot.plan.diam.len() as u64);
    for &d in &slot.plan.diam {
        w32(&mut buf, d);
    }
    Ok(buf)
}

fn decode_slot(payload: &[u8], graph: &Graph) -> Result<DecompSlot, StoreError> {
    let mut r = Reader::new(payload, "decomposition slot");
    let method = decode_method(r.u8()?)?;
    let seed = r.u64()?;
    let cap = r.u32()?;
    let flags = r.u8()?;
    if flags & !1 != 0 {
        return Err(r.malformed(format!("unknown option flags {flags:#04x}")));
    }
    let options = DecomposeOptions::default()
        .with_method(method)
        .with_seed(seed)
        .with_cap(cap)
        .with_require_deterministic(flags & 1 != 0);
    let decomposition = decode_decomp_from(&mut r)?;
    let n = decomposition.clustering().node_count();
    if n != graph.node_count() {
        return Err(r.malformed(format!(
            "slot covers {n} nodes, session graph has {}",
            graph.node_count()
        )));
    }
    let k = decomposition.clustering().cluster_count();
    let quality = DecompQuality {
        colors: usize::try_from(r.u64()?)
            .map_err(|_| r.malformed("quality color count overflows usize".to_string()))?,
        max_diameter: r.u32()?,
        clusters: usize::try_from(r.u64()?)
            .map_err(|_| r.malformed("quality cluster count overflows usize".to_string()))?,
    };
    let meter = CostMeter {
        rounds: r.u64()?,
        messages: r.u64()?,
        bits_sent: r.u64()?,
        max_message_bits: r.u64()?,
        congest_violations: r.u64()?,
        random_bits: r.u64()?,
        dropped: r.u64()?,
        duplicated: r.u64()?,
        delayed: r.u64()?,
    };
    let class_count = r.count(16, "color classes")?;
    let mut classes = Vec::with_capacity(class_count);
    for _ in 0..class_count {
        let color = r.u64()?;
        let color = usize::try_from(color)
            .map_err(|_| r.malformed(format!("class color {color} overflows usize")))?;
        let len = r.count(4, "class members")?;
        let mut members = Vec::with_capacity(len);
        for _ in 0..len {
            members.push(r.u32()?);
        }
        classes.push((color, members));
    }
    let diam_count = r.count(4, "diameters")?;
    if diam_count != k {
        return Err(r.malformed(format!(
            "{diam_count} cluster diameters recorded for {k} clusters"
        )));
    }
    let mut diam = Vec::with_capacity(diam_count);
    for _ in 0..diam_count {
        diam.push(r.u32()?);
    }
    r.finish()?;
    // The plan must be the one its decomposition implies: every cluster
    // listed once, under its own color, and the quality derived from it.
    let plan = consume::ConsumerPlan::new(&decomposition, diam);
    if classes != plan.classes {
        return Err(r.malformed(
            "color classes disagree with the decomposition's cluster colors".to_string(),
        ));
    }
    if quality != plan.quality() {
        return Err(r.malformed(format!(
            "quality {quality:?} disagrees with the plan's {:?}",
            plan.quality()
        )));
    }
    Ok(DecompSlot {
        options,
        decomposition,
        quality,
        meter,
        plan,
    })
}

/// Encode a session's durable state (graph fingerprint + every cached
/// decomposition slot) as one store blob.
///
/// # Errors
/// [`StoreError::Malformed`] if a cached slot cannot be expressed in the
/// wire format.
pub fn encode_session(session: &Session) -> Result<Vec<u8>, StoreError> {
    let mut sections = Vec::with_capacity(1 + session.decomp_slots().len());
    sections.push((TAG_GRAPH, encode_graph_section(session.graph())));
    for slot in session.decomp_slots() {
        sections.push((TAG_DECOMP_SLOT, encode_slot(slot)?));
    }
    Ok(assemble(sections))
}

/// Decode a session snapshot against `graph`, rebuilding a warm session
/// whose cached decompositions answer bit-identically to the persisted
/// one's.
///
/// # Errors
/// Every corrupt input is a typed [`StoreError`];
/// [`StoreError::GraphMismatch`] when the snapshot was taken of a
/// different graph.
pub fn decode_session(graph: Graph, bytes: &[u8]) -> Result<Session, StoreError> {
    let sections = open_sections(bytes)?;
    let Some(((first_tag, graph_payload), slots)) = sections.split_first() else {
        return Err(StoreError::Malformed {
            section: "section table",
            detail: "snapshot has no sections".to_string(),
        });
    };
    if *first_tag != TAG_GRAPH {
        return Err(StoreError::Malformed {
            section: "section table",
            detail: format!("first section has tag {first_tag}, expected the graph fingerprint"),
        });
    }
    check_graph_section(graph_payload, &graph)?;
    let mut session = Session::new(graph);
    for (tag, payload) in slots {
        if *tag != TAG_DECOMP_SLOT {
            return Err(StoreError::Malformed {
                section: "section table",
                detail: format!("unexpected section tag {tag} in a session snapshot"),
            });
        }
        let slot = decode_slot(payload, session.graph())?;
        session.install_decomp_slot(slot);
    }
    Ok(session)
}

// ---------------------------------------------------------------------------
// Filesystem layer.

fn io_err(op: &'static str) -> impl Fn(std::io::Error) -> StoreError {
    move |e| StoreError::Io {
        op,
        kind: e.kind(),
        detail: e.to_string(),
    }
}

/// Read a whole store file.
///
/// # Errors
/// [`StoreError::Io`] with the failing operation and OS error class.
pub fn read_file(path: &Path) -> Result<Vec<u8>, StoreError> {
    std::fs::read(path).map_err(io_err("read"))
}

/// Write `bytes` to `path` atomically: flush and sync to a sibling
/// temporary file, then rename into place. A crash at any point leaves
/// either the previous file or the complete new one — never a torn write
/// (the decoder's length + checksum checks catch the remaining
/// single-sector failure modes).
///
/// # Errors
/// [`StoreError::Io`] with the failing operation and OS error class.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let mut file = std::fs::File::create(&tmp).map_err(io_err("create"))?;
    file.write_all(bytes).map_err(io_err("write"))?;
    file.sync_all().map_err(io_err("sync"))?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(io_err("rename"))
}

#[cfg(test)]
mod tests {
    use super::super::request::Request;
    use super::*;
    use locality_rand::prng::SplitMix64;

    fn sample_session() -> Session {
        let mut p = SplitMix64::new(41);
        let g = Graph::gnp_connected(60, 0.07, &mut p);
        let mut s = Session::new(g);
        s.solve(&Request::decompose()).unwrap();
        s.solve(&Request::mis()).unwrap();
        s
    }

    #[test]
    fn session_round_trips() {
        let s = sample_session();
        let bytes = encode_session(&s).unwrap();
        let restored = decode_session(s.graph().clone(), &bytes).unwrap();
        assert_eq!(restored.decomp_slots().len(), s.decomp_slots().len());
        let bytes_again = encode_session(&restored).unwrap();
        assert_eq!(
            bytes, bytes_again,
            "re-encoding a restored session is stable"
        );
    }

    #[test]
    fn bare_decomposition_round_trips() {
        let s = sample_session();
        let d = &s.decomp_slots()[0].decomposition;
        let bytes = encode_decomposition(d).unwrap();
        let back = decode_decomposition(&bytes).unwrap();
        assert_eq!(back.clustering().assignment(), d.clustering().assignment());
        assert_eq!(back.color_count(), d.color_count());
    }

    #[test]
    fn envelope_failures_are_typed_in_check_order() {
        let s = sample_session();
        let good = encode_session(&s).unwrap();

        assert!(matches!(
            decode_session(s.graph().clone(), &good[..10]),
            Err(StoreError::Truncated { .. })
        ));

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            decode_session(s.graph().clone(), &bad_magic),
            Err(StoreError::BadMagic)
        ));

        let mut bad_version = good.clone();
        bad_version[8] = 99;
        assert!(matches!(
            decode_session(s.graph().clone(), &bad_version),
            Err(StoreError::UnsupportedVersion { got: 99, .. })
        ));

        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        assert!(matches!(
            decode_session(s.graph().clone(), &flipped),
            Err(StoreError::ChecksumMismatch { .. })
        ));

        assert!(matches!(
            decode_session(s.graph().clone(), &good[..good.len() - 3]),
            Err(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn wrong_graph_is_a_graph_mismatch() {
        let s = sample_session();
        let bytes = encode_session(&s).unwrap();
        assert!(matches!(
            decode_session(Graph::cycle(60), &bytes),
            Err(StoreError::GraphMismatch { .. })
        ));
        // Same node count and a different edge set: the adjacency CRC and
        // the edge count both differ.
        assert!(matches!(
            decode_session(Graph::grid(6, 10), &bytes),
            Err(StoreError::GraphMismatch { .. })
        ));
    }

    /// A checksum-valid snapshot whose consumer plan disagrees with its own
    /// decomposition must not restore: the session would charge the wrong
    /// rounds, or reach a node no listed cluster covers and panic in the
    /// consumer sweep.
    #[test]
    fn plan_that_disagrees_with_its_decomposition_is_malformed() {
        let s = sample_session();
        let snapshot = |slot: &DecompSlot| {
            assemble(vec![
                (TAG_GRAPH, encode_graph_section(s.graph())),
                (TAG_DECOMP_SLOT, encode_slot(slot).unwrap()),
            ])
        };
        let good = &s.decomp_slots()[0];
        assert!(decode_session(s.graph().clone(), &snapshot(good)).is_ok());
        assert!(good.plan.classes.len() >= 2 && good.plan.classes[0].1.len() >= 2);

        let mut twice = good.clone();
        let first = &mut twice.plan.classes[0].1;
        first[1] = first[0];
        let mut wrong_color = good.clone();
        let moved = wrong_color.plan.classes[0].1.pop().unwrap();
        wrong_color.plan.classes[1].1.push(moved);
        let mut wrong_diameter = good.clone();
        wrong_diameter.quality.max_diameter += 1;
        for (name, slot) in [
            ("cluster listed twice, another never", twice),
            ("cluster under the wrong colour", wrong_color),
            ("max diameter not the largest stored", wrong_diameter),
        ] {
            assert!(
                matches!(
                    decode_session(s.graph().clone(), &snapshot(&slot)),
                    Err(StoreError::Malformed { .. })
                ),
                "{name}"
            );
        }
    }

    #[test]
    fn atomic_write_round_trips_and_replaces() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("locality-store-test-{}.bin", std::process::id()));
        let s = sample_session();
        let bytes = encode_session(&s).unwrap();
        write_atomic(&path, b"old garbage").unwrap();
        write_atomic(&path, &bytes).unwrap();
        let read = read_file(&path).unwrap();
        assert_eq!(read, bytes);
        let _ = std::fs::remove_file(&path);
        assert!(matches!(read_file(&path), Err(StoreError::Io { .. })));
    }

    #[test]
    fn crc64_matches_known_vector() {
        // CRC-64/XZ check value for "123456789".
        let mut crc = Crc64::new();
        crc.update(b"123456789");
        assert_eq!(crc.finish(), 0x995D_C9BB_DF19_39FA);
    }
}

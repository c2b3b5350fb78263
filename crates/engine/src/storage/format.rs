//! The on-disk table format (the role Parquet plays in the paper's
//! implementation): a self-describing little-endian columnar layout, plus
//! the **segment manifest** that stitches a table together from ordered
//! row-segment files.
//!
//! Segment payload (one file per segment, complete and self-describing):
//!
//! ```text
//! [magic "SCTB"] [version u16] [ncols u16] [nrows u64]
//! per column:  [name_len u16][name bytes][dtype u8]
//! per column:  [payload_len u64][payload bytes]
//! ```
//!
//! Fixed-width payloads are raw little-endian arrays; strings are
//! `[len u32][bytes]` sequences; booleans are bit-packed.
//!
//! Manifest (the `.sctb` file a table name resolves to):
//!
//! ```text
//! [magic "SCTM"] [version u16] [nsegs u32]
//! per segment: [id u64][rows u64][bytes u64][fnv1a64 u64]
//! ```
//!
//! A table's contents are the row-concatenation of its segments in
//! manifest order. The manifest is the *commit point*: a segment file not
//! referenced by the manifest is invisible (see
//! [`crate::storage::DiskCatalog`] for the append/commit/compact
//! protocol), and every referenced segment is verified against its
//! recorded byte length and FNV-1a checksum at read time — once per
//! segment per read — so torn or truncated segment files are rejected
//! instead of silently read.

use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::column::Column;
use crate::schema::{Field, Schema};
use crate::table::Table;
use crate::types::DataType;
use crate::{EngineError, Result};

const MAGIC: &[u8; 4] = b"SCTB";
const VERSION: u16 = 1;

const MANIFEST_MAGIC: &[u8; 4] = b"SCTM";
const MANIFEST_VERSION: u16 = 1;

/// FNV-1a 64-bit hash, the segment checksum recorded in manifests.
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Manifest entry describing one committed row segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Segment id (also the file name infix); ids are unique per table
    /// and strictly increase with append order.
    pub id: u64,
    /// Rows held by the segment.
    pub rows: u64,
    /// Exact byte length of the segment file.
    pub bytes: u64,
    /// FNV-1a 64 checksum of the segment file's bytes.
    pub checksum: u64,
}

/// The ordered segment list a table name resolves to.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Segments in row order (concatenating them yields the table).
    pub segments: Vec<SegmentMeta>,
}

impl Manifest {
    /// Total rows across segments.
    pub fn total_rows(&self) -> u64 {
        self.segments.iter().map(|s| s.rows).sum()
    }

    /// Total segment-file bytes (excludes the manifest file itself).
    pub fn total_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.bytes).sum()
    }

    /// The id the next appended segment must use.
    pub fn next_id(&self) -> u64 {
        self.segments.iter().map(|s| s.id + 1).max().unwrap_or(0)
    }
}

/// File name under which a *superseded* copy of `file` is retained for
/// epoch-pinned readers: `<file>~<epoch>`, where `epoch` is the commit
/// that replaced it. `~` never appears in a sanitized table stem, so the
/// live namespace (`<stem>.sctb`, `<stem>.<id>.seg`) and the retained
/// namespace cannot collide, and the manifest/segment *bytes* of the
/// live version never carry an epoch — the byte-identity contracts over
/// canonical form are untouched by retention.
pub fn retained_name(file: &str, epoch: u64) -> String {
    format!("{file}~{epoch}")
}

/// Parses a retained-file name back into `(live file name, supersede
/// epoch)`; `None` for live-namespace files.
pub fn parse_retained(file: &str) -> Option<(&str, u64)> {
    let (base, suffix) = file.rsplit_once('~')?;
    if base.is_empty() {
        return None;
    }
    suffix.parse::<u64>().ok().map(|epoch| (base, epoch))
}

/// Serializes a manifest.
pub fn encode_manifest(manifest: &Manifest) -> Bytes {
    let mut buf = BytesMut::with_capacity(10 + manifest.segments.len() * 32);
    buf.put_slice(MANIFEST_MAGIC);
    buf.put_u16_le(MANIFEST_VERSION);
    buf.put_u32_le(manifest.segments.len() as u32);
    for s in &manifest.segments {
        buf.put_u64_le(s.id);
        buf.put_u64_le(s.rows);
        buf.put_u64_le(s.bytes);
        buf.put_u64_le(s.checksum);
    }
    buf.freeze()
}

/// Deserializes a manifest, rejecting bad magic/version/truncation.
pub fn decode_manifest(mut data: Bytes) -> Result<Manifest> {
    if data.remaining() < 10 {
        return Err(EngineError::Corrupt("truncated manifest".into()));
    }
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if &magic != MANIFEST_MAGIC {
        return Err(EngineError::Corrupt("bad manifest magic".into()));
    }
    let version = data.get_u16_le();
    if version != MANIFEST_VERSION {
        return Err(EngineError::Corrupt(format!(
            "unsupported manifest version {version}"
        )));
    }
    let nsegs = data.get_u32_le() as usize;
    if data.remaining() != nsegs * 32 {
        return Err(EngineError::Corrupt("truncated manifest".into()));
    }
    let mut segments = Vec::with_capacity(nsegs);
    for _ in 0..nsegs {
        segments.push(SegmentMeta {
            id: data.get_u64_le(),
            rows: data.get_u64_le(),
            bytes: data.get_u64_le(),
            checksum: data.get_u64_le(),
        });
    }
    Ok(Manifest { segments })
}

fn dtype_tag(d: DataType) -> u8 {
    match d {
        DataType::Int64 => 0,
        DataType::Float64 => 1,
        DataType::Utf8 => 2,
        DataType::Bool => 3,
        DataType::Date => 4,
    }
}

fn tag_dtype(t: u8) -> Result<DataType> {
    Ok(match t {
        0 => DataType::Int64,
        1 => DataType::Float64,
        2 => DataType::Utf8,
        3 => DataType::Bool,
        4 => DataType::Date,
        other => return Err(EngineError::Corrupt(format!("unknown dtype tag {other}"))),
    })
}

/// Exact byte length [`encode`] would produce for `table`, computed
/// without materializing the buffer — the append path uses this for its
/// O(delta) metrics so the delta rows are encoded only once, by the
/// write itself.
pub fn encoded_size(table: &Table) -> u64 {
    let mut len = (4 + 2 + 2 + 8) as u64;
    for f in table.schema().fields() {
        len += 2 + f.name.len() as u64 + 1;
    }
    for col in table.columns() {
        len += 8 + column_payload_len(col);
    }
    len
}

fn column_payload_len(col: &Column) -> u64 {
    match col {
        Column::Int64(v) => v.len() as u64 * 8,
        Column::Float64(v) => v.len() as u64 * 8,
        Column::Date(v) => v.len() as u64 * 4,
        Column::Bool(v) => v.len().div_ceil(8) as u64,
        Column::Utf8(v) => v.iter().map(|s| 4 + s.len() as u64).sum(),
    }
}

/// Serializes a table into the SCTB format.
pub fn encode(table: &Table) -> Bytes {
    let mut buf = BytesMut::with_capacity(table.byte_size() as usize + 256);
    buf.put_slice(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u16_le(table.num_columns() as u16);
    buf.put_u64_le(table.num_rows() as u64);
    for f in table.schema().fields() {
        buf.put_u16_le(f.name.len() as u16);
        buf.put_slice(f.name.as_bytes());
        buf.put_u8(dtype_tag(f.dtype));
    }
    for col in table.columns() {
        let payload = encode_column(col);
        buf.put_u64_le(payload.len() as u64);
        buf.put_slice(&payload);
    }
    buf.freeze()
}

fn encode_column(col: &Column) -> Vec<u8> {
    match col {
        Column::Int64(v) => {
            let mut out = Vec::with_capacity(v.len() * 8);
            for x in v {
                out.extend_from_slice(&x.to_le_bytes());
            }
            out
        }
        Column::Float64(v) => {
            let mut out = Vec::with_capacity(v.len() * 8);
            for x in v {
                out.extend_from_slice(&x.to_le_bytes());
            }
            out
        }
        Column::Date(v) => {
            let mut out = Vec::with_capacity(v.len() * 4);
            for x in v {
                out.extend_from_slice(&x.to_le_bytes());
            }
            out
        }
        Column::Bool(v) => {
            let mut out = vec![0u8; v.len().div_ceil(8)];
            for (i, &b) in v.iter().enumerate() {
                if b {
                    out[i / 8] |= 1 << (i % 8);
                }
            }
            out
        }
        Column::Utf8(v) => {
            let mut out = Vec::new();
            for s in v {
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            out
        }
    }
}

/// Deserializes a table from SCTB bytes.
pub fn decode(mut data: Bytes) -> Result<Table> {
    let need = |data: &Bytes, n: usize| -> Result<()> {
        if data.remaining() < n {
            Err(EngineError::Corrupt("truncated file".into()))
        } else {
            Ok(())
        }
    };
    need(&data, 4 + 2 + 2 + 8)?;
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(EngineError::Corrupt("bad magic".into()));
    }
    let version = data.get_u16_le();
    if version != VERSION {
        return Err(EngineError::Corrupt(format!(
            "unsupported version {version}"
        )));
    }
    let ncols = data.get_u16_le() as usize;
    let nrows = data.get_u64_le() as usize;

    let mut fields = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        need(&data, 2)?;
        let name_len = data.get_u16_le() as usize;
        need(&data, name_len + 1)?;
        let name_bytes = data.copy_to_bytes(name_len);
        let name = String::from_utf8(name_bytes.to_vec())
            .map_err(|_| EngineError::Corrupt("non-utf8 column name".into()))?;
        let dtype = tag_dtype(data.get_u8())?;
        fields.push(Field::new(name, dtype));
    }

    let mut columns = Vec::with_capacity(ncols);
    for f in &fields {
        need(&data, 8)?;
        let payload_len = data.get_u64_le() as usize;
        need(&data, payload_len)?;
        let payload = data.copy_to_bytes(payload_len);
        columns.push(decode_column(f.dtype, &payload, nrows)?);
    }
    Table::new(Arc::new(Schema::new(fields)?), columns)
}

fn decode_column(dtype: DataType, payload: &[u8], nrows: usize) -> Result<Column> {
    let fixed = |width: usize| -> Result<()> {
        if nrows.checked_mul(width) != Some(payload.len()) {
            Err(EngineError::Corrupt(format!(
                "column payload {} != {} rows × {width}",
                payload.len(),
                nrows
            )))
        } else {
            Ok(())
        }
    };
    Ok(match dtype {
        DataType::Int64 => {
            fixed(8)?;
            Column::Int64(
                payload
                    .chunks_exact(8)
                    .map(|c| i64::from_le_bytes(c.try_into().unwrap()))
                    .collect(),
            )
        }
        DataType::Float64 => {
            fixed(8)?;
            Column::Float64(
                payload
                    .chunks_exact(8)
                    .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                    .collect(),
            )
        }
        DataType::Date => {
            fixed(4)?;
            Column::Date(
                payload
                    .chunks_exact(4)
                    .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
                    .collect(),
            )
        }
        DataType::Bool => {
            if payload.len() != nrows.div_ceil(8) {
                return Err(EngineError::Corrupt("bool column size mismatch".into()));
            }
            Column::Bool(
                (0..nrows)
                    .map(|i| payload[i / 8] >> (i % 8) & 1 == 1)
                    .collect(),
            )
        }
        DataType::Utf8 => {
            // Every value carries a 4-byte length prefix, so the payload
            // bounds the row count before anything is allocated for it.
            if nrows > payload.len() / 4 {
                return Err(EngineError::Corrupt(format!(
                    "string column of {} bytes cannot hold {nrows} rows",
                    payload.len()
                )));
            }
            let mut out = Vec::with_capacity(nrows);
            let mut pos = 0usize;
            for _ in 0..nrows {
                if pos + 4 > payload.len() {
                    return Err(EngineError::Corrupt("truncated string column".into()));
                }
                let len = u32::from_le_bytes(payload[pos..pos + 4].try_into().unwrap()) as usize;
                pos += 4;
                if pos + len > payload.len() {
                    return Err(EngineError::Corrupt("truncated string value".into()));
                }
                let s = std::str::from_utf8(&payload[pos..pos + len])
                    .map_err(|_| EngineError::Corrupt("non-utf8 string".into()))?;
                out.push(s.to_string());
                pos += len;
            }
            if pos != payload.len() {
                return Err(EngineError::Corrupt(
                    "trailing bytes in string column".into(),
                ));
            }
            Column::Utf8(out)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;
    use crate::types::Value;

    #[test]
    fn retained_names_roundtrip_and_reject_live_files() {
        assert_eq!(retained_name("t.sctb", 7), "t.sctb~7");
        assert_eq!(parse_retained("t.sctb~7"), Some(("t.sctb", 7)));
        assert_eq!(parse_retained("t.12.seg~3"), Some(("t.12.seg", 3)));
        // Live-namespace files and malformed suffixes never parse.
        assert_eq!(parse_retained("t.sctb"), None);
        assert_eq!(parse_retained("t.0.seg"), None);
        assert_eq!(parse_retained("t.sctb~"), None);
        assert_eq!(parse_retained("t.sctb~x"), None);
        assert_eq!(parse_retained("~3"), None);
        // Nested retention parses on the *last* separator, so retained
        // names stay invertible even if a retained file were re-retained.
        assert_eq!(parse_retained("t.sctb~2~5"), Some(("t.sctb~2", 5)));
    }

    fn full_table() -> Table {
        let mut t = TableBuilder::new()
            .column("i", DataType::Int64)
            .column("f", DataType::Float64)
            .column("s", DataType::Utf8)
            .column("b", DataType::Bool)
            .column("d", DataType::Date)
            .build();
        for i in 0..13i64 {
            t.push_row(vec![
                Value::Int64(i * 7 - 3),
                Value::Float64(i as f64 * 0.5 - 1.0),
                Value::Utf8(format!("row-{i}-αβ")),
                Value::Bool(i % 3 == 0),
                Value::Date(19000 + i as i32),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn roundtrip_all_types() {
        let t = full_table();
        let bytes = encode(&t);
        let back = decode(bytes).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn roundtrip_empty_table() {
        let t = TableBuilder::new().column("x", DataType::Utf8).build();
        let back = decode(encode(&t)).unwrap();
        assert_eq!(back.num_rows(), 0);
        assert_eq!(back.schema().field("x").unwrap().dtype, DataType::Utf8);
    }

    /// A header row count that the payload cannot back: `2^40` rows over
    /// one empty column, the shape of a crafted wire frame.
    fn huge_header(dtype: DataType) -> Bytes {
        let mut raw = BytesMut::with_capacity(31);
        raw.put_slice(MAGIC);
        raw.put_u16_le(VERSION);
        raw.put_u16_le(1);
        raw.put_u64_le(1 << 40);
        raw.put_u16_le(4);
        raw.put_slice(b"evil");
        raw.put_u8(dtype_tag(dtype));
        raw.put_u64_le(0);
        raw.freeze()
    }

    #[test]
    fn rejects_row_counts_the_payload_cannot_hold() {
        let utf8 = huge_header(DataType::Utf8);
        assert_eq!(utf8.len(), 31);
        assert!(matches!(decode(utf8), Err(EngineError::Corrupt(_))));
        // `2^61 * 8` wraps to 0, the length of the empty payload.
        let mut raw = huge_header(DataType::Int64).to_vec();
        raw[8..16].copy_from_slice(&(1u64 << 61).to_le_bytes());
        assert!(matches!(
            decode(Bytes::from(raw)),
            Err(EngineError::Corrupt(_))
        ));
    }

    #[test]
    fn rejects_bad_magic() {
        let mut raw = encode(&full_table()).to_vec();
        raw[0] = b'X';
        assert!(matches!(
            decode(Bytes::from(raw)),
            Err(EngineError::Corrupt(_))
        ));
    }

    #[test]
    fn rejects_bad_version() {
        let mut raw = encode(&full_table()).to_vec();
        raw[4] = 99;
        assert!(decode(Bytes::from(raw)).is_err());
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let raw = encode(&full_table()).to_vec();
        // Chop at a spread of byte positions; all must fail cleanly, never
        // panic.
        for cut in [0, 3, 7, 10, 20, raw.len() / 2, raw.len() - 1] {
            let r = decode(Bytes::from(raw[..cut].to_vec()));
            assert!(r.is_err(), "cut at {cut} must error");
        }
    }

    #[test]
    fn bool_bitpacking_roundtrip() {
        let mut t = TableBuilder::new().column("b", DataType::Bool).build();
        for i in 0..17 {
            t.push_row(vec![Value::Bool(i % 2 == 0)]).unwrap();
        }
        let back = decode(encode(&t)).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn encoded_size_matches_encode() {
        for t in [
            full_table(),
            TableBuilder::new().column("x", DataType::Utf8).build(),
        ] {
            assert_eq!(encoded_size(&t), encode(&t).len() as u64);
        }
    }

    #[test]
    fn manifest_roundtrip_and_totals() {
        let m = Manifest {
            segments: vec![
                SegmentMeta {
                    id: 0,
                    rows: 10,
                    bytes: 100,
                    checksum: 7,
                },
                SegmentMeta {
                    id: 3,
                    rows: 5,
                    bytes: 50,
                    checksum: 9,
                },
            ],
        };
        let back = decode_manifest(encode_manifest(&m)).unwrap();
        assert_eq!(back, m);
        assert_eq!(m.total_rows(), 15);
        assert_eq!(m.total_bytes(), 150);
        assert_eq!(m.next_id(), 4);
        assert_eq!(Manifest::default().next_id(), 0);
        assert_eq!(
            decode_manifest(encode_manifest(&Manifest::default())).unwrap(),
            Manifest::default()
        );
    }

    #[test]
    fn manifest_rejects_corruption() {
        let m = Manifest {
            segments: vec![SegmentMeta {
                id: 0,
                rows: 1,
                bytes: 2,
                checksum: 3,
            }],
        };
        let raw = encode_manifest(&m).to_vec();
        // Bad magic.
        let mut bad = raw.clone();
        bad[0] = b'X';
        assert!(decode_manifest(Bytes::from(bad)).is_err());
        // Bad version.
        let mut bad = raw.clone();
        bad[4] = 99;
        assert!(decode_manifest(Bytes::from(bad)).is_err());
        // Truncation anywhere.
        for cut in [0, 5, 9, 12, raw.len() - 1] {
            assert!(
                decode_manifest(Bytes::from(raw[..cut].to_vec())).is_err(),
                "cut at {cut} must error"
            );
        }
        // Trailing garbage.
        let mut bad = raw.clone();
        bad.push(0);
        assert!(decode_manifest(Bytes::from(bad)).is_err());
    }

    #[test]
    fn fnv1a64_is_stable_and_sensitive() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"abc"), fnv1a64(b"abc"));
        assert_ne!(fnv1a64(b"abc"), fnv1a64(b"abd"));
    }

    #[test]
    fn encoded_size_is_near_data_size() {
        let mut t = TableBuilder::new().column("i", DataType::Int64).build();
        for i in 0..1000i64 {
            t.push_row(vec![Value::Int64(i)]).unwrap();
        }
        let bytes = encode(&t);
        // 8000 payload bytes + small header.
        assert!(bytes.len() as u64 >= 8000);
        assert!(bytes.len() < 8100);
    }
}

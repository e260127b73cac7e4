//! Data blocks — the unit of storage, scheduling and SmartIndexing.
//!
//! A block holds a horizontal slice of one table partition in columnar
//! layout, together with per-column zone statistics (min/max/null-count)
//! used by the optimizer and the SmartIndex header. Blocks serialize to a
//! self-describing binary format built for late materialization: magic,
//! version, a compressed schema header, then one *independently* compressed
//! chunk per column, and a footer directory of per-column chunk offsets so
//! readers can decode any subset of columns without touching the rest.
//!
//! Layout (v2):
//!
//! ```text
//! magic(8) | version(1) | block_id(varint) | header_len(varint)
//! | compressed header: rows(varint) nfields(varint) fields…
//! | chunk[0] … chunk[n-1]           (each compress_adaptive(validity+data))
//! | footer: ncols(varint) { offset(varint) len(varint) }…   (offsets are
//!   relative to the first chunk byte)
//! | zones: ZONE_SECTION_TAG(1) then per column
//!   { present(1) [min max (type-tagged values)] null_count(varint) }
//! | footer_start(u64 LE)            (absolute offset of the footer)
//! ```
//!
//! Every footer carries its zone section: one that ends right after the
//! chunk directory, or holds a malformed zone section, is a corruption
//! error, never a panic.

use crate::bitvec::BitVec;
use crate::chunk::{decode_column, encode_column};
use crate::column::Column;
use crate::compress;
use crate::encoding::varint;
use crate::schema::{Field, Schema};
use crate::value::{DataType, Value};
use bytes::Bytes;
use feisu_common::{BlockId, FeisuError, Result};
use std::sync::Arc;

/// Magic bytes opening every serialized block.
pub const BLOCK_MAGIC: &[u8; 8] = b"FEISUBLK";
/// Current on-disk format version. v2 added the per-column chunk directory;
/// v1 (whole-body compression, no directory) is no longer readable and is
/// rejected as corrupt, like any other unknown version.
pub const BLOCK_VERSION: u8 = 2;

/// Zone statistics for one column of one block.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    pub min: Option<Value>,
    pub max: Option<Value>,
    pub null_count: usize,
}

/// What serializing one column learned about it: the zone statistics the
/// footer holds and, for Utf8, the chunk dictionary's entries some
/// non-null row holds (a NULL row's placeholder string only if a valid
/// row holds it too).
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkSummary<'a> {
    pub zone: ColumnStats,
    pub distinct: Option<Vec<&'a str>>,
}

/// A columnar slice of a table partition.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    id: BlockId,
    schema: Schema,
    columns: Vec<Column>,
    rows: usize,
}

impl Block {
    /// Builds a block; all columns must share the same length and match the
    /// schema's types.
    pub fn new(id: BlockId, schema: Schema, columns: Vec<Column>) -> Result<Block> {
        let rows = columns.first().map_or(0, |c| c.len());
        Block::new_with_rows(id, schema, columns, rows)
    }

    /// Like [`Block::new`] but with an explicit row count, so a block whose
    /// columns were all pruned by selective decode still reports how many
    /// rows it covers.
    pub fn new_with_rows(
        id: BlockId,
        schema: Schema,
        columns: Vec<Column>,
        rows: usize,
    ) -> Result<Block> {
        if schema.len() != columns.len() {
            return Err(FeisuError::Internal(format!(
                "block {id}: schema has {} fields but {} columns supplied",
                schema.len(),
                columns.len()
            )));
        }
        for (f, c) in schema.fields().iter().zip(&columns) {
            if c.len() != rows {
                return Err(FeisuError::Internal(format!(
                    "block {id}: ragged columns ({} vs {rows} rows)",
                    c.len()
                )));
            }
            if c.data_type() != f.data_type {
                return Err(FeisuError::Internal(format!(
                    "block {id}: column `{}` is {} but schema says {}",
                    f.name,
                    c.data_type(),
                    f.data_type
                )));
            }
        }
        Ok(Block {
            id,
            schema,
            columns,
            rows,
        })
    }

    pub fn id(&self) -> BlockId {
        self.id
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    pub fn column_by_name(&self, name: &str) -> Option<&Column> {
        self.schema.index_of(name).map(|i| &self.columns[i])
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Approximate uncompressed in-memory footprint.
    pub fn footprint(&self) -> usize {
        self.columns.iter().map(|c| c.footprint()).sum()
    }

    /// Serializes the block to the Feisu binary format, zone maps included.
    pub fn serialize(&self) -> Vec<u8> {
        self.serialize_summarized().0
    }

    /// [`Block::serialize`], also returning each column's [`ChunkSummary`]:
    /// statistics computed once, where the data is written (Fig. 6's
    /// header `range`).
    pub fn serialize_summarized(&self) -> (Vec<u8>, Vec<ChunkSummary<'_>>) {
        let mut header = Vec::with_capacity(self.schema.len() * 16 + 8);
        varint::encode(self.rows as u64, &mut header);
        varint::encode(self.schema.len() as u64, &mut header);
        for f in self.schema.fields() {
            varint::encode(f.name.len() as u64, &mut header);
            header.extend_from_slice(f.name.as_bytes());
            header.push(type_tag(f.data_type));
            header.push(f.nullable as u8);
        }
        let header = compress::compress_adaptive(&header);

        let mut out = Vec::with_capacity(self.footprint() / 2 + 64);
        out.extend_from_slice(BLOCK_MAGIC);
        out.push(BLOCK_VERSION);
        varint::encode(self.id.raw(), &mut out);
        varint::encode(header.len() as u64, &mut out);
        out.extend_from_slice(&header);

        let chunks_start = out.len();
        let mut directory = Vec::with_capacity(self.columns.len());
        let mut summaries = Vec::with_capacity(self.columns.len());
        let mut body = Vec::new();
        for c in &self.columns {
            body.clear();
            // Sized once from what (but for large delta jumps) bounds the
            // encoded size, not doubled as many times as the rows take.
            body.reserve(c.footprint() + 64);
            summaries.push(encode_column(c, &mut body));
            let chunk = compress::compress_adaptive(&body);
            directory.push((out.len() - chunks_start, chunk.len()));
            out.extend_from_slice(&chunk);
        }

        let footer_start = out.len() as u64;
        varint::encode(self.columns.len() as u64, &mut out);
        for (offset, len) in directory {
            varint::encode(offset as u64, &mut out);
            varint::encode(len as u64, &mut out);
        }
        out.push(ZONE_SECTION_TAG);
        for ChunkSummary { zone, .. } in &summaries {
            match (&zone.min, &zone.max) {
                (Some(min), Some(max)) => {
                    out.push(1);
                    encode_zone_value(min, &mut out);
                    encode_zone_value(max, &mut out);
                }
                _ => out.push(0),
            }
            varint::encode(zone.null_count as u64, &mut out);
        }
        out.extend_from_slice(&footer_start.to_le_bytes());
        (out, summaries)
    }

    /// Parses a serialized block, decoding every column.
    pub fn deserialize(buf: &[u8]) -> Result<Block> {
        BlockMeta::parse(buf)?.decode_all_chunks(buf)
    }

    /// Parses a serialized block but decodes only the named columns, using
    /// the footer's offset directory to skip the rest entirely — the
    /// decompressor never touches an unrequested chunk. The result is a
    /// block whose schema is the requested subset in stored order; its row
    /// count still reflects the full block (even if `names` is empty).
    ///
    /// Requesting a column the block does not have is a corruption error,
    /// and names may be repeated (decoded once).
    pub fn deserialize_columns(buf: &[u8], names: &[&str]) -> Result<Block> {
        BlockMeta::parse(buf)?.decode_named_chunks(buf, names)
    }

    /// Reads the block's metadata — id, schema, row count, chunk directory
    /// and the footer zone maps if present — without decoding any column
    /// chunk. This is the zone-skip entry point: a leaf that has no
    /// resident copy calls it once and then both decides the skip and
    /// decodes chunks ([`BlockMeta::decode_columns`]) through the result.
    pub fn read_meta(buf: &[u8]) -> Result<BlockMeta> {
        BlockMeta::parse(buf)
    }
}

/// A block's parsed envelope, schema header and footer: everything but
/// the column chunks, in the one form both the zone check and the chunk
/// decoder use. It is parsed from one buffer and decodes only a buffer it
/// [`describes`](BlockMeta::describes), so a copy kept resident across
/// tasks can never be applied to rewritten bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockMeta {
    pub id: BlockId,
    pub rows: usize,
    pub schema: Schema,
    /// Per-column zone statistics in schema order.
    pub zones: Vec<ColumnStats>,
    /// Bytes a reader must touch to obtain this metadata: envelope +
    /// compressed header + footer (directory, zones, trailer). Column
    /// chunks are excluded.
    pub meta_bytes: usize,
    /// Absolute offset of the first chunk byte.
    chunks_start: usize,
    /// Absolute offset of the footer (what the trailer word holds).
    footer_start: usize,
    /// Per column: (offset relative to `chunks_start`, chunk length).
    directory: Vec<(usize, usize)>,
    /// Length of the buffer this was parsed from.
    block_len: usize,
    /// Hash of that buffer's metadata regions, `[..chunks_start]` and
    /// `[footer_start..]`: every byte the fields above were derived from.
    fingerprint: u64,
}

/// A footer paired with the bytes it describes, checked once — or paired
/// by construction, the footer parsed from them — so its decoders hash
/// nothing: the per-task form of [`BlockMeta::decode_columns`] and
/// [`BlockMeta::decode_selected`].
#[derive(Debug, Clone)]
pub struct Described {
    meta: Arc<BlockMeta>,
    data: Bytes,
}

impl Described {
    /// Pairs `meta` with `data` when it [describes](BlockMeta::describes)
    /// them; hands `data` back otherwise.
    pub fn check(meta: Arc<BlockMeta>, data: Bytes) -> std::result::Result<Described, Bytes> {
        match meta.describes(&data) {
            true => Ok(Described { meta, data }),
            false => Err(data),
        }
    }

    /// Parses the footer of `data` and pairs the two.
    pub fn parse(data: Bytes) -> Result<Described> {
        let meta = Arc::new(BlockMeta::parse(&data)?);
        Ok(Described { meta, data })
    }

    pub fn meta(&self) -> &Arc<BlockMeta> {
        &self.meta
    }

    pub fn data(&self) -> &Bytes {
        &self.data
    }

    /// [`BlockMeta::decode_columns`] over the paired bytes.
    pub fn decode_columns(&self, names: &[&str]) -> Result<Block> {
        self.meta.decode_named_chunks(&self.data, names)
    }

    /// [`BlockMeta::decode_selected`] over the paired bytes.
    pub fn decode_selected(&self, names: &[&str], selection: &BitVec) -> Result<Vec<Column>> {
        self.meta
            .decode_selected_chunks(&self.data, names, selection)
    }
}

thread_local! {
    static PARSES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    static CHUNK_DECODES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Footers parsed on the calling thread so far. A test takes the
/// difference around a call to assert how many parses the call made.
pub fn footer_parses_on_this_thread() -> u64 {
    PARSES.with(|p| p.get())
}

/// Column chunks decompressed and decoded on the calling thread so far,
/// through any of the decode entry points; used as the count above is.
pub fn chunk_decodes_on_this_thread() -> u64 {
    CHUNK_DECODES.with(|c| c.get())
}

fn fingerprint(head: &[u8], footer: &[u8]) -> u64 {
    feisu_common::hash::hash_one(&(head, footer))
}

impl BlockMeta {
    fn parse(buf: &[u8]) -> Result<BlockMeta> {
        PARSES.with(|p| p.set(p.get() + 1));
        if buf.len() < 9 || &buf[..8] != BLOCK_MAGIC {
            return Err(FeisuError::Corrupt("bad block magic".into()));
        }
        if buf[8] != BLOCK_VERSION {
            return Err(FeisuError::Corrupt(format!(
                "unsupported block version {}",
                buf[8]
            )));
        }
        let mut pos = 9usize;
        let id = BlockId(varint::decode(buf, &mut pos)?);
        let header_len = varint::decode(buf, &mut pos)? as usize;
        let header_end = pos
            .checked_add(header_len)
            .filter(|&end| end <= buf.len())
            .ok_or_else(|| FeisuError::Corrupt("truncated block header".into()))?;
        let header = compress::decompress(&buf[pos..header_end])?;
        let chunks_start = header_end;

        let mut hpos = 0usize;
        let rows = varint::decode(&header, &mut hpos)? as usize;
        let nfields = varint::decode(&header, &mut hpos)? as usize;
        // Each field costs at least 3 header bytes; a count past that bound
        // is corrupt and must not drive a huge allocation.
        if nfields > header.len() {
            return Err(FeisuError::Corrupt(format!(
                "implausible field count {nfields}"
            )));
        }
        let mut fields = Vec::with_capacity(nfields);
        for _ in 0..nfields {
            let name_len = varint::decode(&header, &mut hpos)? as usize;
            let end = hpos
                .checked_add(name_len)
                .filter(|&end| end <= header.len())
                .ok_or_else(|| FeisuError::Corrupt("truncated field name".into()))?;
            let name = std::str::from_utf8(&header[hpos..end])
                .map_err(|_| FeisuError::Corrupt("field name not utf8".into()))?
                .to_string();
            hpos = end;
            let dt = type_from_tag(
                *header
                    .get(hpos)
                    .ok_or_else(|| FeisuError::Corrupt("missing type tag".into()))?,
            )?;
            let nullable = *header
                .get(hpos + 1)
                .ok_or_else(|| FeisuError::Corrupt("missing nullable flag".into()))?
                != 0;
            hpos += 2;
            fields.push(Field::new(name, dt, nullable));
        }
        let schema = Schema::try_new(fields)
            .map_err(|name| FeisuError::Corrupt(format!("duplicate column name `{name}`")))?;

        // The trailing 8 bytes locate the footer; everything between the
        // chunks and the footer must stay inside the buffer.
        if buf.len() < chunks_start + 8 {
            return Err(FeisuError::Corrupt("truncated block footer".into()));
        }
        let trailer_start = buf.len() - 8;
        let footer_start = u64::from_le_bytes(buf[trailer_start..].try_into().unwrap()) as usize;
        if footer_start < chunks_start || footer_start > trailer_start {
            return Err(FeisuError::Corrupt(format!(
                "footer offset {footer_start} out of range"
            )));
        }
        let footer = &buf[..trailer_start];
        let mut fpos = footer_start;
        let ncols = varint::decode(footer, &mut fpos)? as usize;
        if ncols != schema.len() {
            return Err(FeisuError::Corrupt(format!(
                "directory lists {ncols} columns, schema has {}",
                schema.len()
            )));
        }
        let chunk_region = footer_start - chunks_start;
        let mut directory = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let offset = varint::decode(footer, &mut fpos)? as usize;
            let len = varint::decode(footer, &mut fpos)? as usize;
            if offset.checked_add(len).is_none_or(|end| end > chunk_region) {
                return Err(FeisuError::Corrupt(format!(
                    "column chunk at {offset}+{len} exceeds chunk region {chunk_region}"
                )));
            }
            directory.push((offset, len));
        }
        // The zone section follows the directory and ends exactly at the
        // trailer.
        if fpos == trailer_start {
            return Err(FeisuError::Corrupt("footer has no zone section".into()));
        }
        let tag = footer[fpos];
        fpos += 1;
        if tag != ZONE_SECTION_TAG {
            return Err(FeisuError::Corrupt(format!(
                "unknown footer section tag {tag}"
            )));
        }
        let mut zones = Vec::with_capacity(schema.len());
        for field in schema.fields() {
            let present = *footer
                .get(fpos)
                .ok_or_else(|| FeisuError::Corrupt("truncated zone section".into()))?;
            fpos += 1;
            let (min, max) = match present {
                0 => (None, None),
                1 => {
                    let min = decode_zone_value(footer, &mut fpos, field.data_type)?;
                    let max = decode_zone_value(footer, &mut fpos, field.data_type)?;
                    // Provably inverted bounds are corruption. NaN float
                    // bounds compare as None and pass: min_max() orders
                    // by total_cmp, so NaN can be a legitimate bound.
                    if min.sql_cmp(&max) == Some(std::cmp::Ordering::Greater) {
                        return Err(FeisuError::Corrupt(format!(
                            "zone min {min} exceeds max {max} for column `{}`",
                            field.name
                        )));
                    }
                    (Some(min), Some(max))
                }
                other => {
                    return Err(FeisuError::Corrupt(format!(
                        "bad zone presence flag {other}"
                    )))
                }
            };
            let null_count = varint::decode(footer, &mut fpos)? as usize;
            if null_count > rows {
                return Err(FeisuError::Corrupt(format!(
                    "zone null count {null_count} exceeds {rows} rows"
                )));
            }
            zones.push(ColumnStats {
                min,
                max,
                null_count,
            });
        }
        if fpos != trailer_start {
            return Err(FeisuError::Corrupt(format!(
                "{} trailing bytes after zone section",
                trailer_start - fpos
            )));
        }
        Ok(BlockMeta {
            id,
            rows,
            schema,
            zones,
            meta_bytes: chunks_start + (buf.len() - footer_start),
            chunks_start,
            footer_start,
            directory,
            block_len: buf.len(),
            fingerprint: fingerprint(&buf[..chunks_start], &buf[footer_start..]),
        })
    }

    /// True when `buf` has the length and the exact metadata bytes this
    /// footer was parsed from, so parsing `buf` would give this footer
    /// again. Costs one hash over `meta_bytes`, no parse.
    pub fn describes(&self, buf: &[u8]) -> bool {
        buf.len() == self.block_len
            && fingerprint(&buf[..self.chunks_start], &buf[self.footer_start..]) == self.fingerprint
    }

    /// Approximate heap bytes a resident copy holds (what a footer cache
    /// charges against its bound): the fields and their name index, the
    /// chunk directory and the zone bounds.
    pub fn footprint(&self) -> usize {
        use std::mem::size_of;
        let bound = |v: &Option<Value>| match v {
            Some(Value::Utf8(s)) => s.len(),
            _ => 0,
        };
        let fields: usize = self
            .schema
            .fields()
            .iter()
            // Name bytes twice: the field and the schema's name index.
            .map(|f| size_of::<Field>() + 2 * (f.name.len() + size_of::<String>()))
            .sum();
        let zones: usize = self.zones.iter().fold(0, |sum, z| {
            sum + size_of::<ColumnStats>() + bound(&z.min) + bound(&z.max)
        });
        size_of::<BlockMeta>() + fields + zones + self.directory.len() * size_of::<(usize, usize)>()
    }

    /// Byte length of each column chunk, in schema order.
    pub fn chunk_lens(&self) -> impl Iterator<Item = u64> + '_ {
        self.directory.iter().map(|&(_, len)| len as u64)
    }

    /// Decodes only the named columns of `buf` through this footer — the
    /// same contract as [`Block::deserialize_columns`] without the parse.
    /// `buf` must be the bytes this footer [`describes`](Self::describes);
    /// any other buffer is refused as `Corrupt` before a chunk is touched.
    pub fn decode_columns(&self, buf: &[u8], names: &[&str]) -> Result<Block> {
        self.check_describes(buf)?;
        self.decode_named_chunks(buf, names)
    }

    /// Decodes every column of `buf` through this footer; see
    /// [`BlockMeta::decode_columns`].
    pub fn decode_all(&self, buf: &[u8]) -> Result<Block> {
        self.check_describes(buf)?;
        self.decode_all_chunks(buf)
    }

    fn check_describes(&self, buf: &[u8]) -> Result<()> {
        if self.describes(buf) {
            Ok(())
        } else {
            Err(FeisuError::Corrupt(format!(
                "footer of block {} does not describe these {} bytes",
                self.id,
                buf.len()
            )))
        }
    }

    /// Decodes the named columns of `buf` through this footer, keeping
    /// only the rows `selection` picks (one bit per row of the block, else
    /// an `Internal` error): one column per name, in the order named, each
    /// what [`BlockMeta::decode_columns`] then [`Column::filter`] would
    /// give. Every named chunk is still decompressed and validated whole,
    /// so corruption is reported even under an empty selection; what
    /// follows the selection is what is allocated per row.
    pub fn decode_selected(
        &self,
        buf: &[u8],
        names: &[&str],
        selection: &BitVec,
    ) -> Result<Vec<Column>> {
        self.check_describes(buf)?;
        self.decode_selected_chunks(buf, names, selection)
    }

    fn decode_selected_chunks(
        &self,
        buf: &[u8],
        names: &[&str],
        selection: &BitVec,
    ) -> Result<Vec<Column>> {
        selection.check_len(self.rows)?;
        names
            .iter()
            .map(|name| self.decode_chunk(buf, self.index_of(name)?, Some(selection)))
            .collect()
    }

    fn index_of(&self, name: &str) -> Result<usize> {
        self.schema
            .index_of(name)
            .ok_or_else(|| FeisuError::Corrupt(format!("requested column `{name}` not in block")))
    }

    fn decode_named_chunks(&self, buf: &[u8], names: &[&str]) -> Result<Block> {
        let mut wanted = vec![false; self.schema.len()];
        for name in names {
            wanted[self.index_of(name)?] = true;
        }
        let mut fields = Vec::new();
        let mut columns = Vec::new();
        for (i, want) in wanted.iter().enumerate() {
            if *want {
                fields.push(self.schema.fields()[i].clone());
                columns.push(self.decode_chunk(buf, i, None)?);
            }
        }
        Block::new_with_rows(self.id, Schema::new(fields), columns, self.rows)
    }

    fn decode_all_chunks(&self, buf: &[u8]) -> Result<Block> {
        let columns = (0..self.schema.len())
            .map(|i| self.decode_chunk(buf, i, None))
            .collect::<Result<Vec<_>>>()?;
        Block::new_with_rows(self.id, self.schema.clone(), columns, self.rows)
    }

    /// Decompresses and decodes the chunk for column `i`, keeping the rows
    /// of `selection` (`None`: all). The slice is bounds-checked against
    /// the buffer actually passed in, not the one the directory was
    /// validated against.
    fn decode_chunk(&self, buf: &[u8], i: usize, selection: Option<&BitVec>) -> Result<Column> {
        CHUNK_DECODES.with(|c| c.set(c.get() + 1));
        let chunk = self
            .directory
            .get(i)
            .and_then(|&(offset, len)| {
                let start = self.chunks_start.checked_add(offset)?;
                buf.get(start..start.checked_add(len)?)
            })
            .ok_or_else(|| FeisuError::Corrupt(format!("column chunk {i} outside the buffer")))?;
        let body = compress::decompress(chunk)?;
        let mut pos = 0usize;
        let column = decode_column(
            self.schema.fields()[i].data_type,
            self.rows,
            &body,
            &mut pos,
            selection,
        )?;
        if pos != body.len() {
            return Err(FeisuError::Corrupt(format!(
                "column chunk has {} trailing bytes",
                body.len() - pos
            )));
        }
        Ok(column)
    }
}

/// Tag byte opening the footer zone section. Distinguishes a
/// zone-bearing footer from any future footer extension; an unknown tag is
/// corruption, not silently ignored data.
const ZONE_SECTION_TAG: u8 = 1;

/// Encodes one zone bound as `type_tag(1) | payload`. The tag is written
/// even though the schema implies it so a reader can cross-check: a zone
/// whose tag disagrees with its column's type is corruption.
fn encode_zone_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Bool(b) => {
            out.push(type_tag(DataType::Bool));
            out.push(*b as u8);
        }
        Value::Int64(i) => {
            out.push(type_tag(DataType::Int64));
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float64(f) => {
            out.push(type_tag(DataType::Float64));
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Utf8(s) => {
            out.push(type_tag(DataType::Utf8));
            varint::encode(s.len() as u64, out);
            out.extend_from_slice(s.as_bytes());
        }
        // Column::min_max never yields Null bounds; the presence byte
        // covers the all-null case.
        Value::Null => unreachable!("null zone bound"),
    }
}

/// Decodes one zone bound, requiring its type tag to match the column's
/// declared type.
fn decode_zone_value(buf: &[u8], pos: &mut usize, dt: DataType) -> Result<Value> {
    let tag = *buf
        .get(*pos)
        .ok_or_else(|| FeisuError::Corrupt("truncated zone value".into()))?;
    *pos += 1;
    if type_from_tag(tag)? != dt {
        return Err(FeisuError::Corrupt(format!(
            "zone value tag {tag} does not match column type {dt}"
        )));
    }
    match dt {
        DataType::Bool => {
            let b = *buf
                .get(*pos)
                .ok_or_else(|| FeisuError::Corrupt("truncated zone value".into()))?;
            *pos += 1;
            Ok(Value::Bool(b != 0))
        }
        DataType::Int64 => {
            let end = pos
                .checked_add(8)
                .filter(|&end| end <= buf.len())
                .ok_or_else(|| FeisuError::Corrupt("truncated zone value".into()))?;
            let v = i64::from_le_bytes(buf[*pos..end].try_into().unwrap());
            *pos = end;
            Ok(Value::Int64(v))
        }
        DataType::Float64 => {
            let end = pos
                .checked_add(8)
                .filter(|&end| end <= buf.len())
                .ok_or_else(|| FeisuError::Corrupt("truncated zone value".into()))?;
            let v = f64::from_bits(u64::from_le_bytes(buf[*pos..end].try_into().unwrap()));
            *pos = end;
            Ok(Value::Float64(v))
        }
        DataType::Utf8 => {
            let len = varint::decode(buf, pos)? as usize;
            let end = pos
                .checked_add(len)
                .filter(|&end| end <= buf.len())
                .ok_or_else(|| FeisuError::Corrupt("truncated zone value".into()))?;
            let s = std::str::from_utf8(&buf[*pos..end])
                .map_err(|_| FeisuError::Corrupt("zone value not utf8".into()))?
                .to_string();
            *pos = end;
            Ok(Value::Utf8(s))
        }
    }
}

fn type_tag(dt: DataType) -> u8 {
    match dt {
        DataType::Bool => 0,
        DataType::Int64 => 1,
        DataType::Float64 => 2,
        DataType::Utf8 => 3,
    }
}

fn type_from_tag(tag: u8) -> Result<DataType> {
    match tag {
        0 => Ok(DataType::Bool),
        1 => Ok(DataType::Int64),
        2 => Ok(DataType::Float64),
        3 => Ok(DataType::Utf8),
        other => Err(FeisuError::Corrupt(format!("unknown type tag {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::ENC_DELTA;
    use crate::column::{ColumnData, Validity};
    use crate::encoding::delta;
    use crate::Utf8Vec;

    fn sample_block() -> Block {
        let schema = Schema::new(vec![
            Field::new("url", DataType::Utf8, false),
            Field::new("clicks", DataType::Int64, true),
            Field::new("ctr", DataType::Float64, false),
            Field::new("spam", DataType::Bool, false),
        ]);
        let columns = vec![
            Column::from_utf8(
                (0..100)
                    .map(|i| format!("https://example.com/page/{}", i % 7))
                    .collect(),
            ),
            Column::from_values(
                DataType::Int64,
                &(0..100)
                    .map(|i| {
                        if i % 10 == 0 {
                            Value::Null
                        } else {
                            Value::Int64(i * 3)
                        }
                    })
                    .collect::<Vec<_>>(),
            )
            .unwrap(),
            Column::from_f64((0..100).map(|i| i as f64 / 100.0).collect()),
            Column::from_bool((0..100).map(|i| i % 13 == 0).collect()),
        ];
        Block::new(BlockId(42), schema, columns).unwrap()
    }

    #[test]
    fn construction_validates_shape() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int64, false)]);
        // Wrong column count.
        assert!(Block::new(BlockId(0), schema.clone(), vec![]).is_err());
        // Wrong type.
        assert!(Block::new(
            BlockId(0),
            schema.clone(),
            vec![Column::from_bool(vec![true])]
        )
        .is_err());
        // Ragged lengths.
        let schema2 = Schema::new(vec![
            Field::new("a", DataType::Int64, false),
            Field::new("b", DataType::Int64, false),
        ]);
        assert!(Block::new(
            BlockId(0),
            schema2,
            vec![Column::from_i64(vec![1]), Column::from_i64(vec![1, 2])]
        )
        .is_err());
    }

    #[test]
    fn serialize_roundtrip() {
        let b = sample_block();
        let bytes = b.serialize();
        let back = Block::deserialize(&bytes).unwrap();
        assert_eq!(back, b);
        assert_eq!(back.id(), BlockId(42));
        assert_eq!(back.rows(), 100);
    }

    #[test]
    fn serialized_form_compresses_repetitive_data() {
        let b = sample_block();
        let bytes = b.serialize();
        assert!(
            bytes.len() < b.footprint(),
            "serialized {} >= footprint {}",
            bytes.len(),
            b.footprint()
        );
    }

    #[test]
    fn empty_block_roundtrip() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int64, false)]);
        let b = Block::new(BlockId(1), schema, vec![Column::from_i64(vec![])]).unwrap();
        let back = Block::deserialize(&b.serialize()).unwrap();
        assert_eq!(back.rows(), 0);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample_block().serialize();
        bytes[0] = b'X';
        assert!(matches!(
            Block::deserialize(&bytes),
            Err(FeisuError::Corrupt(_))
        ));
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = sample_block().serialize();
        bytes[8] = 99;
        assert!(Block::deserialize(&bytes).is_err());
    }

    #[test]
    fn truncation_rejected() {
        let bytes = sample_block().serialize();
        for cut in [bytes.len() / 2, bytes.len() - 1, 10] {
            assert!(
                Block::deserialize(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    /// Assembles a v2 buffer from raw parts so corruption tests can craft
    /// hostile inputs: `fields` are (name, tag, nullable) header entries,
    /// `chunks` are pre-compressed column chunks, and `directory` overrides
    /// the footer entries (pass the natural offsets to get a valid file).
    /// The footer ends with a valid zone section: no bounds, no NULLs.
    fn assemble_v2(
        rows: u64,
        fields: &[(&str, u8, u8)],
        chunks: &[Vec<u8>],
        directory: &[(u64, u64)],
    ) -> Vec<u8> {
        let mut zones = vec![ZONE_SECTION_TAG];
        fields.iter().for_each(|_| zones.extend([0, 0]));
        assemble_v2_with_zone_bytes(rows, fields, chunks, directory, &zones)
    }

    /// Like `assemble_v2` but with caller-supplied raw bytes between the
    /// chunk directory and the trailer — hostile zone sections.
    fn assemble_v2_with_zone_bytes(
        rows: u64,
        fields: &[(&str, u8, u8)],
        chunks: &[Vec<u8>],
        directory: &[(u64, u64)],
        zone_bytes: &[u8],
    ) -> Vec<u8> {
        let mut header = Vec::new();
        varint::encode(rows, &mut header);
        varint::encode(fields.len() as u64, &mut header);
        for (name, tag, nullable) in fields {
            varint::encode(name.len() as u64, &mut header);
            header.extend_from_slice(name.as_bytes());
            header.push(*tag);
            header.push(*nullable);
        }
        let header = compress::compress_adaptive(&header);
        let mut buf = Vec::new();
        buf.extend_from_slice(BLOCK_MAGIC);
        buf.push(BLOCK_VERSION);
        varint::encode(42, &mut buf);
        varint::encode(header.len() as u64, &mut buf);
        buf.extend_from_slice(&header);
        for chunk in chunks {
            buf.extend_from_slice(chunk);
        }
        let footer_start = buf.len() as u64;
        varint::encode(directory.len() as u64, &mut buf);
        for (offset, len) in directory {
            varint::encode(*offset, &mut buf);
            varint::encode(*len, &mut buf);
        }
        buf.extend_from_slice(zone_bytes);
        buf.extend_from_slice(&footer_start.to_le_bytes());
        buf
    }

    #[test]
    fn huge_validity_word_count_rejected_not_panicking() {
        // A column chunk claiming u64::MAX validity words: the byte-size
        // multiply must be checked, not wrap past the bounds check (or
        // panic in debug builds).
        let mut body = Vec::new();
        varint::encode(u64::MAX, &mut body); // validity word count
        let chunk = compress::compress_adaptive(&body);
        let len = chunk.len() as u64;
        let buf = assemble_v2(
            4,
            &[("x", type_tag(DataType::Int64), 1)],
            &[chunk],
            &[(0, len)],
        );
        assert!(matches!(
            Block::deserialize(&buf),
            Err(FeisuError::Corrupt(_))
        ));
    }

    #[test]
    fn old_version_rejected() {
        let mut bytes = sample_block().serialize();
        bytes[8] = 1; // v1: whole-body compression, no directory
        assert!(matches!(
            Block::deserialize(&bytes),
            Err(FeisuError::Corrupt(_))
        ));
    }

    #[test]
    fn truncated_footer_rejected_not_panicking() {
        let bytes = sample_block().serialize();
        // Shave the trailer pointer byte by byte; every prefix must fail
        // cleanly, including ones that cut into the footer varints.
        for cut in 1..=12 {
            assert!(
                matches!(
                    Block::deserialize(&bytes[..bytes.len() - cut]),
                    Err(FeisuError::Corrupt(_))
                ),
                "cut of {cut} trailing bytes must be Corrupt"
            );
        }
    }

    #[test]
    fn footer_offset_out_of_range_rejected() {
        let mut bytes = sample_block().serialize();
        let n = bytes.len();
        // Trailer pointing past the trailer itself.
        bytes[n - 8..].copy_from_slice(&(n as u64).to_le_bytes());
        assert!(matches!(
            Block::deserialize(&bytes),
            Err(FeisuError::Corrupt(_))
        ));
        // Trailer pointing before the first chunk (into the header).
        bytes[n - 8..].copy_from_slice(&2u64.to_le_bytes());
        assert!(matches!(
            Block::deserialize(&bytes),
            Err(FeisuError::Corrupt(_))
        ));
    }

    #[test]
    fn chunk_offset_past_end_rejected_not_panicking() {
        let mut body = Vec::new();
        varint::encode(0, &mut body); // zero validity words
        body.push(ENC_DELTA);
        delta::encode(&[1, 2, 3, 4], &mut body);
        let chunk = compress::compress_adaptive(&body);
        let len = chunk.len() as u64;
        let fields = [("x", type_tag(DataType::Int64), 0)];
        // Offset pointing past the chunk region.
        let buf = assemble_v2(
            4,
            &fields,
            std::slice::from_ref(&chunk),
            &[(len + 1000, len)],
        );
        assert!(matches!(
            Block::deserialize(&buf),
            Err(FeisuError::Corrupt(_))
        ));
        // Length running past the chunk region; offset+len may also wrap.
        let buf = assemble_v2(4, &fields, std::slice::from_ref(&chunk), &[(0, u64::MAX)]);
        assert!(matches!(
            Block::deserialize(&buf),
            Err(FeisuError::Corrupt(_))
        ));
        let buf = assemble_v2(4, &fields, &[chunk], &[(u64::MAX, u64::MAX)]);
        assert!(matches!(
            Block::deserialize(&buf),
            Err(FeisuError::Corrupt(_))
        ));
    }

    #[test]
    fn directory_count_mismatch_rejected() {
        let mut body = Vec::new();
        varint::encode(0, &mut body);
        body.push(ENC_DELTA);
        delta::encode(&[7, 7, 7, 7], &mut body);
        let chunk = compress::compress_adaptive(&body);
        let len = chunk.len() as u64;
        // One schema field, two directory entries.
        let buf = assemble_v2(
            4,
            &[("x", type_tag(DataType::Int64), 0)],
            &[chunk],
            &[(0, len), (0, len)],
        );
        assert!(matches!(
            Block::deserialize(&buf),
            Err(FeisuError::Corrupt(_))
        ));
    }

    #[test]
    fn duplicate_column_name_rejected() {
        let mut body = Vec::new();
        varint::encode(0, &mut body);
        body.push(ENC_DELTA);
        delta::encode(&[1, 2, 3, 4], &mut body);
        let chunk = compress::compress_adaptive(&body);
        let len = chunk.len() as u64;
        let buf = assemble_v2(
            4,
            &[
                ("x", type_tag(DataType::Int64), 0),
                ("x", type_tag(DataType::Int64), 0),
            ],
            &[chunk.clone(), chunk],
            &[(0, len), (0, len)],
        );
        assert!(matches!(
            Block::deserialize(&buf),
            Err(FeisuError::Corrupt(_))
        ));
    }

    #[test]
    fn unknown_requested_column_rejected() {
        let bytes = sample_block().serialize();
        assert!(matches!(
            Block::deserialize_columns(&bytes, &["nope"]),
            Err(FeisuError::Corrupt(_))
        ));
    }

    #[test]
    fn deserialize_columns_subset() {
        let b = sample_block();
        let bytes = b.serialize();
        // Out-of-order, duplicated request: decoded once, in stored order.
        let sub = Block::deserialize_columns(&bytes, &["ctr", "url", "ctr"]).unwrap();
        assert_eq!(sub.id(), b.id());
        assert_eq!(sub.rows(), b.rows());
        assert_eq!(sub.schema().len(), 2);
        assert_eq!(sub.schema().fields()[0].name, "url");
        assert_eq!(sub.schema().fields()[1].name, "ctr");
        assert_eq!(sub.column_by_name("url"), b.column_by_name("url"));
        assert_eq!(sub.column_by_name("ctr"), b.column_by_name("ctr"));
    }

    #[test]
    fn deserialize_columns_empty_keeps_row_count() {
        let bytes = sample_block().serialize();
        let sub = Block::deserialize_columns(&bytes, &[]).unwrap();
        assert_eq!(sub.rows(), 100);
        assert_eq!(sub.schema().len(), 0);
    }

    /// One valid int chunk + matching directory entry, shared by the zone
    /// corruption tests below.
    fn int_chunk() -> (Vec<u8>, u64) {
        let mut body = Vec::new();
        varint::encode(0, &mut body);
        body.push(ENC_DELTA);
        delta::encode(&[1, 2, 3, 4], &mut body);
        let chunk = compress::compress_adaptive(&body);
        let len = chunk.len() as u64;
        (chunk, len)
    }

    #[test]
    fn read_meta_roundtrips_zones() {
        let b = sample_block();
        let bytes = b.serialize();
        let meta = Block::read_meta(&bytes).unwrap();
        assert_eq!(meta.id, b.id());
        assert_eq!(&meta.schema, b.schema());
        assert_eq!(meta.rows, 100);
        let zones = meta.zones;
        assert_eq!(zones.len(), 4);
        for (i, z) in zones.iter().enumerate() {
            let c = b.column(i);
            let (min, max) = c.min_max().unzip();
            assert_eq!((&z.min, &z.max), (&min, &max), "zone {i} bounds");
            assert_eq!(z.null_count, c.null_count(), "zone {i} nulls");
        }
        assert_eq!(zones[1].min, Some(Value::Int64(3)));
        assert_eq!(zones[1].max, Some(Value::Int64(297)));
        assert_eq!(zones[1].null_count, 10);
        assert!(meta.meta_bytes > 0 && meta.meta_bytes < bytes.len());
    }

    #[test]
    fn all_null_column_gets_absent_zone_bounds() {
        let schema = Schema::new(vec![Field::new("n", DataType::Int64, true)]);
        let col =
            Column::from_values(DataType::Int64, &[Value::Null, Value::Null, Value::Null]).unwrap();
        let b = Block::new(BlockId(7), schema, vec![col]).unwrap();
        let zones = Block::read_meta(&b.serialize()).unwrap().zones;
        assert_eq!(zones[0].min, None);
        assert_eq!(zones[0].max, None);
        assert_eq!(zones[0].null_count, 3);
    }

    #[test]
    fn a_footer_without_a_zone_section_is_corrupt() {
        // The layout written before zone maps existed: the directory runs
        // up to the trailer.
        let (chunk, len) = int_chunk();
        let fields = [("x", type_tag(DataType::Int64), 0)];
        let buf = assemble_v2_with_zone_bytes(4, &fields, &[chunk], &[(0, len)], &[]);
        let err = Block::read_meta(&buf).unwrap_err();
        assert!(
            matches!(&err, FeisuError::Corrupt(m) if m.contains("no zone section")),
            "{err:?}"
        );
    }

    #[test]
    fn zoned_block_full_and_subset_decode_unchanged() {
        let b = sample_block();
        let bytes = b.serialize();
        assert_eq!(Block::deserialize(&bytes).unwrap(), b);
        let sub = Block::deserialize_columns(&bytes, &["ctr", "url"]).unwrap();
        assert_eq!(sub.column_by_name("url"), b.column_by_name("url"));
        assert_eq!(sub.column_by_name("ctr"), b.column_by_name("ctr"));
    }

    #[test]
    fn unknown_zone_section_tag_rejected() {
        let (chunk, len) = int_chunk();
        let fields = [("x", type_tag(DataType::Int64), 0)];
        let buf = assemble_v2_with_zone_bytes(4, &fields, &[chunk], &[(0, len)], &[9]);
        assert!(matches!(
            Block::read_meta(&buf),
            Err(FeisuError::Corrupt(_))
        ));
    }

    #[test]
    fn bad_zone_presence_flag_rejected() {
        let (chunk, len) = int_chunk();
        let fields = [("x", type_tag(DataType::Int64), 0)];
        let buf =
            assemble_v2_with_zone_bytes(4, &fields, &[chunk], &[(0, len)], &[ZONE_SECTION_TAG, 2]);
        assert!(matches!(
            Block::read_meta(&buf),
            Err(FeisuError::Corrupt(_))
        ));
    }

    #[test]
    fn zone_value_type_mismatch_rejected() {
        let (chunk, len) = int_chunk();
        let fields = [("x", type_tag(DataType::Int64), 0)];
        // min claims to be a Bool on an Int64 column.
        let mut zone = vec![ZONE_SECTION_TAG, 1, type_tag(DataType::Bool), 1];
        zone.push(type_tag(DataType::Bool));
        zone.push(1);
        zone.push(0); // null_count
        let buf = assemble_v2_with_zone_bytes(4, &fields, &[chunk], &[(0, len)], &zone);
        assert!(matches!(
            Block::read_meta(&buf),
            Err(FeisuError::Corrupt(_))
        ));
    }

    #[test]
    fn truncated_zone_value_rejected_not_panicking() {
        let (chunk, len) = int_chunk();
        let fields = [("x", type_tag(DataType::Int64), 0)];
        // Int64 min with only 3 of its 8 payload bytes.
        let zone = vec![ZONE_SECTION_TAG, 1, type_tag(DataType::Int64), 1, 2, 3];
        let buf = assemble_v2_with_zone_bytes(4, &fields, &[chunk], &[(0, len)], &zone);
        assert!(matches!(
            Block::read_meta(&buf),
            Err(FeisuError::Corrupt(_))
        ));
    }

    #[test]
    fn inverted_zone_bounds_rejected() {
        let (chunk, len) = int_chunk();
        let fields = [("x", type_tag(DataType::Int64), 0)];
        let mut zone = vec![ZONE_SECTION_TAG, 1];
        encode_zone_value(&Value::Int64(10), &mut zone); // min
        encode_zone_value(&Value::Int64(3), &mut zone); // max < min
        zone.push(0); // null_count
        let buf = assemble_v2_with_zone_bytes(4, &fields, &[chunk], &[(0, len)], &zone);
        assert!(matches!(
            Block::read_meta(&buf),
            Err(FeisuError::Corrupt(_))
        ));
    }

    #[test]
    fn zone_null_count_above_rows_rejected() {
        let (chunk, len) = int_chunk();
        let fields = [("x", type_tag(DataType::Int64), 0)];
        let mut zone = vec![ZONE_SECTION_TAG, 0]; // bounds absent
        varint::encode(5, &mut zone); // null_count > 4 rows
        let buf = assemble_v2_with_zone_bytes(4, &fields, &[chunk], &[(0, len)], &zone);
        assert!(matches!(
            Block::read_meta(&buf),
            Err(FeisuError::Corrupt(_))
        ));
    }

    #[test]
    fn trailing_bytes_after_zone_section_rejected() {
        let (chunk, len) = int_chunk();
        let fields = [("x", type_tag(DataType::Int64), 0)];
        let mut zone = vec![ZONE_SECTION_TAG, 1];
        encode_zone_value(&Value::Int64(1), &mut zone);
        encode_zone_value(&Value::Int64(4), &mut zone);
        zone.push(0); // null_count
        zone.push(0xAB); // garbage after a well-formed section
        let buf = assemble_v2_with_zone_bytes(4, &fields, &[chunk], &[(0, len)], &zone);
        assert!(matches!(
            Block::read_meta(&buf),
            Err(FeisuError::Corrupt(_))
        ));
    }

    #[test]
    fn truncated_zone_section_mid_column_rejected() {
        let bytes = sample_block().serialize();
        let meta_len = Block::read_meta(&bytes).unwrap().meta_bytes;
        // Re-point the trailer at the original footer while cutting bytes
        // out of the zone section: every such mutilation must be Corrupt.
        let footer_start =
            u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap()) as usize;
        let zone_len = bytes.len() - 8 - footer_start;
        assert!(zone_len > 0 && meta_len > zone_len);
        for cut in 1..zone_len.min(24) {
            let mut buf = bytes[..bytes.len() - 8 - cut].to_vec();
            buf.extend_from_slice(&(footer_start as u64).to_le_bytes());
            assert!(
                matches!(Block::read_meta(&buf), Err(FeisuError::Corrupt(_))),
                "zone section cut of {cut} bytes must be Corrupt"
            );
        }
    }

    #[test]
    fn one_parsed_footer_decodes_what_the_wrappers_decode() {
        let b = sample_block();
        let bytes = b.serialize();
        let before = footer_parses_on_this_thread();
        let meta = Block::read_meta(&bytes).unwrap();
        assert!(meta.describes(&bytes));
        assert_eq!(meta.decode_all(&bytes).unwrap(), b);
        let sub = meta.decode_columns(&bytes, &["ctr", "url", "ctr"]).unwrap();
        assert_eq!(
            footer_parses_on_this_thread() - before,
            1,
            "decoding parses nothing"
        );
        assert_eq!(
            sub,
            Block::deserialize_columns(&bytes, &["url", "ctr"]).unwrap()
        );
        assert!(matches!(
            meta.decode_columns(&bytes, &["nope"]),
            Err(FeisuError::Corrupt(_))
        ));
        // Larger than the bytes it was parsed from (strings, name index),
        // and growing with the schema.
        assert!(meta.footprint() > meta.meta_bytes);
        let narrow = Block::deserialize_columns(&bytes, &["ctr"]).unwrap();
        let narrow = Block::read_meta(&narrow.serialize()).unwrap();
        assert!(narrow.footprint() < meta.footprint());
    }

    #[test]
    fn a_footer_decodes_only_the_bytes_it_describes() {
        let a = sample_block();
        let a_bytes = a.serialize();
        let meta = Block::read_meta(&a_bytes).unwrap();
        let refused = |buf: &[u8]| {
            assert!(!meta.describes(buf));
            assert!(matches!(meta.decode_all(buf), Err(FeisuError::Corrupt(_))));
            assert!(matches!(
                meta.decode_columns(buf, &["url"]),
                Err(FeisuError::Corrupt(_))
            ));
        };
        // A rewrite of the same shape: one value differs, so a zone bound
        // (or a chunk length) in the footer does.
        let mut clicks: Vec<Value> = (0..100).map(|i| Value::Int64(i * 3)).collect();
        clicks[99] = Value::Int64(1_000_000);
        let mut columns = a.columns().to_vec();
        columns[1] = Column::from_values(DataType::Int64, &clicks).unwrap();
        refused(
            &Block::new(a.id(), a.schema().clone(), columns)
                .unwrap()
                .serialize(),
        );
        // Fewer columns, a truncated buffer, a longer one, nothing at all.
        refused(
            &Block::deserialize_columns(&a_bytes, &["url"])
                .unwrap()
                .serialize(),
        );
        refused(&a_bytes[..a_bytes.len() - 1]);
        refused(&[a_bytes.as_slice(), &[0]].concat());
        refused(&[]);
        // Same length, one metadata byte flipped: in the envelope, in the
        // footer, in the trailer.
        for at in [9, a_bytes.len() - 12, a_bytes.len() - 1] {
            let mut bent = a_bytes.clone();
            bent[at] ^= 0x40;
            refused(&bent);
        }
        // A flipped *chunk* byte is described (the footer is the same) and
        // is the chunk decoder's to reject or decode, never to panic on.
        let mut bent = a_bytes.clone();
        bent[meta.meta_bytes.min(a_bytes.len() / 2)] ^= 0x40;
        assert!(meta.describes(&bent));
        let _ = meta.decode_all(&bent);
    }

    #[test]
    fn stats_reflect_column_contents() {
        let b = sample_block();
        let (bytes, summaries) = b.serialize_summarized();
        assert_eq!(bytes, b.serialize());
        let zones = Block::read_meta(&bytes).unwrap().zones;
        assert!(summaries.iter().map(|s| &s.zone).eq(&zones));
        let clicks = &summaries[1];
        assert_eq!(clicks.zone.null_count, 10);
        assert_eq!(clicks.zone.min, Some(Value::Int64(3)));
        assert_eq!(clicks.zone.max, Some(Value::Int64(297)));
        assert_eq!(clicks.distinct, None);
        let mut urls = summaries[0].distinct.clone().unwrap();
        urls.sort_unstable();
        let pages: Vec<String> = (0..7)
            .map(|i| format!("https://example.com/page/{i}"))
            .collect();
        assert_eq!(urls, pages);
    }

    /// A NULL row's placeholder string is neither a bound nor a distinct
    /// value unless a valid row holds it too.
    #[test]
    fn utf8_summary_counts_only_strings_valid_rows_hold() {
        let mut validity = Validity::with_capacity(5);
        [false, true, false, true, true]
            .into_iter()
            .for_each(|v| validity.push(v));
        let strings = Utf8Vec::from_strs(["a", "m", "zz", "m", "a"]).unwrap();
        let column = Column::new(ColumnData::Utf8(strings), validity);
        let schema = Schema::new(vec![Field::new("s", DataType::Utf8, true)]);
        let b = Block::new(BlockId(3), schema, vec![column]).unwrap();
        let (_, summaries) = b.serialize_summarized();
        let s = &summaries[0];
        // "zz" is held by a NULL row only; "a" by a NULL and a valid row.
        assert_eq!(s.distinct, Some(vec!["a", "m"]));
        assert_eq!(s.zone.min, Some(Value::Utf8("a".into())));
        assert_eq!(s.zone.max, Some(Value::Utf8("m".into())));
        assert_eq!(s.zone.null_count, 2);
        assert_eq!(
            (s.zone.min.clone(), s.zone.max.clone()),
            b.column(0).min_max().unzip()
        );
    }

    #[test]
    fn column_by_name() {
        let b = sample_block();
        assert!(b.column_by_name("ctr").is_some());
        assert!(b.column_by_name("missing").is_none());
    }
}

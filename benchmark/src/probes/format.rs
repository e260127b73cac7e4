//! `feisu-format`: footer read, column-chunk decode, block serialize.

use super::At;
use feisu_common::{BlockId, Result};
use feisu_format::{Block, BlockMeta, Column, Schema};

pub fn read_meta(at: At<'_>, bytes: &[u8]) -> Result<BlockMeta> {
    at.time(
        "format.read_meta",
        || Block::read_meta(bytes),
        |_| bytes.len() as u64,
    )
}

/// Decodes the named columns. Work = values decoded.
pub fn decode(at: At<'_>, bytes: &[u8], names: &[&str]) -> Result<Block> {
    at.time(
        "format.decode",
        || Block::deserialize_columns(bytes, names),
        |r| {
            r.as_ref()
                .map_or(0, |b| (b.rows() * b.schema().len()) as u64)
        },
    )
}

/// Builds and serializes one block. Work = values serialized.
pub fn serialize(at: At<'_>, schema: Schema, columns: Vec<Column>) -> Result<Vec<u8>> {
    let block = Block::new(BlockId(u64::MAX), schema, columns)?;
    let values = (block.rows() * block.schema().len()) as u64;
    Ok(at.time("format.serialize", || block.serialize(), |_| values))
}

//! A footer is never applied to bytes it was not parsed from.
//!
//! A leaf keeps parsed footers resident and may meet, after a rewrite,
//! bytes its footer was not parsed from. Decoding block B through block
//! A's footer must give `FeisuError::Corrupt` or exactly what decoding B
//! through its own footer gives — never a panic, never A's data, never
//! anything else.

use feisu_common::{BlockId, FeisuError};
use feisu_format::{Block, Column, DataType, Field, Schema, Value};
use proptest::prelude::*;

/// Shape and contents of a small block: `(type, nullable)` per column.
#[derive(Debug, Clone)]
struct Spec {
    rows: usize,
    columns: Vec<(u8, bool)>,
    seed: u64,
}

fn arb_spec() -> impl Strategy<Value = Spec> {
    let column = (0u8..4, any::<bool>());
    (0usize..48, proptest::collection::vec(column, 1..5), 0u64..6).prop_map(
        |(rows, columns, seed)| Spec {
            rows,
            columns,
            seed,
        },
    )
}

fn build(spec: &Spec) -> Block {
    // A few seeds over narrow value ranges, so two specs often agree on
    // lengths, bounds or whole columns: the near misses are the point.
    let mut state = spec.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut fields = Vec::new();
    let mut columns = Vec::new();
    for (i, &(kind, nullable)) in spec.columns.iter().enumerate() {
        let dt = [
            DataType::Int64,
            DataType::Float64,
            DataType::Utf8,
            DataType::Bool,
        ][kind as usize];
        let values: Vec<Value> = (0..spec.rows)
            .map(|_| {
                let r = next();
                match dt {
                    _ if nullable && r % 5 == 0 => Value::Null,
                    DataType::Int64 => Value::Int64((r % 9) as i64 - 4),
                    DataType::Float64 => Value::Float64((r % 7) as f64 / 2.0),
                    DataType::Utf8 => Value::Utf8(format!("s{}", r % 4)),
                    DataType::Bool => Value::Bool(r % 2 == 0),
                }
            })
            .collect();
        fields.push(Field::new(format!("c{i}"), dt, nullable));
        columns.push(Column::from_values(dt, &values).unwrap());
    }
    Block::new(BlockId(7), Schema::new(fields), columns).unwrap()
}

/// How the bytes a task reads differ from the bytes its footer came from.
#[derive(Debug, Clone)]
enum Other {
    /// Nothing changed.
    Same,
    /// Another block entirely: other rows, other schema.
    Block(Spec),
    /// The same shape rewritten with other values.
    Reseeded(u64),
    /// The same bytes, cut short.
    Truncated(usize),
    /// The same bytes with one byte flipped.
    Flipped(usize, u8),
}

fn arb_other() -> impl Strategy<Value = Other> {
    prop_oneof![
        Just(Other::Same),
        arb_spec().prop_map(Other::Block),
        (0u64..6).prop_map(Other::Reseeded),
        (1usize..64).prop_map(Other::Truncated),
        (0usize..4096, 1u8..=255).prop_map(|(at, bits)| Other::Flipped(at, bits)),
    ]
}

proptest! {
    #[test]
    fn a_foreign_footer_is_corrupt_or_right(a in arb_spec(), other in arb_other(), pick in 0u32..16) {
        let a_block = build(&a);
        let a_bytes = a_block.serialize();
        let footer = Block::read_meta(&a_bytes).unwrap();
        let b_bytes = match other {
            Other::Same => a_bytes.clone(),
            Other::Block(spec) => build(&spec).serialize(),
            Other::Reseeded(seed) => build(&Spec { seed, ..a.clone() }).serialize(),
            Other::Truncated(cut) => a_bytes[..a_bytes.len().saturating_sub(cut)].to_vec(),
            Other::Flipped(at, bits) => {
                let mut bent = a_bytes.clone();
                let at = at % bent.len();
                bent[at] ^= bits;
                bent
            }
        };
        // The columns a task would ask A's footer for: a subset of A's.
        let names: Vec<&str> = (a_block.schema().fields().iter().enumerate())
            .filter(|(i, _)| pick & (1 << i) != 0)
            .map(|(_, f)| f.name.as_str())
            .collect();

        let own_footer = (
            Block::deserialize_columns(&b_bytes, &names),
            Block::deserialize(&b_bytes),
        );
        let through_a = (
            footer.decode_columns(&b_bytes, &names),
            footer.decode_all(&b_bytes),
        );
        for (got, want) in [(through_a.0, own_footer.0), (through_a.1, own_footer.1)] {
            match got {
                Ok(block) => prop_assert_eq!(Some(&block), want.as_ref().ok()),
                Err(FeisuError::Corrupt(_)) => {}
                Err(other) => prop_assert!(false, "not Corrupt: {other:?}"),
            }
        }
        if b_bytes == a_bytes {
            prop_assert!(footer.describes(&b_bytes));
            prop_assert_eq!(footer.decode_all(&b_bytes).ok(), Some(a_block));
        }
    }
}

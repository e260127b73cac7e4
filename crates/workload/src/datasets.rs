//! Synthetic stand-ins for the paper's Table I datasets.
//!
//! | Table | Records | Size   | Fields | Contents                      |
//! |-------|---------|--------|--------|-------------------------------|
//! | T1    | 30 B    | 62 TB  | 200    | URL-click log + query attrs   |
//! | T2    | 130 B   | 200 TB | 200    | same schema as T1             |
//! | T3    | 10 B    | 7 TB   | 57     | webpage trace, subset of T1/2 |
//!
//! The generators reproduce the *shape*: shared T1/T2 schema, T3 schema
//! as a strict field subset, Zipfian URL/keyword popularity, clustered
//! day columns (so delta encoding and zone maps behave like production),
//! and hot predicate columns named `c0..` that the trace generator
//! targets. Row counts scale down via [`DatasetSpec::rows`].

use feisu_common::rng::DetRng;
use feisu_format::{Column, DataType, Field, Schema, Value};

/// Parameters for one synthetic table.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    pub name: String,
    /// Total rows to generate.
    pub rows: usize,
    /// Attribute count (paper: 200 for T1/T2, 57 for T3).
    pub fields: usize,
    /// Distinct URLs in the pool.
    pub url_pool: usize,
    pub seed: u64,
}

impl DatasetSpec {
    /// T1 scaled to `rows` rows.
    pub fn t1(rows: usize) -> DatasetSpec {
        DatasetSpec {
            name: "t1".into(),
            rows,
            fields: 200,
            url_pool: 5000,
            seed: 0x71,
        }
    }

    /// T2 scaled to `rows` rows (same schema as T1).
    pub fn t2(rows: usize) -> DatasetSpec {
        DatasetSpec {
            name: "t2".into(),
            rows,
            fields: 200,
            url_pool: 5000,
            seed: 0x72,
        }
    }

    /// T3 scaled to `rows` rows (57 fields, subset of T1's).
    pub fn t3(rows: usize) -> DatasetSpec {
        DatasetSpec {
            name: "t3".into(),
            rows,
            fields: 57,
            url_pool: 2000,
            seed: 0x73,
        }
    }

    /// A small variant for unit tests and examples.
    pub fn tiny(name: &str, rows: usize, fields: usize) -> DatasetSpec {
        DatasetSpec {
            name: name.into(),
            rows,
            fields: fields.max(6),
            url_pool: 50,
            seed: 0x7F,
        }
    }

    /// The schema: fixed leading business attributes followed by numbered
    /// filler attributes cycling through the supported types. Because the
    /// leading fields and the numbering are shared, any T3 schema is a
    /// strict subset (prefix) of the T1/T2 schema, as in the paper.
    pub fn schema(&self) -> Schema {
        let mut fields = vec![
            Field::new("url", DataType::Utf8, false),
            Field::new("query", DataType::Utf8, false),
            Field::new("clicks", DataType::Int64, true),
            Field::new("dwell_ms", DataType::Int64, false),
            Field::new("day", DataType::Int64, false),
            Field::new("score", DataType::Float64, false),
        ];
        let mut i = 0usize;
        while fields.len() < self.fields {
            let dt = match i % 3 {
                0 => DataType::Int64,
                1 => DataType::Float64,
                _ => DataType::Utf8,
            };
            fields.push(Field::new(format!("c{i}"), dt, i % 5 == 4));
            i += 1;
        }
        Schema::new(fields)
    }
}

/// Query keywords drawn from a Zipfian pool (search terms are heavily
/// skewed in production).
const KEYWORDS: &[&str] = &[
    "weather",
    "map",
    "music",
    "video",
    "news",
    "stock",
    "translate",
    "travel",
    "game",
    "recipe",
    "movie",
    "baike",
    "tieba",
    "image",
    "shopping",
];

/// Generates rows `[start, start+len)` of the table as columns. Chunked
/// so callers can stream multi-million-row tables into block-sized
/// ingests without materializing everything.
pub fn generate_chunk(spec: &DatasetSpec, start: usize, len: usize) -> Vec<Column> {
    let schema = spec.schema();
    let len = len.min(spec.rows.saturating_sub(start));
    // Per-chunk deterministic stream: same (spec, start) ⇒ same data.
    let mut rng = DetRng::new(spec.seed ^ (start as u64).wrapping_mul(0x9E3779B97F4A7C15));
    let mut urls = Vec::with_capacity(len);
    let mut queries = Vec::with_capacity(len);
    let mut clicks = Vec::with_capacity(len);
    let mut dwell = Vec::with_capacity(len);
    let mut day = Vec::with_capacity(len);
    let mut score = Vec::with_capacity(len);
    for r in 0..len {
        let url_rank = rng.zipf(spec.url_pool, 0.9);
        urls.push(format!(
            "https://site{url_rank}.example/page{}",
            rng.next_below(100)
        ));
        let kw = KEYWORDS[rng.zipf(KEYWORDS.len(), 0.8)];
        queries.push(kw.to_string());
        clicks.push(if rng.chance(0.02) {
            Value::Null
        } else {
            Value::Int64(rng.zipf(1000, 1.2) as i64)
        });
        dwell.push(rng.range_i64(10, 120_000));
        // Days are clustered: rows arrive roughly in time order.
        day.push(20160101 + ((start + r) / 5000) as i64 % 60);
        score.push(rng.next_f64());
    }
    let mut columns = vec![
        Column::from_utf8(urls),
        Column::from_utf8(queries),
        Column::from_values(DataType::Int64, &clicks).expect("typed clicks"),
        Column::from_i64(dwell),
        Column::from_i64(day),
        Column::from_f64(score),
    ];
    for fi in 6..schema.len() {
        let f = schema.field(fi);
        let c = match f.data_type {
            DataType::Int64 => {
                let mut v = Vec::with_capacity(len);
                for _ in 0..len {
                    // Filler ints bounded so predicates like `cN > k`
                    // have controllable selectivity.
                    v.push(Value::Int64(rng.range_i64(0, 99)));
                }
                if f.nullable {
                    for slot in v.iter_mut() {
                        if rng.chance(0.01) {
                            *slot = Value::Null;
                        }
                    }
                }
                Column::from_values(DataType::Int64, &v).expect("typed filler int")
            }
            DataType::Float64 => {
                Column::from_f64((0..len).map(|_| rng.next_f64() * 100.0).collect())
            }
            DataType::Utf8 => Column::from_utf8(
                (0..len)
                    .map(|_| format!("tag{}", rng.zipf(64, 0.9)))
                    .collect(),
            ),
            DataType::Bool => Column::from_bool((0..len).map(|_| rng.chance(0.5)).collect()),
        };
        columns.push(c);
    }
    columns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shapes() {
        assert_eq!(DatasetSpec::t1(100).schema().len(), 200);
        assert_eq!(DatasetSpec::t2(100).schema().len(), 200);
        assert_eq!(DatasetSpec::t3(100).schema().len(), 57);
    }

    #[test]
    fn t3_schema_is_subset_of_t1() {
        let t1 = DatasetSpec::t1(1).schema();
        let t3 = DatasetSpec::t3(1).schema();
        for f in t3.fields() {
            let f1 = t1.field_by_name(&f.name).expect("field present in t1");
            assert_eq!(f1.data_type, f.data_type, "{}", f.name);
        }
    }

    #[test]
    fn chunks_are_deterministic_and_sized() {
        let spec = DatasetSpec::tiny("t", 100, 10);
        let a = generate_chunk(&spec, 0, 40);
        let b = generate_chunk(&spec, 0, 40);
        assert_eq!(a, b);
        assert_eq!(a[0].len(), 40);
        // Tail chunk clamps to remaining rows.
        let tail = generate_chunk(&spec, 80, 40);
        assert_eq!(tail[0].len(), 20);
    }

    #[test]
    fn columns_match_schema_types() {
        let spec = DatasetSpec::tiny("t", 50, 12);
        let schema = spec.schema();
        let cols = generate_chunk(&spec, 0, 50);
        assert_eq!(cols.len(), schema.len());
        for (c, f) in cols.iter().zip(schema.fields()) {
            assert_eq!(c.data_type(), f.data_type, "{}", f.name);
        }
    }

    #[test]
    fn url_popularity_is_skewed() {
        let spec = DatasetSpec::tiny("t", 2000, 6);
        let cols = generate_chunk(&spec, 0, 2000);
        let urls = cols[0].utf8().expect("url is a Utf8 column");
        let hot = urls.iter().filter(|u| u.contains("site0.")).count();
        assert!(
            hot > 2000 / 50,
            "rank-0 site should be far above uniform: {hot}"
        );
    }

    #[test]
    fn day_column_is_clustered() {
        let spec = DatasetSpec::t1(20_000);
        let cols = generate_chunk(&spec, 0, 10_000);
        let days = cols[4].i64_slice();
        let distinct: std::collections::HashSet<_> = days.iter().collect();
        assert!(distinct.len() <= 3, "first chunk spans few days");
    }
}

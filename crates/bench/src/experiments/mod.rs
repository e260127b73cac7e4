//! The paper's evaluation: one function per table or figure, each
//! returning the [`Table`] EXPERIMENTS.md holds for it.
//!
//! Every number is simulated time or a count, so a table is the same
//! bytes on every run and every machine; wall time is `benchmark/`'s
//! job. Each function also asserts the paper shape its figure stands for
//! (DESIGN.md §4) and returns `Err` when the series no longer has it, so
//! regenerating a table proves the shape survived whatever moved the
//! numbers.

use crate::report::Table;
use feisu_common::{FeisuError, Result, SimDuration};
use feisu_workload::trace::{generate_trace, TraceQuery, TraceSpec};

mod ablation_backup_tasks;
mod ablation_index_compression;
mod ablation_task_reuse;
mod ablation_ttl;
mod data_cache;
mod fig04;
mod fig05;
mod fig08;
mod fig09a;
mod fig09b;
mod fig10;
mod fig11;
mod fig12;
mod production_mix;
mod table1;

/// A named experiment; the name is also its marker in EXPERIMENTS.md.
pub type Experiment = (&'static str, fn() -> Result<Table>);

/// Every experiment, in EXPERIMENTS.md order.
pub const ALL: &[Experiment] = &[
    ("fig04", fig04::run),
    ("fig05", fig05::run),
    ("fig08", fig08::run),
    ("table1", table1::run),
    ("fig09a", fig09a::run),
    ("fig09b", fig09b::run),
    ("fig10", fig10::run),
    ("fig11", fig11::run),
    ("fig12", fig12::run),
    ("data_cache", data_cache::run),
    ("production_mix", production_mix::run),
    ("ablation_task_reuse", ablation_task_reuse::run),
    (
        "ablation_index_compression",
        ablation_index_compression::run,
    ),
    ("ablation_ttl", ablation_ttl::run),
    ("ablation_backup_tasks", ablation_backup_tasks::run),
];

/// `Err` naming the paper shape a regenerated series no longer has.
fn shape(holds: bool, what: &str) -> Result<()> {
    if holds {
        Ok(())
    } else {
        Err(FeisuError::Internal(format!("paper shape lost: {what}")))
    }
}

fn rising(series: &[f64]) -> bool {
    series.windows(2).all(|w| w[0] < w[1])
}

/// How far the largest value lies above the smallest, as a fraction of it.
fn spread(series: &[f64]) -> f64 {
    let max = series.iter().copied().fold(f64::MIN, f64::max);
    let min = series.iter().copied().fold(f64::MAX, f64::min);
    max / min - 1.0
}

/// Largest over smallest value stays within `1 + tolerance`.
fn flat(series: &[f64], tolerance: f64) -> bool {
    spread(series) <= tolerance
}

/// Nearest-rank percentile of an ascending series.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * p) as usize]
}

/// The time spans of Figs. 4 and 5.
const SPANS: [(&str, SimDuration); 5] = [
    ("0.5h", SimDuration::minutes(30)),
    ("1h", SimDuration::hours(1)),
    ("2h", SimDuration::hours(2)),
    ("4h", SimDuration::hours(4)),
    ("8h", SimDuration::hours(8)),
];

/// A synthetic query log matched to §IV-A's similarity and locality.
fn analysis_trace(queries: usize, days: u64) -> Vec<TraceQuery> {
    generate_trace(&TraceSpec {
        queries,
        span: SimDuration::hours(24 * days),
        similarity: 0.6,
        locality_theta: 0.9,
        ..TraceSpec::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_experiment_renders_the_same_bytes_twice() {
        let (name, fig04) = ALL[0];
        assert_eq!(name, "fig04");
        let first = fig04().unwrap().markdown();
        assert_eq!(first, fig04().unwrap().markdown());
        assert!(first.contains("| 8h | "), "{first}");
    }

    #[test]
    fn fig09a_rejects_a_smartindex_that_never_warms() {
        let baseline = [23.9, 24.4, 23.1, 23.9];
        fig09a::check_shape(&baseline, &[14.1, 11.1, 8.8, 7.3]).unwrap();
        // Flat at the baseline, and flat at a constant 2x: no warm-up to 3x.
        for flat_series in [baseline, [12.0; 4]] {
            let lost = fig09a::check_shape(&baseline, &flat_series).unwrap_err();
            assert!(lost.to_string().contains("3x faster at the tail"), "{lost}");
        }
        // A baseline that drifts is not the paper's figure either.
        let lost = fig09a::check_shape(&[24.0, 25.5, 27.0, 30.0], &[7.0; 4]).unwrap_err();
        assert!(lost.to_string().contains("baseline flat"), "{lost}");
        assert!(fig09a::check_shape(&[], &[]).is_err());
    }
}

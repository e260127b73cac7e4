//! One file per layer (crate): every call the traced pass makes into a
//! layer beyond the client surface lives in that layer's file, wrapped in
//! a wall-clock span. A later API change breaks one file, not the
//! benchmark.

pub mod cluster;
pub mod core;
pub mod exec;
pub mod format;
pub mod index;
pub mod obs;
pub mod sql;
pub mod storage;

use crate::spans::{Recorder, SpanId};

/// Where a probe's span hangs: the recorder, the causing span and the
/// statement.
#[derive(Clone, Copy)]
pub struct At<'a> {
    pub rec: &'a Recorder,
    pub parent: Option<SpanId>,
    pub stmt: usize,
}

impl<'a> At<'a> {
    pub fn under(self, parent: SpanId) -> At<'a> {
        At {
            parent: Some(parent),
            ..self
        }
    }

    /// Times one call; `work` sizes its result for per-unit rates.
    pub fn time<T>(
        self,
        name: &'static str,
        call: impl FnOnce() -> T,
        work: impl FnOnce(&T) -> u64,
    ) -> T {
        self.rec.time(name, self.parent, self.stmt, call, work)
    }
}

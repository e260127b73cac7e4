//! Strongly-typed identifiers.
//!
//! Feisu passes many small integer identifiers between subsystems (nodes,
//! jobs, tasks, storage domains, data blocks). Newtypes prevent the classic
//! bug of handing a task id to an API expecting a node id, at zero runtime
//! cost.

use std::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
        )]
        pub struct $name(pub u64);

        impl $name {
            /// Raw integer value.
            #[inline]
            pub fn raw(self) -> u64 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u64> for $name {
            fn from(v: u64) -> Self {
                $name(v)
            }
        }
    };
}

define_id!(
    /// A physical (simulated) cluster node.
    NodeId,
    "node-"
);
define_id!(
    /// A user query accepted by the client layer.
    QueryId,
    "query-"
);
define_id!(
    /// One task of a query, executed on a leaf or stem server.
    TaskId,
    "task-"
);
define_id!(
    /// A storage domain (one independent storage system).
    DomainId,
    "domain-"
);
define_id!(
    /// A data block within a table partition.
    BlockId,
    "block-"
);
define_id!(
    /// An authenticated Feisu user.
    UserId,
    "user-"
);

/// Monotonic id generator; each subsystem owns one per id space.
#[derive(Debug, Default)]
pub struct IdGen {
    next: std::sync::atomic::AtomicU64,
}

impl IdGen {
    /// Creates a generator starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the next id in the sequence.
    pub fn next_u64(&self) -> u64 {
        self.next.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_uses_prefix() {
        assert_eq!(NodeId(7).to_string(), "node-7");
        assert_eq!(TaskId(0).to_string(), "task-0");
        assert_eq!(DomainId(3).to_string(), "domain-3");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(BlockId(1));
        s.insert(BlockId(2));
        s.insert(BlockId(1));
        assert_eq!(s.len(), 2);
        assert!(BlockId(1) < BlockId(2));
    }

    #[test]
    fn idgen_is_monotonic() {
        let g = IdGen::new();
        let a = g.next_u64();
        let b = g.next_u64();
        let c = g.next_u64();
        assert_eq!((a, b, c), (0, 1, 2));
    }
}

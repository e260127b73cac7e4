//! The entry guard (paper §III-C).
//!
//! "It is the entry point of whole system, executing the security
//! checking of access flows and dispatching the incoming traffics. It is
//! also responsible for capability protection to avoid malicious
//! attacks." Concretely: per-user admission (daily query quota,
//! concurrent-job cap) and capability limits on the query itself
//! (statement length, table fan-out) so one user cannot monopolize the
//! master.
//!
//! Admission is RAII: [`EntryGuard::admit`] returns an
//! [`AdmissionPermit`] whose `Drop` releases the running-job slot, so a
//! query that errors (or panics) mid-flight can never leak concurrency
//! capacity. The guard exports `feisu.guard.admitted`,
//! `feisu.guard.rejected` and `feisu.guard.inflight` to the registry it
//! is built with.

use feisu_common::hash::FxHashMap;
use feisu_common::{FeisuError, Result, SimDuration, SimInstant, UserId};
use feisu_obs::{Counter, Gauge, MetricsRegistry};
use parking_lot::Mutex;
use std::sync::Arc;

/// Tunable capability limits.
#[derive(Debug, Clone)]
pub struct GuardLimits {
    /// Maximum SQL statement length in bytes.
    pub max_query_len: usize,
    /// Maximum tables one query may touch.
    pub max_tables: usize,
    /// Queries admitted per user per rolling day.
    pub daily_quota: u32,
    /// Concurrently running jobs per user.
    pub max_concurrent: u32,
}

impl Default for GuardLimits {
    fn default() -> Self {
        GuardLimits {
            max_query_len: 64 * 1024,
            max_tables: 8,
            daily_quota: 10_000,
            max_concurrent: 16,
        }
    }
}

#[derive(Debug, Default)]
struct UserWindow {
    /// Admission timestamps within the rolling day.
    admissions: Vec<SimInstant>,
    running: u32,
}

/// Admission control at the system entry point.
pub struct EntryGuard {
    limits: GuardLimits,
    users: Mutex<FxHashMap<UserId, UserWindow>>,
    admitted: Arc<Counter>,
    rejected: Arc<Counter>,
    inflight: Arc<Gauge>,
}

/// A reserved running-job slot. Dropping the permit releases the slot —
/// the release is tied to the permit's lifetime, not to any happy-path
/// call, so mid-flight errors cannot leak concurrency capacity.
#[must_use = "dropping the permit releases the concurrency slot"]
pub struct AdmissionPermit<'a> {
    guard: &'a EntryGuard,
    user: UserId,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        self.guard.release(self.user);
    }
}

impl EntryGuard {
    /// A guard publishing `feisu.guard.*` to `registry`.
    pub fn new(limits: GuardLimits, registry: &MetricsRegistry) -> Self {
        EntryGuard {
            limits,
            users: Mutex::new(FxHashMap::default()),
            admitted: registry.counter("feisu.guard.admitted"),
            rejected: registry.counter("feisu.guard.rejected"),
            inflight: registry.gauge("feisu.guard.inflight"),
        }
    }

    /// Checks all capability limits and reserves a running-job slot,
    /// returned as an RAII [`AdmissionPermit`]. A rejection bumps
    /// `feisu.guard.rejected` and leaves no state behind.
    pub fn admit(
        &self,
        user: UserId,
        sql: &str,
        table_count: usize,
        now: SimInstant,
    ) -> Result<AdmissionPermit<'_>> {
        match self.try_reserve(user, sql, table_count, now) {
            Ok(()) => {
                self.admitted.inc();
                self.inflight.add(1);
                Ok(AdmissionPermit { guard: self, user })
            }
            Err(e) => {
                self.rejected.inc();
                Err(e)
            }
        }
    }

    fn try_reserve(
        &self,
        user: UserId,
        sql: &str,
        table_count: usize,
        now: SimInstant,
    ) -> Result<()> {
        if sql.len() > self.limits.max_query_len {
            return Err(FeisuError::PermissionDenied(format!(
                "query of {} bytes exceeds the {}-byte capability limit",
                sql.len(),
                self.limits.max_query_len
            )));
        }
        if table_count > self.limits.max_tables {
            return Err(FeisuError::PermissionDenied(format!(
                "query touches {table_count} tables, capability limit is {}",
                self.limits.max_tables
            )));
        }
        let mut users = self.users.lock();
        let w = users.entry(user).or_default();
        let day = SimDuration::hours(24);
        // Compact the rolling window only when it could matter — keeps
        // admit O(1) amortized for users far below quota.
        if w.admissions.len() as u32 >= self.limits.daily_quota
            || w.admissions.len() > 2 * self.limits.daily_quota.min(100_000) as usize
        {
            w.admissions.retain(|t| now.since(*t) <= day);
        }
        if w.admissions.len() as u32 >= self.limits.daily_quota {
            return Err(FeisuError::PermissionDenied(format!(
                "{user} exhausted the daily quota of {}",
                self.limits.daily_quota
            )));
        }
        if w.running >= self.limits.max_concurrent {
            return Err(FeisuError::PermissionDenied(format!(
                "{user} already has {} running jobs (limit {})",
                w.running, self.limits.max_concurrent
            )));
        }
        w.admissions.push(now);
        w.running += 1;
        Ok(())
    }

    /// Releases the running-job slot (called by the permit's `Drop`).
    fn release(&self, user: UserId) {
        if let Some(w) = self.users.lock().get_mut(&user) {
            w.running = w.running.saturating_sub(1);
        }
        self.inflight.sub(1);
    }

    /// Jobs currently holding a permit, across all users.
    pub fn inflight(&self) -> u32 {
        self.users.lock().values().map(|w| w.running).sum()
    }

    /// Queries admitted for a user in the current rolling day.
    pub fn admitted_today(&self, user: UserId, now: SimInstant) -> u32 {
        let mut users = self.users.lock();
        match users.get_mut(&user) {
            None => 0,
            Some(w) => {
                let day = SimDuration::hours(24);
                w.admissions.retain(|t| now.since(*t) <= day);
                w.admissions.len() as u32
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn guard_in(quota: u32, concurrent: u32, registry: &MetricsRegistry) -> EntryGuard {
        let limits = GuardLimits {
            daily_quota: quota,
            max_concurrent: concurrent,
            ..GuardLimits::default()
        };
        EntryGuard::new(limits, registry)
    }

    fn guard(quota: u32, concurrent: u32) -> EntryGuard {
        guard_in(quota, concurrent, &MetricsRegistry::new())
    }

    #[test]
    fn oversized_query_rejected() {
        let limits = GuardLimits {
            max_query_len: 10,
            ..GuardLimits::default()
        };
        let g = EntryGuard::new(limits, &MetricsRegistry::new());
        assert!(g
            .admit(
                UserId(1),
                "SELECT * FROM a_very_long_table",
                1,
                SimInstant(0)
            )
            .is_err());
    }

    #[test]
    fn table_fanout_capped() {
        let g = guard(10, 10);
        assert!(g.admit(UserId(1), "q", 9, SimInstant(0)).is_err());
        assert!(g.admit(UserId(1), "q", 8, SimInstant(0)).is_ok());
    }

    #[test]
    fn daily_quota_rolls_over() {
        let g = guard(2, 10);
        let t0 = SimInstant(0);
        assert!(g.admit(UserId(1), "q", 1, t0).is_ok());
        assert!(g.admit(UserId(1), "q", 1, t0).is_ok());
        assert!(g.admit(UserId(1), "q", 1, t0).is_err());
        assert_eq!(g.admitted_today(UserId(1), t0), 2);
        // 25 hours later the window has rolled.
        let t1 = t0 + SimDuration::hours(25);
        assert!(g.admit(UserId(1), "q", 1, t1).is_ok());
    }

    #[test]
    fn concurrency_slot_released_by_permit_drop() {
        let g = guard(100, 1);
        let permit = g.admit(UserId(1), "q", 1, SimInstant(0)).unwrap();
        assert!(g.admit(UserId(1), "q", 1, SimInstant(0)).is_err());
        assert_eq!(g.inflight(), 1);
        drop(permit);
        assert_eq!(g.inflight(), 0);
        assert!(g.admit(UserId(1), "q", 1, SimInstant(0)).is_ok());
    }

    #[test]
    fn slot_released_even_when_query_panics() {
        let g = guard(100, 1);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _permit = g.admit(UserId(1), "q", 1, SimInstant(0)).unwrap();
            panic!("mid-flight failure");
        }));
        assert!(caught.is_err());
        // The unwound permit released its slot.
        assert!(g.admit(UserId(1), "q", 1, SimInstant(0)).is_ok());
    }

    #[test]
    fn quotas_are_per_user() {
        let g = guard(1, 10);
        assert!(g.admit(UserId(1), "q", 1, SimInstant(0)).is_ok());
        assert!(g.admit(UserId(2), "q", 1, SimInstant(0)).is_ok());
        assert!(g.admit(UserId(1), "q", 1, SimInstant(0)).is_err());
    }

    #[test]
    fn metrics_track_admissions_and_inflight() {
        let registry = MetricsRegistry::new();
        let g = guard_in(100, 1, &registry);
        let p = g.admit(UserId(1), "q", 1, SimInstant(0)).unwrap();
        assert!(g.admit(UserId(1), "q", 1, SimInstant(0)).is_err());
        assert_eq!(registry.counter("feisu.guard.admitted").get(), 1);
        assert_eq!(registry.counter("feisu.guard.rejected").get(), 1);
        assert_eq!(registry.gauge("feisu.guard.inflight").get(), 1);
        drop(p);
        assert_eq!(registry.gauge("feisu.guard.inflight").get(), 0);
    }
}

//! Per-node resource consumption agreements.
//!
//! "To guarantee that Feisu doesn't affect the service quality of the
//! business application on top of each storage system, we define a
//! resource consumption agreement between Feisu and each storage system"
//! (§V-A). A node advertises its total slots (cores); the business side
//! claims a fluctuating share; Feisu may only use up to
//! `agreement_share × total` of what remains, and must release slots when
//! the business load spikes (container preemption, §V-B).

use feisu_common::{FeisuError, Result};

/// Tracks slot usage on one node under a resource agreement.
#[derive(Debug, Clone)]
pub struct ResourceAgreement {
    total_slots: u32,
    agreement_share: f64,
    business_slots: u32,
    feisu_slots: u32,
}

impl ResourceAgreement {
    pub fn new(total_slots: u32, agreement_share: f64) -> Self {
        assert!((0.0..=1.0).contains(&agreement_share));
        ResourceAgreement {
            total_slots,
            agreement_share,
            business_slots: 0,
            feisu_slots: 0,
        }
    }

    /// Slots Feisu is currently permitted to hold (floor of share × free).
    pub fn feisu_limit(&self) -> u32 {
        let free = self.total_slots.saturating_sub(self.business_slots);
        (free as f64 * self.agreement_share).floor() as u32
    }

    /// Whether Feisu currently holds more than the agreement allows (can
    /// happen transiently after a business-load spike); the excess must be
    /// preempted.
    pub fn over_budget(&self) -> u32 {
        self.feisu_slots.saturating_sub(self.feisu_limit())
    }

    /// Tries to take one Feisu task slot.
    pub fn acquire(&mut self) -> Result<()> {
        if self.feisu_slots < self.feisu_limit() {
            self.feisu_slots += 1;
            Ok(())
        } else {
            Err(FeisuError::Scheduling(format!(
                "resource agreement exhausted: {}/{} feisu slots in use",
                self.feisu_slots,
                self.feisu_limit()
            )))
        }
    }

    /// Releases one Feisu task slot.
    pub fn release(&mut self) {
        self.feisu_slots = self.feisu_slots.saturating_sub(1);
    }

    /// Business-critical applications update their own usage; business
    /// demand is always granted (it has absolute priority) and shrinks the
    /// Feisu limit. Returns how many Feisu tasks must now be preempted.
    pub fn set_business_load(&mut self, slots: u32) -> u32 {
        self.business_slots = slots.min(self.total_slots);
        self.over_budget()
    }

    /// Forced preemption acknowledgment: the caller killed `n` tasks.
    pub fn preempted(&mut self, n: u32) {
        self.feisu_slots = self.feisu_slots.saturating_sub(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limit_scales_with_free_capacity() {
        let mut a = ResourceAgreement::new(8, 0.25);
        assert_eq!(a.feisu_limit(), 2);
        a.set_business_load(4);
        assert_eq!(a.feisu_limit(), 1);
        a.set_business_load(8);
        assert_eq!(a.feisu_limit(), 0);
    }

    #[test]
    fn acquire_respects_limit() {
        let mut a = ResourceAgreement::new(8, 0.5);
        assert!(a.acquire().is_ok());
        assert!(a.acquire().is_ok());
        assert!(a.acquire().is_ok());
        assert!(a.acquire().is_ok());
        assert!(a.acquire().is_err());
        a.release();
        assert!(a.acquire().is_ok());
    }

    #[test]
    fn business_spike_triggers_preemption() {
        let mut a = ResourceAgreement::new(8, 0.5);
        for _ in 0..4 {
            a.acquire().unwrap();
        }
        let must_kill = a.set_business_load(6);
        // free = 2, limit = 1, holding 4 → kill 3.
        assert_eq!(must_kill, 3);
        a.preempted(3);
        assert_eq!(a.over_budget(), 0);
        // One slot still held: the limit of 1 is full.
        assert!(a.acquire().is_err());
    }

    #[test]
    fn business_load_clamped_to_total() {
        let mut a = ResourceAgreement::new(4, 1.0);
        a.set_business_load(100);
        assert_eq!(a.feisu_limit(), 0);
    }
}

//! The engine's subscription → plan index.
//!
//! Subscription ids are allocated densely and never reused, so the index
//! is an array of 4-byte plan ids addressed by subscription id, cut
//! into pages of [`PAGE`] consecutive ids. A page is freed once every
//! id on it has been allocated and retired, and freed pages at the front
//! of the directory are dropped: under churn the index follows the ids
//! still live (at page granularity), not every id ever allocated.

use crate::plan::PlanId;
use crate::subscription::SubscriptionId;
use std::collections::VecDeque;

/// Subscription ids per page.
const PAGE: usize = 256;

/// The entry of a retired subscription (or of an id not yet allocated).
const RETIRED: u32 = u32::MAX;

/// The plans of [`PAGE`] consecutive subscription ids.
struct Page {
    plans: [u32; PAGE],
    /// Entries allocated and not yet retired.
    live: u32,
}

/// Subscription → the plan it rides (see the module docs).
#[derive(Default)]
pub(crate) struct SubIndex {
    /// The page number of `pages[0]`.
    base: u64,
    /// The pages from `base` on; `None` once freed. The page the next
    /// id lands on is never freed before that id is allocated.
    pages: VecDeque<Option<Box<Page>>>,
    /// Ids allocated so far: the next id is this.
    allocated: u64,
}

/// `(page number, entry within the page)` of a raw subscription id.
fn split(raw: u64) -> (u64, usize) {
    (raw / PAGE as u64, (raw % PAGE as u64) as usize)
}

impl SubIndex {
    /// Records the next subscription id, `id`, as riding `plan`.
    pub(crate) fn insert(&mut self, id: SubscriptionId, plan: PlanId) {
        assert_eq!(
            id.raw(),
            self.allocated,
            "subscription ids are allocated densely"
        );
        let plan = u32::try_from(plan.raw())
            .ok()
            .filter(|&p| p != RETIRED)
            .expect("fewer than 2^32 - 1 plans");
        let (page, entry) = split(id.raw());
        if entry == 0 {
            debug_assert_eq!(page, self.base + self.pages.len() as u64);
            self.pages.push_back(Some(Box::new(Page {
                plans: [RETIRED; PAGE],
                live: 0,
            })));
        }
        let page = self
            .pages
            .back_mut()
            .and_then(Option::as_mut)
            .expect("the page of the next id is resident");
        page.plans[entry] = plan;
        page.live += 1;
        self.allocated += 1;
    }

    /// The directory position of `id`'s page, if still listed.
    fn position(&self, raw: u64) -> Option<(usize, usize)> {
        let (page, entry) = split(raw);
        let pos = usize::try_from(page.checked_sub(self.base)?).ok()?;
        (pos < self.pages.len()).then_some((pos, entry))
    }

    /// The plan `id` rides; `None` once retired or if never allocated.
    pub(crate) fn get(&self, id: SubscriptionId) -> Option<PlanId> {
        let (pos, entry) = self.position(id.raw())?;
        let plan = self.pages[pos].as_ref()?.plans[entry];
        (plan != RETIRED).then_some(PlanId(u64::from(plan)))
    }

    /// Retires `id`, returning the plan it rode; `None` if it was
    /// already retired or never allocated.
    pub(crate) fn retire(&mut self, id: SubscriptionId) -> Option<PlanId> {
        let (pos, entry) = self.position(id.raw())?;
        let page = self.pages[pos].as_mut()?;
        let plan = std::mem::replace(&mut page.plans[entry], RETIRED);
        if plan == RETIRED {
            return None;
        }
        page.live -= 1;
        let complete = (self.base + pos as u64 + 1) * PAGE as u64 <= self.allocated;
        if page.live == 0 && complete {
            self.pages[pos] = None;
            while matches!(self.pages.front(), Some(None)) {
                self.pages.pop_front();
                self.base += 1;
            }
        }
        Some(PlanId(u64::from(plan)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(raw: u64) -> SubscriptionId {
        SubscriptionId(raw)
    }

    #[test]
    fn lookups_follow_inserts_and_retirements() {
        let mut index = SubIndex::default();
        for raw in 0..(3 * PAGE as u64 + 7) {
            index.insert(id(raw), PlanId(raw % 5));
        }
        assert_eq!(index.get(id(3)), Some(PlanId(3)));
        assert_eq!(
            index.get(id(3 * PAGE as u64 + 7)),
            None,
            "not yet allocated"
        );
        assert_eq!(index.get(id(u64::MAX)), None);
        assert_eq!(index.retire(id(3)), Some(PlanId(3)));
        assert_eq!(index.retire(id(3)), None, "already retired");
        assert_eq!(index.get(id(3)), None);
        assert_eq!(index.retire(id(10 * PAGE as u64)), None, "never allocated");
        // Emptying the first page frees it; its ids stay unknown.
        for raw in 0..PAGE as u64 {
            index.retire(id(raw));
        }
        assert_eq!(index.base, 1);
        assert_eq!(index.get(id(0)), None);
        assert_eq!(index.retire(id(0)), None);
        assert_eq!(index.get(id(PAGE as u64)), Some(PlanId(PAGE as u64 % 5)));
        // The partly allocated last page survives losing every member.
        for raw in 3 * PAGE as u64..3 * PAGE as u64 + 7 {
            index.retire(id(raw));
        }
        index.insert(id(3 * PAGE as u64 + 7), PlanId(9));
        assert_eq!(index.get(id(3 * PAGE as u64 + 7)), Some(PlanId(9)));
    }

    #[test]
    #[should_panic(expected = "fewer than 2^32 - 1 plans")]
    fn the_retired_marker_is_never_a_plan() {
        SubIndex::default().insert(id(0), PlanId(u64::from(RETIRED)));
    }

    /// Long churn: a million ids allocated while a few thousand stay live,
    /// each retired at random. The pages held stay proportional to the
    /// live population, whatever the number of ids allocated.
    #[test]
    fn index_memory_follows_live_ids_under_churn() {
        const LIVE: usize = 4_000;
        let mut index = SubIndex::default();
        let mut live: Vec<u64> = Vec::new();
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut most_pages = 0;
        for raw in 0..1_000_000u64 {
            index.insert(id(raw), PlanId(raw % 144));
            live.push(raw);
            if live.len() > LIVE {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let gone = live.swap_remove((state % live.len() as u64) as usize);
                assert_eq!(index.retire(id(gone)), Some(PlanId(gone % 144)));
            }
            most_pages = most_pages.max(index.pages.len());
        }
        let resident = index.pages.iter().flatten().count();
        // A page frees once its last id retires, about LIVE × ln(PAGE)
        // ≈ 24k ids after it filled, and the directory reaches back to
        // the oldest live id, about LIVE × ln(ids allocated) ≈ 55k ids: a
        // few hundred pages, against 3,907 for a dense array of every
        // id allocated.
        assert!(most_pages < 600, "directory grew to {most_pages} pages");
        assert!(resident < 600, "{resident} resident pages");
        for &raw in &live {
            assert_eq!(index.get(id(raw)), Some(PlanId(raw % 144)));
        }
    }
}

//! Pluggable eviction policies.
//!
//! The arena presents the policy with a snapshot of the candidates in one
//! tier (hot entries when demoting, warm entries when evicting) and the
//! policy picks the victim. Policies are deliberately key-agnostic: they
//! see recency and scheduled next use — nothing else — so the same policy
//! drives any key type.

/// What the arena knows about one eviction candidate.
#[derive(Debug, Clone, Copy)]
pub struct Candidate {
    /// Logical clock of the entry's last touch (insert or load).
    pub last_touch: u64,
    /// Position of the entry's next scheduled access at or after the
    /// schedule cursor; `None` when the entry is unscheduled or its
    /// scheduled access already passed (both mean "no known future use").
    pub next_use: Option<usize>,
}

/// Chooses which candidate to move down the residency ladder.
pub trait EvictionPolicy: Send {
    /// Index of the victim within `candidates`; `None` only if the slice
    /// is empty.
    fn victim(&mut self, candidates: &[Candidate]) -> Option<usize>;
}

/// Least-recently-used: evict the entry untouched the longest.
#[derive(Debug, Default)]
pub struct Lru;

impl EvictionPolicy for Lru {
    fn victim(&mut self, candidates: &[Candidate]) -> Option<usize> {
        candidates
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| c.last_touch)
            .map(|(i, _)| i)
    }
}

/// Belady-style farthest-next-use over the *known* backward schedule:
/// evict the entry whose next access lies farthest in the future
/// (entries with no known future use count as infinitely far). During
/// training the backward order is known from the forward save order, so
/// this is the offline-optimal choice, not an oracle cheat. Ties (and
/// fully unscheduled candidate sets) fall back to LRU.
#[derive(Debug, Default)]
pub struct FarthestNextUse;

impl EvictionPolicy for FarthestNextUse {
    fn victim(&mut self, candidates: &[Candidate]) -> Option<usize> {
        candidates
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| {
                (
                    c.next_use.unwrap_or(usize::MAX),
                    std::cmp::Reverse(c.last_touch),
                )
            })
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(last_touch: u64, next_use: Option<usize>) -> Candidate {
        Candidate {
            last_touch,
            next_use,
        }
    }

    #[test]
    fn lru_picks_oldest() {
        let mut p = Lru;
        let c = [cand(5, None), cand(2, None), cand(9, None)];
        assert_eq!(p.victim(&c), Some(1));
        assert_eq!(p.victim(&[]), None);
    }

    #[test]
    fn farthest_next_use_prefers_latest_access() {
        let mut p = FarthestNextUse;
        // next use at positions 3, 10, 7 -> evict the one used at 10.
        let c = [cand(0, Some(3)), cand(1, Some(10)), cand(2, Some(7))];
        assert_eq!(p.victim(&c), Some(1));
        // unscheduled beats any scheduled candidate
        let c = [cand(0, Some(3)), cand(1, None)];
        assert_eq!(p.victim(&c), Some(1));
        // all unscheduled: LRU tie-break (oldest touch)
        let c = [cand(5, None), cand(2, None)];
        assert_eq!(p.victim(&c), Some(1));
    }
}

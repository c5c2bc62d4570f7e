//! Thread-striped statistics counters.
//!
//! A counter that every client thread bumps on every access is a cache
//! line that every client thread writes: each `fetch_add` pulls the line
//! into the writer's cache in exclusive state and invalidates it
//! everywhere else, and any read-mostly word that happens to share the
//! line (an epoch, a spine pointer) bounces along with it. The schedulers'
//! statistics are pure bookkeeping — no protocol decision ever reads them
//! — so they need no global order, only an exact total once the writers
//! are quiescent.
//!
//! [`StripedCounters`] keeps `N` counters in each of [`STRIPES`] stripes,
//! every stripe on cache lines of its own (`#[repr(align(128))]`: two
//! 64-byte lines, which also covers the adjacent-line prefetcher). A
//! thread picks its stripe once, round-robin, through a `const`
//! thread-local — the first use allocates and registers nothing — and
//! [`add`](StripedCounters::add) is a Relaxed RMW on that stripe only, so
//! threads on different stripes never write a common line. A read sums
//! the stripes: exact when the writers are quiescent (joined, or ordered
//! before the reader by any other synchronization), and monotone for a
//! single reader, because every stripe only ever grows and successive
//! loads of one atomic by one thread never go backwards.
//!
//! Every striped counter set in the workspace shares this one
//! thread→stripe assignment.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Stripes per counter set. Each set costs `STRIPES × 128` bytes for up
/// to 16 counters — about 2 KiB — so a scheduler can keep several.
pub const STRIPES: usize = 16;

/// Cache-line granule the stripes are aligned to (and the unit the layout
/// checks reason in).
pub const LINE: usize = 128;

/// One thread's share of a counter set, alone on its lines.
#[repr(align(128))]
#[derive(Debug)]
struct Stripe<const N: usize>([AtomicU64; N]);

/// `N` statistics counters striped over [`STRIPES`] cache-line-aligned
/// stripes. See the module docs.
#[derive(Debug)]
pub struct StripedCounters<const N: usize> {
    stripes: [Stripe<N>; STRIPES],
}

thread_local! {
    /// This thread's stripe, or `usize::MAX` before its first `add`.
    /// `const`-initialized with no destructor: reading it never
    /// allocates, locks or registers anything.
    static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Round-robin source for stripe assignment.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

/// The calling thread's stripe index, assigned on first use.
#[inline]
fn stripe_index() -> usize {
    STRIPE.with(|cell| {
        let s = cell.get();
        if s != usize::MAX {
            return s;
        }
        let s = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
        cell.set(s);
        s
    })
}

impl<const N: usize> Default for StripedCounters<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const N: usize> StripedCounters<N> {
    /// All counters at zero.
    pub fn new() -> Self {
        StripedCounters {
            stripes: std::array::from_fn(|_| Stripe(std::array::from_fn(|_| AtomicU64::new(0)))),
        }
    }

    /// Adds `n` to counter `i` on the calling thread's stripe.
    #[inline]
    pub fn add(&self, i: usize, n: u64) {
        self.stripes[stripe_index()].0[i].fetch_add(n, Ordering::Relaxed);
    }

    /// Counter `i`, summed over the stripes.
    pub fn get(&self, i: usize) -> u64 {
        self.stripes.iter().map(|s| s.0[i].load(Ordering::Relaxed)).sum()
    }

    /// Every counter, summed over the stripes.
    pub fn sum(&self) -> [u64; N] {
        std::array::from_fn(|i| self.get(i))
    }

    /// The byte address range of each stripe, for cache-line layout
    /// checks.
    pub fn stripe_spans(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        self.stripes.iter().map(span_of)
    }
}

/// The byte address range `value` occupies.
pub fn span_of<T>(value: &T) -> Range<usize> {
    let start = value as *const T as usize;
    start..start + std::mem::size_of::<T>()
}

/// The [`LINE`]-sized lines a byte range touches, as line numbers.
pub fn lines_of(span: &Range<usize>) -> Range<usize> {
    span.start / LINE..span.end.max(span.start + 1).div_ceil(LINE)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Adds per thread; kept small under Miri, which interprets every
    /// atomic.
    const ADDS: u64 = if cfg!(miri) { 1_000 } else { 100_000 };

    #[test]
    fn concurrent_adds_sum_exactly() {
        let c = StripedCounters::<3>::new();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let c = &c;
                scope.spawn(move || {
                    for _ in 0..ADDS {
                        c.add(0, 1);
                        c.add(2, t);
                    }
                });
            }
        });
        assert_eq!(c.sum(), [4 * ADDS, 0, (1 + 2 + 3) * ADDS]);
    }

    #[test]
    fn a_concurrent_reader_never_sees_the_sum_decrease() {
        let c = StripedCounters::<1>::new();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let c = &c;
                scope.spawn(move || {
                    for _ in 0..ADDS {
                        c.add(0, 1);
                    }
                });
            }
            let mut last = 0;
            loop {
                let now = c.get(0);
                assert!(now >= last, "sum went backwards: {last} -> {now}");
                last = now;
                if now == 3 * ADDS {
                    break;
                }
                std::hint::spin_loop();
            }
        });
    }

    #[test]
    fn stripes_own_their_lines() {
        let c = StripedCounters::<10>::new();
        let spans: Vec<_> = c.stripe_spans().collect();
        assert_eq!(spans.len(), STRIPES);
        for s in &spans {
            assert_eq!(s.start % LINE, 0, "stripe not line-aligned");
            assert_eq!(s.len() % LINE, 0, "stripe does not fill its lines");
        }
        for pair in spans.windows(2) {
            assert!(lines_of(&pair[0]).end <= lines_of(&pair[1]).start);
        }
        assert!(std::mem::size_of::<StripedCounters<16>>() <= STRIPES * LINE);
    }

    #[test]
    fn a_thread_keeps_its_stripe() {
        let c = StripedCounters::<1>::new();
        c.add(0, 5);
        c.add(0, 7);
        let touched = c.stripes.iter().filter(|s| s.0[0].load(Ordering::Relaxed) != 0).count();
        assert_eq!(touched, 1, "one thread's adds all land on one stripe");
        assert_eq!(c.get(0), 12);
    }
}

//! Deficit-style token buckets and bucket chains.

use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::clock::{Nanos, NANOS_PER_SEC};

/// A transmission rate.
///
/// The paper quotes rates in KBps (kilobytes per second); [`Rate::kbps`]
/// uses the same 1 KB = 1024 bytes convention as the engine's buffer
/// accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rate {
    bytes_per_sec: u64,
}

impl Rate {
    /// A rate in bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is zero; use an absent limiter (for
    /// example `Option<Rate>::None`) to express "unlimited" and a closed
    /// link to express "no traffic".
    pub fn bytes_per_sec(bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "rate must be positive");
        Self { bytes_per_sec }
    }

    /// A rate in kilobytes (1024 bytes) per second — the unit used
    /// throughout the paper's figures.
    pub fn kbps(kilobytes_per_sec: u64) -> Self {
        Self::bytes_per_sec(kilobytes_per_sec * 1024)
    }

    /// A rate in megabytes per second.
    pub fn mbps(megabytes_per_sec: u64) -> Self {
        Self::bytes_per_sec(megabytes_per_sec * 1024 * 1024)
    }

    /// The rate in bytes per second.
    pub fn as_bytes_per_sec(self) -> u64 {
        self.bytes_per_sec
    }

    /// The rate in (1024-byte) kilobytes per second.
    pub fn as_kbps(self) -> f64 {
        self.bytes_per_sec as f64 / 1024.0
    }

    /// Time to serialize `bytes` at this rate, in nanoseconds.
    pub fn transmission_delay(self, bytes: u64) -> Nanos {
        // ceil(bytes * 1e9 / rate) without overflow for realistic sizes.
        let num = u128::from(bytes) * u128::from(NANOS_PER_SEC);
        let den = u128::from(self.bytes_per_sec);
        u64::try_from(num.div_ceil(den)).unwrap_or(u64::MAX)
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} KBps", self.as_kbps())
    }
}

/// A token bucket that admits overdraft.
///
/// [`TokenBucket::reserve`] always succeeds and returns the delay (in
/// nanoseconds) the caller must wait before the reserved bytes may be
/// considered sent. Allowing the token balance to go negative makes
/// long-run throughput exact and lets several buckets compose in a
/// [`BucketChain`] without deadlock-prone multi-way try-acquire loops —
/// this mirrors the paper wrapping `send`/`recv` *"with multiple timers"*.
///
/// The default burst allowance is one second's worth of tokens, capped so
/// a quiet period cannot bank unbounded credit.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate: Rate,
    /// Token balance in bytes; negative means reservations outpaced the
    /// rate and later callers must wait.
    tokens: f64,
    burst_bytes: f64,
    last_refill: Nanos,
}

impl TokenBucket {
    /// Creates a bucket that starts full (one burst of credit).
    pub fn new(rate: Rate, now: Nanos) -> Self {
        let burst_bytes = rate.as_bytes_per_sec() as f64;
        Self {
            rate,
            tokens: burst_bytes,
            burst_bytes,
            last_refill: now,
        }
    }

    /// Creates a bucket with an explicit burst allowance in bytes.
    pub fn with_burst(rate: Rate, burst_bytes: u64, now: Nanos) -> Self {
        let burst = burst_bytes as f64;
        Self {
            rate,
            tokens: burst,
            burst_bytes: burst,
            last_refill: now,
        }
    }

    /// The configured rate.
    pub fn rate(&self) -> Rate {
        self.rate
    }

    /// Retunes the rate at runtime, preserving the current token balance.
    ///
    /// This is what the observer's `setBandwidth` command ultimately
    /// calls: *"artificially emulated bottlenecks may be produced or
    /// relieved on the fly"*.
    pub fn set_rate(&mut self, rate: Rate, now: Nanos) {
        self.refill(now);
        self.rate = rate;
        self.burst_bytes = rate.as_bytes_per_sec() as f64;
        self.tokens = self.tokens.min(self.burst_bytes);
    }

    fn refill(&mut self, now: Nanos) {
        if now <= self.last_refill {
            return;
        }
        let elapsed = (now - self.last_refill) as f64 / NANOS_PER_SEC as f64;
        self.tokens =
            (self.tokens + elapsed * self.rate.as_bytes_per_sec() as f64).min(self.burst_bytes);
        self.last_refill = now;
    }

    /// Reserves `bytes` of transmission credit, returning the delay in
    /// nanoseconds until the transmission conforms to the rate.
    ///
    /// A zero return means "send immediately". The engine's sender thread
    /// sleeps for the returned duration; the simulator schedules the
    /// delivery event that far in the future.
    pub fn reserve(&mut self, bytes: u64, now: Nanos) -> Nanos {
        self.refill(now);
        self.tokens -= bytes as f64;
        if self.tokens >= 0.0 {
            0
        } else {
            let deficit = -self.tokens;
            let secs = deficit / self.rate.as_bytes_per_sec() as f64;
            (secs * NANOS_PER_SEC as f64).ceil() as Nanos
        }
    }

    /// Whether `bytes` could be reserved right now without any delay.
    pub fn can_send(&mut self, bytes: u64, now: Nanos) -> bool {
        self.refill(now);
        self.tokens >= bytes as f64
    }
}

/// A token bucket shared between several [`BucketChain`]s (for example a
/// per-node cap applied to all of that node's links).
pub type SharedBucket = Arc<Mutex<TokenBucket>>;

/// Several rate limits applied to a single transmission.
///
/// iOverlay stacks up to three limits on one link: the per-link cap, the
/// per-node directional (uplink or downlink) cap, and the per-node total
/// cap. A chain reserves from every bucket and waits for the *slowest*
/// one. Buckets are shared (`Arc<Mutex<_>>`) because the per-node caps
/// are common to all of a node's links.
///
/// # Example
///
/// ```
/// use ioverlay_ratelimit::{BucketChain, Rate, TokenBucket};
///
/// let per_node = BucketChain::shared(TokenBucket::new(Rate::kbps(400), 0));
/// let mut chain = BucketChain::new();
/// chain.push(per_node.clone());
/// chain.push(BucketChain::shared(TokenBucket::new(Rate::kbps(30), 0)));
/// let delay = chain.reserve(5 * 1024, 0);
/// assert_eq!(delay, 0); // burst credit covers the first message
/// ```
#[derive(Debug, Clone, Default)]
pub struct BucketChain {
    buckets: Vec<Arc<Mutex<TokenBucket>>>,
}

impl BucketChain {
    /// Creates an empty (unlimited) chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps a bucket for sharing between chains.
    pub fn shared(bucket: TokenBucket) -> Arc<Mutex<TokenBucket>> {
        Arc::new(Mutex::new(bucket))
    }

    /// Appends a (possibly shared) bucket to the chain.
    pub fn push(&mut self, bucket: Arc<Mutex<TokenBucket>>) {
        self.buckets.push(bucket);
    }

    /// Number of buckets in the chain.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// Whether the chain imposes no limits.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Reserves `bytes` from every bucket; returns the maximum delay.
    pub fn reserve(&self, bytes: u64, now: Nanos) -> Nanos {
        self.buckets
            .iter()
            .map(|b| b.lock().reserve(bytes, now))
            .max()
            .unwrap_or(0)
    }
}

/// Handle of a bucket inside a [`BucketSet`]. The default handle names
/// the first bucket inserted; it exists so arrays of handles can be
/// initialised before they are filled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct BucketId(u32);

/// Buckets owned by one single-threaded user and addressed by index.
///
/// The simulator shares per-node buckets between all of a node's links
/// exactly as the engine does, but runs on one thread: it keeps every
/// bucket here and gives each link a chain of [`BucketId`]s, so a
/// transmission costs no lock and no reference count.
/// [`BucketSet::reserve`] over a chain returns what
/// [`BucketChain::reserve`] returns over the same buckets.
///
/// # Example
///
/// ```
/// use ioverlay_ratelimit::{BucketSet, Rate, TokenBucket};
///
/// let mut set = BucketSet::new();
/// let per_node = set.insert(TokenBucket::new(Rate::kbps(400), 0));
/// let per_link = set.insert(TokenBucket::new(Rate::kbps(30), 0));
/// assert_eq!(set.reserve(&[per_node, per_link], 5 * 1024, 0), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BucketSet {
    buckets: Vec<TokenBucket>,
}

impl BucketSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a bucket and returns its handle.
    pub fn insert(&mut self, bucket: TokenBucket) -> BucketId {
        let id = u32::try_from(self.buckets.len()).expect("fewer than 2^32 buckets");
        self.buckets.push(bucket);
        BucketId(id)
    }

    /// The bucket behind `id`.
    pub fn get(&self, id: BucketId) -> &TokenBucket {
        &self.buckets[id.0 as usize]
    }

    /// The bucket behind `id`, for retuning or replacing.
    pub fn get_mut(&mut self, id: BucketId) -> &mut TokenBucket {
        &mut self.buckets[id.0 as usize]
    }

    /// Reserves `bytes` from every bucket of `chain`; returns the maximum
    /// delay (0 for an empty chain).
    pub fn reserve(&mut self, chain: &[BucketId], bytes: u64, now: Nanos) -> Nanos {
        chain
            .iter()
            .map(|&id| self.get_mut(id).reserve(bytes, now))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: Nanos = NANOS_PER_SEC;

    #[test]
    fn rate_constructors_and_display() {
        assert_eq!(Rate::kbps(400).as_bytes_per_sec(), 400 * 1024);
        assert_eq!(Rate::mbps(2).as_kbps(), 2048.0);
        assert_eq!(Rate::kbps(30).to_string(), "30.0 KBps");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_panics() {
        let _ = Rate::bytes_per_sec(0);
    }

    #[test]
    fn transmission_delay_is_exact() {
        let r = Rate::bytes_per_sec(1_000);
        assert_eq!(r.transmission_delay(1_000), SEC);
        assert_eq!(r.transmission_delay(500), SEC / 2);
        assert_eq!(r.transmission_delay(0), 0);
    }

    #[test]
    fn burst_then_paced() {
        let mut b = TokenBucket::new(Rate::bytes_per_sec(1_000), 0);
        // Full burst of 1000 bytes goes immediately.
        assert_eq!(b.reserve(1_000, 0), 0);
        // The next kilobyte must wait a full second.
        assert_eq!(b.reserve(1_000, 0), SEC);
        // And the one after that, two seconds.
        assert_eq!(b.reserve(1_000, 0), 2 * SEC);
    }

    #[test]
    fn long_run_rate_is_exact() {
        let mut b = TokenBucket::with_burst(Rate::bytes_per_sec(10_000), 0, 0);
        // Reserve 100 messages of 1000 bytes back-to-back at t=0; the last
        // should be delayed ~10 seconds (100 KB at 10 KB/s).
        let mut last = 0;
        for _ in 0..100 {
            last = b.reserve(1_000, 0);
        }
        let expect = 10 * SEC;
        assert!(
            (last as i64 - expect as i64).unsigned_abs() < SEC / 100,
            "last delay {last} vs expected {expect}"
        );
    }

    #[test]
    fn refill_caps_at_burst() {
        let mut b = TokenBucket::with_burst(Rate::bytes_per_sec(1_000), 500, 0);
        // Wait 10 seconds: tokens must cap at the 500-byte burst.
        assert_eq!(b.reserve(500, 10 * SEC), 0);
        assert!(b.reserve(500, 10 * SEC) > 0);
    }

    #[test]
    fn set_rate_takes_effect() {
        let mut b = TokenBucket::with_burst(Rate::bytes_per_sec(1_000), 0, 0);
        assert_eq!(b.reserve(1_000, 0), SEC);
        b.set_rate(Rate::bytes_per_sec(2_000), 0);
        // Deficit of 1000 bytes now clears at 2000 B/s => 0.5 s.
        let delay = b.reserve(0, 0);
        assert!((delay as i64 - (SEC / 2) as i64).unsigned_abs() < SEC / 100);
    }

    #[test]
    fn can_send_is_side_effect_free_on_balance() {
        let mut b = TokenBucket::with_burst(Rate::bytes_per_sec(1_000), 100, 0);
        assert!(b.can_send(100, 0));
        assert!(b.can_send(100, 0), "can_send must not consume tokens");
        assert!(!b.can_send(101, 0));
    }

    #[test]
    fn chain_takes_the_slowest_bucket() {
        let fast = BucketChain::shared(TokenBucket::with_burst(Rate::bytes_per_sec(10_000), 0, 0));
        let slow = BucketChain::shared(TokenBucket::with_burst(Rate::bytes_per_sec(1_000), 0, 0));
        let mut chain = BucketChain::new();
        chain.push(fast);
        chain.push(slow);
        let delay = chain.reserve(1_000, 0);
        assert_eq!(delay, SEC); // the 1 KB/s bucket dominates
    }

    #[test]
    fn shared_bucket_couples_two_links() {
        // Two links share a per-node uplink bucket: together they cannot
        // exceed the node's rate — this is exactly the Fig. 6 experiment
        // where node A's 400 KBps cap splits into 200 + 200 for AB and AC.
        let node = BucketChain::shared(TokenBucket::with_burst(Rate::bytes_per_sec(2_000), 0, 0));
        let mut link_ab = BucketChain::new();
        link_ab.push(node.clone());
        let mut link_ac = BucketChain::new();
        link_ac.push(node);
        // Interleave sends: each link pushes 1000 bytes, twice.
        let d1 = link_ab.reserve(1_000, 0);
        let d2 = link_ac.reserve(1_000, 0);
        let d3 = link_ab.reserve(1_000, 0);
        let d4 = link_ac.reserve(1_000, 0);
        // With no burst, each kilobyte serializes at the shared 2 KB/s.
        assert_eq!(d1, SEC / 2);
        assert_eq!(d2, SEC);
        assert_eq!(d3, SEC * 3 / 2);
        assert_eq!(d4, SEC * 2);
    }

    #[test]
    fn bucket_set_shares_a_bucket_between_chains() {
        // `shared_bucket_couples_two_links`, without the locks.
        let mut set = BucketSet::new();
        let node = set.insert(TokenBucket::with_burst(Rate::bytes_per_sec(2_000), 0, 0));
        let link = set.insert(TokenBucket::with_burst(Rate::bytes_per_sec(10_000), 0, 0));
        assert_eq!(set.reserve(&[node, link], 1_000, 0), SEC / 2);
        assert_eq!(set.reserve(&[node], 1_000, 0), SEC);
        set.get_mut(node).set_rate(Rate::bytes_per_sec(4_000), 0);
        assert_eq!(set.get(node).rate(), Rate::bytes_per_sec(4_000));
        assert_eq!(set.reserve(&[], u64::MAX / 2, 0), 0);
    }

    #[test]
    fn empty_chain_is_unlimited() {
        let chain = BucketChain::new();
        assert!(chain.is_empty());
        assert_eq!(chain.reserve(u64::MAX / 2, 0), 0);
    }
}

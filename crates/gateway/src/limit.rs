//! Per-route token-bucket rate limiting.
//!
//! A bucket holds up to `burst` tokens and refills continuously at the
//! configured requests-per-second rate; each admitted request spends one
//! token. Over-limit requests are answered with a polite `ok:false`
//! (`rate_limited: true`) instead of queueing — shedding at the edge
//! keeps an over-budget route from occupying session threads and the
//! shared encode queue with traffic that was never going to be served.
//!
//! The unit is *requests*, not trees: a `compare` carries 2 sources and
//! a `rank` up to [`ccsa_serve::MAX_RANK_CANDIDATES`], each of which can
//! be a cold encode (scoring and sorting them is cheap beside that), so
//! the worst-case encode pressure a limited route can still exert is
//! `RPS × MAX_RANK_CANDIDATES` cold trees per second (the rank cap, the
//! embedding cache, and pool batching bound it in practice). Weighing
//! tokens by candidate count is the follow-on if that bound proves too
//! loose under real traffic.
//!
//! Buckets are per *route*, not per client: the router's sticky
//! assignment already pins a client population to a route, so the bucket
//! caps what that route may demand from the encoder pool. Requests that
//! pin a model/version explicitly bypass the router and therefore also
//! bypass route limits (they are debugging/experiment traffic by
//! definition, and are counted separately as `pinned_requests`).

use std::time::Instant;

use ccsa_serve::ModelSelector;

/// A configured per-route limit: the route's selector and its sustained
/// requests-per-second budget.
#[derive(Debug, Clone, PartialEq)]
pub struct RateLimit {
    /// Which route the limit applies to (matched against the routing
    /// table by selector equality).
    pub selector: ModelSelector,
    /// Sustained requests per second (> 0, finite). The burst capacity
    /// is `max(rps, 1)` — a sub-1-RPS limit still admits single
    /// requests.
    pub rps: f64,
}

/// A continuously refilling token bucket.
#[derive(Debug)]
pub struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    /// A full bucket refilling at `rps` tokens per second.
    ///
    /// # Panics
    ///
    /// Panics unless `rps` is finite and positive (`check_limits`
    /// refuses such a limit before any bucket is built).
    pub fn new(rps: f64) -> TokenBucket {
        assert!(
            rps.is_finite() && rps > 0.0,
            "rate limit must be finite and positive, got {rps}"
        );
        let burst = rps.max(1.0);
        TokenBucket {
            rate: rps,
            burst,
            tokens: burst,
            last: Instant::now(),
        }
    }

    /// Spends one token if available, refilling for the elapsed time
    /// first. `false` means the caller is over limit right now.
    pub fn try_acquire(&mut self) -> bool {
        self.try_acquire_at(Instant::now())
    }

    /// [`TokenBucket::try_acquire`] against an explicit clock (tests).
    pub fn try_acquire_at(&mut self, now: Instant) -> bool {
        let elapsed = now.saturating_duration_since(self.last).as_secs_f64();
        self.last = now;
        self.tokens = (self.tokens + elapsed * self.rate).min(self.burst);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn burst_then_refusal_then_refill() {
        let mut bucket = TokenBucket::new(2.0);
        let t0 = Instant::now();
        // Burst capacity = 2: two immediate admissions, third refused.
        assert!(bucket.try_acquire_at(t0));
        assert!(bucket.try_acquire_at(t0));
        assert!(!bucket.try_acquire_at(t0));
        // Half a second refills one token at 2 RPS.
        let t1 = t0 + Duration::from_millis(500);
        assert!(bucket.try_acquire_at(t1));
        assert!(!bucket.try_acquire_at(t1));
    }

    #[test]
    fn bucket_never_exceeds_burst() {
        let mut bucket = TokenBucket::new(3.0);
        let t0 = Instant::now();
        // A long idle period must not bank more than the burst.
        let t1 = t0 + Duration::from_secs(3600);
        for _ in 0..3 {
            assert!(bucket.try_acquire_at(t1));
        }
        assert!(!bucket.try_acquire_at(t1));
    }

    #[test]
    fn sub_one_rps_still_admits_singles() {
        let mut bucket = TokenBucket::new(0.5);
        let t0 = Instant::now();
        assert!(bucket.try_acquire_at(t0), "burst floor of 1 token");
        assert!(!bucket.try_acquire_at(t0));
        // Two seconds at 0.5 RPS refills one token.
        assert!(bucket.try_acquire_at(t0 + Duration::from_secs(2)));
    }

    #[test]
    fn sustained_rate_converges_to_rps() {
        let mut bucket = TokenBucket::new(10.0);
        let t0 = Instant::now();
        // 100 attempts over 5 simulated seconds at 20 Hz: ~10 burst +
        // 5 s × 10 RPS ≈ 60 admissions.
        let admitted = (0..100)
            .filter(|i| bucket.try_acquire_at(t0 + Duration::from_millis(i * 50)))
            .count();
        assert!(
            (55..=65).contains(&admitted),
            "admitted {admitted}, expected ≈60"
        );
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn zero_rate_is_rejected() {
        let _ = TokenBucket::new(0.0);
    }
}

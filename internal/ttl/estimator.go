// Package ttl implements Quaestor's statistical TTL estimation
// (Section 4.2) and the shared active list of cached queries.
//
// The model: writes to each record form a Poisson process with arrival
// rate λw, estimated by sampling incoming updates over a sliding window.
// A query result over records with rates λ1..λn changes when the *first*
// of the corresponding exponential inter-arrival variables fires, which is
// again exponential with λmin = λ1+…+λn. The TTL with probability p of
// seeing no write before expiration is the quantile
//
//	F⁻¹(p, λmin) = −ln(1−p) / λmin            (Equation 1)
//
// After a query result is invalidated, the *actual* TTL (invalidation time
// minus previous read time) feeds an exponentially weighted moving average
//
//	TTL ← α·TTL_old + (1−α)·TTL_actual        (Equation 2)
//
// so estimates converge towards the true TTL with some lag.
//
// The active list (ActiveList) is the origin's one registry of cached
// queries and owns their whole life: admission against a capacity, the
// caller's activation (InvaliDB registration) on the way in, the purge
// path and subscription pins while resident, and eviction — lapsed
// entries first, else the lowest reads-per-invalidation score below a
// newcomer's — with OnEvict as the caller's teardown on the way out.
// Every other per-query structure (InvaliDB's registrations, the
// estimator's EWMA map) is kept a subset of it by those two hooks.
package ttl

import (
	"math"
	"sync"
	"time"
)

// Config tunes the estimator.
type Config struct {
	// Quantile p: probability that no write occurs before the TTL expires.
	// Higher p gives shorter TTLs (fewer invalidations, lower hit rates).
	// Default 0.7.
	Quantile float64
	// Alpha is the EWMA weight on the old estimate (Equation 2). Default 0.5.
	Alpha float64
	// Window is the write-rate sampling window. Default 5 minutes.
	Window time.Duration
	// MinTTL / MaxTTL clamp all estimates. Defaults 1s and 1h.
	MinTTL time.Duration
	MaxTTL time.Duration
	// DefaultTTL is used when no write has ever been observed for any
	// record involved (rate 0 — infinite estimate). Default = MaxTTL.
	DefaultTTL time.Duration
	// Clock supplies time; defaults to time.Now.
	Clock func() time.Time
}

func (c *Config) withDefaults() Config {
	out := Config{
		Quantile: 0.7,
		Alpha:    0.5,
		Window:   5 * time.Minute,
		MinTTL:   time.Second,
		MaxTTL:   time.Hour,
		Clock:    time.Now,
	}
	if c == nil {
		out.DefaultTTL = out.MaxTTL
		return out
	}
	if c.Quantile > 0 && c.Quantile < 1 {
		out.Quantile = c.Quantile
	}
	if c.Alpha > 0 && c.Alpha < 1 {
		out.Alpha = c.Alpha
	}
	if c.Window > 0 {
		out.Window = c.Window
	}
	if c.MinTTL > 0 {
		out.MinTTL = c.MinTTL
	}
	if c.MaxTTL > 0 {
		out.MaxTTL = c.MaxTTL
	}
	if c.DefaultTTL > 0 {
		out.DefaultTTL = c.DefaultTTL
	} else {
		out.DefaultTTL = out.MaxTTL
	}
	if c.Clock != nil {
		out.Clock = c.Clock
	}
	return out
}

// rateWindow tracks write timestamps for one record inside the sliding
// window using two alternating buckets, giving O(1) updates and a smooth
// estimate without storing every event. It is a plain value holding no
// pointer (times are Unix nanoseconds), so the estimator keeps it in its
// map by value: a new record costs no heap object and the GC has nothing
// to scan in it.
type rateWindow struct {
	curStart int64
	curCount int64
	prvCount int64
}

// observe registers one write at time now for a window of length w.
func (r *rateWindow) observe(now, w int64) {
	r.roll(now, w)
	r.curCount++
}

func (r *rateWindow) roll(now, w int64) {
	elapsed := now - r.curStart
	switch {
	case elapsed < w:
		// still in current bucket
	case elapsed < 2*w:
		r.prvCount = r.curCount
		r.curCount = 0
		r.curStart += w
	default:
		r.prvCount = 0
		r.curCount = 0
		r.curStart = now
	}
}

// rate estimates writes/second: current bucket plus the linearly decayed
// fraction of the previous bucket. It rolls r forward to now.
func (r *rateWindow) rate(now, w int64) float64 {
	if r.idle(now, w) {
		return 0
	}
	r.roll(now, w)
	frac := float64(now-r.curStart) / float64(w)
	if frac > 1 {
		frac = 1
	}
	weighted := float64(r.curCount) + float64(r.prvCount)*(1-frac)
	return weighted / time.Duration(w).Seconds()
}

// idle reports whether the window saw no write for two window lengths:
// both buckets have aged out, its rate is 0, and the next write restarts it
// exactly like a window that never existed. Reading an idle window's rate
// leaves it untouched, so dropping it (Estimator.sweepLocked) changes no
// estimate, now or later.
func (r *rateWindow) idle(now, w int64) bool {
	return now-r.curStart >= 2*w
}

// Estimator derives TTLs for records and queries. Safe for concurrent use.
//
// Both maps are bounded: ewma holds only queries resident in the active
// list (Forget on eviction), and rates drops idle windows by an amortized
// sweep — run by the write that grows the table to sweepAt, which is then
// set to twice what the sweep left (never below minSweep) — so it stays
// within 2× the records written in the last two windows + minSweep,
// whatever the server's history.
type Estimator struct {
	cfg Config

	mu      sync.Mutex
	rates   map[string]rateWindow // record key -> write-rate window
	sweepAt int                   // len(rates) at which the next sweep runs
	ewma    map[string]float64    // query key -> EWMA TTL estimate (seconds)
}

// minSweep is the rate-table size below which no sweep runs.
const minSweep = 1024

// NewEstimator creates an estimator. A nil cfg uses defaults.
func NewEstimator(cfg *Config) *Estimator {
	return &Estimator{
		cfg:     cfg.withDefaults(),
		rates:   map[string]rateWindow{},
		sweepAt: minSweep,
		ewma:    map[string]float64{},
	}
}

// Config returns the effective configuration.
func (e *Estimator) Config() Config { return e.cfg }

// ObserveWrite samples one write to a record ("for each database record,
// QUAESTOR can estimate (through sampling) the rate of incoming writes λw
// in some time window t").
func (e *Estimator) ObserveWrite(recordKey string) {
	e.ObserveWrites([]string{recordKey})
}

// ObserveWrites samples one write to each record key under one clock
// reading and one lock acquisition: what a transaction's writes cost the
// estimator.
func (e *Estimator) ObserveWrites(recordKeys []string) {
	now := e.cfg.Clock()
	at, w := now.UnixNano(), int64(e.cfg.Window)
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, key := range recordKeys {
		r, ok := e.rates[key]
		if !ok {
			if len(e.rates) >= e.sweepAt {
				e.sweepLocked(now)
			}
			r = rateWindow{curStart: at}
		}
		r.observe(at, w)
		e.rates[key] = r
	}
}

// sweepLocked drops every idle window. A sweep of n windows is paid for by
// the ≥ n/2 insertions since the previous one.
func (e *Estimator) sweepLocked(now time.Time) {
	at := now.UnixNano()
	for k, r := range e.rates {
		if r.idle(at, int64(e.cfg.Window)) {
			delete(e.rates, k)
		}
	}
	e.sweepAt = max(2*len(e.rates), minSweep)
}

// rateLocked returns a record's estimated writes/second at now and keeps
// its window rolled forward. Caller holds e.mu.
func (e *Estimator) rateLocked(recordKey string, now int64) float64 {
	r, ok := e.rates[recordKey]
	if !ok {
		return 0
	}
	before := r
	rate := r.rate(now, int64(e.cfg.Window))
	if r != before {
		e.rates[recordKey] = r
	}
	return rate
}

// WriteRate returns the estimated writes/second for a record.
func (e *Estimator) WriteRate(recordKey string) float64 {
	now := e.cfg.Clock().UnixNano()
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rateLocked(recordKey, now)
}

// clamp bounds a TTL into [MinTTL, MaxTTL].
func (e *Estimator) clamp(d time.Duration) time.Duration {
	if d < e.cfg.MinTTL {
		return e.cfg.MinTTL
	}
	if d > e.cfg.MaxTTL {
		return e.cfg.MaxTTL
	}
	return d
}

// quantileTTL computes Equation 1 for a summed rate λmin.
func (e *Estimator) quantileTTL(lambda float64) time.Duration {
	if lambda <= 0 {
		return e.clamp(e.cfg.DefaultTTL)
	}
	seconds := -math.Log(1-e.cfg.Quantile) / lambda
	return e.clamp(time.Duration(seconds * float64(time.Second)))
}

// RecordTTL estimates the expiration for a single record from its write
// rate ("for individual records, we always use an estimate based on the
// approximated write-rates").
func (e *Estimator) RecordTTL(recordKey string) time.Duration {
	return e.quantileTTL(e.WriteRate(recordKey))
}

// QueryTTL estimates the expiration for a query result: QueryEstimate's
// TTL, for callers that have no use for the change rate.
func (e *Estimator) QueryTTL(queryKey string, resultRecordKeys []string) time.Duration {
	_, ttl := e.QueryEstimate(queryKey, resultRecordKeys)
	return ttl
}

// QueryEstimate is everything one query response needs from the estimator,
// in one pass — one clock read, one lock acquisition, one walk over the
// result's rate windows. changeRate = Σ λi over the result's record keys is
// the input of the representation cost model. For the TTL, an EWMA
// estimate from previous invalidations wins if one exists; otherwise the
// initial Poisson estimate applies (λmin = changeRate).
func (e *Estimator) QueryEstimate(queryKey string, resultRecordKeys []string) (changeRate float64, ttl time.Duration) {
	now := e.cfg.Clock().UnixNano()
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, k := range resultRecordKeys {
		changeRate += e.rateLocked(k, now)
	}
	if est, ok := e.ewma[queryKey]; ok {
		return changeRate, e.clamp(time.Duration(est * float64(time.Second)))
	}
	return changeRate, e.quantileTTL(changeRate)
}

// ObserveInvalidation feeds the actual observed TTL of a query (time from
// the previous read to the invalidation) into the per-query EWMA
// (Equation 2) and returns the updated estimate.
func (e *Estimator) ObserveInvalidation(queryKey string, actual time.Duration) time.Duration {
	actualSec := actual.Seconds()
	if actualSec < 0 {
		actualSec = 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	old, ok := e.ewma[queryKey]
	var next float64
	if !ok {
		next = actualSec
	} else {
		next = e.cfg.Alpha*old + (1-e.cfg.Alpha)*actualSec
	}
	e.ewma[queryKey] = next
	return e.clamp(time.Duration(next * float64(time.Second)))
}

// EstimateSnapshot returns the current EWMA estimate for a query in
// seconds, and whether one exists. Used by the evaluation harness
// (Figure 11's estimated-TTL CDF).
func (e *Estimator) EstimateSnapshot(queryKey string) (float64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	est, ok := e.ewma[queryKey]
	return est, ok
}

// Forget drops all state for a query (e.g. when it is evicted from the
// active list).
func (e *Estimator) Forget(queryKey string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.ewma, queryKey)
}

// TrackedRecords returns how many record rate windows are live.
func (e *Estimator) TrackedRecords() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.rates)
}

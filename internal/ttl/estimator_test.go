package ttl

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(0, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func newTestEstimator(c *fakeClock, cfg *Config) *Estimator {
	if cfg == nil {
		cfg = &Config{}
	}
	cfg.Clock = c.Now
	return NewEstimator(cfg)
}

func TestWriteRateEstimation(t *testing.T) {
	c := newFakeClock()
	e := newTestEstimator(c, &Config{Window: 10 * time.Second})
	// 20 writes over 10 seconds -> ~2 writes/s.
	for i := 0; i < 20; i++ {
		e.ObserveWrite("r1")
		c.Advance(500 * time.Millisecond)
	}
	rate := e.WriteRate("r1")
	if rate < 1.0 || rate > 3.0 {
		t.Errorf("rate = %.2f, want ~2", rate)
	}
	if e.WriteRate("never-written") != 0 {
		t.Error("unknown record should have rate 0")
	}
}

func TestWriteRateDecays(t *testing.T) {
	c := newFakeClock()
	e := newTestEstimator(c, &Config{Window: 5 * time.Second})
	for i := 0; i < 10; i++ {
		e.ObserveWrite("r1")
	}
	if e.WriteRate("r1") <= 0 {
		t.Fatal("rate should be positive right after writes")
	}
	// Far beyond two windows: the estimate must drop to zero.
	c.Advance(time.Minute)
	if rate := e.WriteRate("r1"); rate != 0 {
		t.Errorf("stale rate = %.3f, want 0", rate)
	}
}

func TestQuantileTTLFormula(t *testing.T) {
	c := newFakeClock()
	e := newTestEstimator(c, &Config{
		Quantile: 0.7,
		Window:   10 * time.Second,
		MinTTL:   time.Millisecond,
		MaxTTL:   24 * time.Hour,
	})
	// Drive a known write rate λ≈1/s on each of three records.
	keys := []string{"t/a", "t/b", "t/c"}
	for i := 0; i < 10; i++ {
		for _, k := range keys {
			e.ObserveWrite(k)
		}
		c.Advance(time.Second)
	}
	// λmin ≈ 3/s, F⁻¹(0.7, 3) = −ln(0.3)/3 ≈ 0.401 s.
	got := e.QueryTTL("q1", keys)
	want := -math.Log(1-0.7) / 3.0
	if math.Abs(got.Seconds()-want) > want {
		t.Errorf("query TTL = %v, want ≈ %.3fs", got, want)
	}
	// Single record: λ≈1/s → −ln(0.3)/1 ≈ 1.204 s.
	single := e.RecordTTL("t/a")
	wantSingle := -math.Log(1 - 0.7)
	if math.Abs(single.Seconds()-wantSingle) > wantSingle {
		t.Errorf("record TTL = %v, want ≈ %.3fs", single, wantSingle)
	}
	// More writers => shorter TTLs (monotonicity of Equation 1).
	if got >= single {
		t.Errorf("query TTL (%v) should be below single-record TTL (%v)", got, single)
	}
}

func TestDefaultTTLWhenNoWrites(t *testing.T) {
	c := newFakeClock()
	e := newTestEstimator(c, &Config{DefaultTTL: 7 * time.Minute, MaxTTL: time.Hour})
	if got := e.RecordTTL("quiet"); got != 7*time.Minute {
		t.Errorf("default TTL = %v", got)
	}
	if got := e.QueryTTL("q", []string{"quiet"}); got != 7*time.Minute {
		t.Errorf("query default TTL = %v", got)
	}
}

func TestTTLClamping(t *testing.T) {
	c := newFakeClock()
	e := newTestEstimator(c, &Config{MinTTL: 2 * time.Second, MaxTTL: 30 * time.Second, Window: time.Second})
	// Extremely hot record: hundreds of writes per second.
	for i := 0; i < 500; i++ {
		e.ObserveWrite("hot")
		c.Advance(time.Millisecond)
	}
	if got := e.RecordTTL("hot"); got < 2*time.Second {
		t.Errorf("TTL %v below MinTTL", got)
	}
	// Idle record gets DefaultTTL = MaxTTL.
	if got := e.RecordTTL("cold"); got > 30*time.Second {
		t.Errorf("TTL %v above MaxTTL", got)
	}
}

func TestEWMAEquation(t *testing.T) {
	c := newFakeClock()
	e := newTestEstimator(c, &Config{Alpha: 0.5, MinTTL: time.Millisecond, MaxTTL: time.Hour})
	// First observation seeds the EWMA directly.
	got := e.ObserveInvalidation("q1", 10*time.Second)
	if got != 10*time.Second {
		t.Errorf("seed = %v", got)
	}
	// TTL ← 0.5·10 + 0.5·20 = 15.
	got = e.ObserveInvalidation("q1", 20*time.Second)
	if math.Abs(got.Seconds()-15) > 0.01 {
		t.Errorf("EWMA = %v, want 15s", got)
	}
	// TTL ← 0.5·15 + 0.5·5 = 10.
	got = e.ObserveInvalidation("q1", 5*time.Second)
	if math.Abs(got.Seconds()-10) > 0.01 {
		t.Errorf("EWMA = %v, want 10s", got)
	}
	// QueryTTL must now prefer the EWMA over the Poisson estimate.
	if got := e.QueryTTL("q1", nil); math.Abs(got.Seconds()-10) > 0.01 {
		t.Errorf("QueryTTL after EWMA = %v", got)
	}
	if est, ok := e.EstimateSnapshot("q1"); !ok || math.Abs(est-10) > 0.01 {
		t.Errorf("EstimateSnapshot = %v, %v", est, ok)
	}
}

func TestEWMAConvergesToTrueTTL(t *testing.T) {
	c := newFakeClock()
	e := newTestEstimator(c, &Config{Alpha: 0.5, MinTTL: time.Millisecond, MaxTTL: time.Hour})
	e.ObserveInvalidation("q1", 100*time.Second) // way off
	var got time.Duration
	for i := 0; i < 20; i++ {
		got = e.ObserveInvalidation("q1", 10*time.Second) // true TTL 10s
	}
	if math.Abs(got.Seconds()-10) > 0.1 {
		t.Errorf("EWMA did not converge: %v", got)
	}
}

func TestNegativeActualClampedToZero(t *testing.T) {
	c := newFakeClock()
	e := newTestEstimator(c, nil)
	got := e.ObserveInvalidation("q1", -5*time.Second)
	if got != e.Config().MinTTL {
		t.Errorf("negative actual should clamp: %v", got)
	}
}

func TestForget(t *testing.T) {
	c := newFakeClock()
	e := newTestEstimator(c, nil)
	e.ObserveInvalidation("q1", 5*time.Second)
	e.Forget("q1")
	if _, ok := e.EstimateSnapshot("q1"); ok {
		t.Error("forgotten query still has an estimate")
	}
}

func TestTrackedRecords(t *testing.T) {
	c := newFakeClock()
	e := newTestEstimator(c, nil)
	for i := 0; i < 4; i++ {
		e.ObserveWrite(fmt.Sprintf("r%d", i))
	}
	if n := e.TrackedRecords(); n != 4 {
		t.Errorf("TrackedRecords = %d", n)
	}
}

func TestEstimatorConcurrency(t *testing.T) {
	c := newFakeClock()
	e := newTestEstimator(c, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			key := fmt.Sprintf("r%d", id%3)
			for i := 0; i < 200; i++ {
				e.ObserveWrite(key)
				_ = e.WriteRate(key)
				_ = e.QueryTTL("q", []string{key})
				e.ObserveInvalidation("q", time.Second)
			}
		}(w)
	}
	wg.Wait()
}

// TestQueryEstimateMatchesSeparateCalls checks the one-pass estimate
// against the calls it replaces on the query path — Σ WriteRate over the
// result for the representation model, then QueryTTL — with and without an
// EWMA estimate, and that it reads the clock once whatever the result size.
func TestQueryEstimateMatchesSeparateCalls(t *testing.T) {
	c := newFakeClock()
	reads := 0
	e := NewEstimator(&Config{Window: 10 * time.Second, MinTTL: time.Millisecond, Clock: func() time.Time {
		reads++
		return c.Now()
	}})
	keys := make([]string, 20)
	for i := range keys {
		keys[i] = fmt.Sprintf("t/r%d", i)
		for w := 0; w < i%5; w++ { // every fifth record never written
			e.ObserveWrite(keys[i])
		}
		c.Advance(700 * time.Millisecond)
	}
	e.ObserveInvalidation("q-ewma", 3*time.Second)

	for _, q := range []string{"q-poisson", "q-ewma"} {
		for n := 0; n <= len(keys); n += 5 {
			var wantRate float64
			for _, k := range keys[:n] {
				wantRate += e.WriteRate(k)
			}
			wantTTL := e.QueryTTL(q, keys[:n])
			reads = 0
			rate, ttl := e.QueryEstimate(q, keys[:n])
			if rate != wantRate || ttl != wantTTL {
				t.Errorf("%s over %d records: QueryEstimate = (%v, %v), separate calls (%v, %v)", q, n, rate, ttl, wantRate, wantTTL)
			}
			if reads != 1 {
				t.Errorf("%s over %d records: %d clock reads, want 1", q, n, reads)
			}
		}
	}
}

// TestRateTableFlatUnderKeyChurn is the "memory flat under key churn" check
// for the write-rate table (model: ebf's TestTTLTableFlatUnderKeyChurn):
// 200 000 distinct records, each written once, one per millisecond, with a
// 500 ms window — so 1 000 records were written within the last two
// windows at any time. The table must stay within twice that plus the
// sweep floor.
func TestRateTableFlatUnderKeyChurn(t *testing.T) {
	c := newFakeClock()
	e := newTestEstimator(c, &Config{Window: 500 * time.Millisecond})
	const keys, live = 200000, 1000
	peak := 0
	for i := 0; i < keys; i++ {
		c.Advance(time.Millisecond)
		e.ObserveWrite(fmt.Sprintf("t/k%d", i))
		if i%97 == 0 {
			peak = max(peak, e.TrackedRecords())
		}
	}
	peak = max(peak, e.TrackedRecords())
	if limit := 2*live + minSweep; peak > limit {
		t.Errorf("rate table peaked at %d windows, want ≤ %d", peak, limit)
	}
}

// TestIdleEvictionKeepsEstimates checks that dropping idle windows changes
// no estimate: TTLs and rates of live and idle records are the same right
// before and right after a sweep, and an evicted record that is written
// again is estimated exactly like one whose window was never dropped.
func TestIdleEvictionKeepsEstimates(t *testing.T) {
	c := newFakeClock()
	cfg := Config{Window: 10 * time.Second, MinTTL: time.Millisecond}
	swept, kept := newTestEstimator(c, &cfg), newTestEstimator(c, &cfg)
	kept.sweepAt = math.MaxInt // the reference never sweeps

	both := func(key string) {
		swept.ObserveWrite(key)
		kept.ObserveWrite(key)
	}
	for i := 0; i < 3; i++ {
		both("t/idle")
		c.Advance(time.Second)
	}
	c.Advance(25 * time.Second) // t/idle: last write > 2 windows ago
	for i := 0; i < 4; i++ {
		both("t/live")
		c.Advance(time.Second)
	}
	// Reading an idle window's rate must leave it as it is: a window that
	// was read while idle restarts at its next write like a dropped one.
	for _, e := range []*Estimator{swept, kept} {
		if r := e.WriteRate("t/idle"); r != 0 {
			t.Fatalf("idle rate = %v, want 0", r)
		}
	}

	estimates := func(e *Estimator) [4]any {
		rate, ttl := e.QueryEstimate("q", []string{"t/idle", "t/live"})
		return [4]any{e.RecordTTL("t/idle"), e.RecordTTL("t/live"), rate, ttl}
	}
	before := estimates(swept)
	swept.mu.Lock()
	swept.sweepLocked(c.Now())
	swept.mu.Unlock()
	if n := swept.TrackedRecords(); n != 1 {
		t.Fatalf("%d windows after the sweep, want only t/live", n)
	}
	if after := estimates(swept); after != before {
		t.Errorf("estimates changed across the sweep: %v → %v", before, after)
	}

	// The evicted record comes back: same estimates as the never-swept
	// reference from here on, across bucket rolls.
	for i := 0; i < 30; i++ {
		if i < 6 {
			both("t/idle")
		}
		if got, want := estimates(swept), estimates(kept); got != want {
			t.Fatalf("step %d after re-creation: swept %v, never swept %v", i, got, want)
		}
		c.Advance(1500 * time.Millisecond)
	}
}

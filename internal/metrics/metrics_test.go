package metrics

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// observeMs records a sample of ms milliseconds.
func observeMs(h *Histogram, ms float64) {
	h.Observe(time.Duration(ms * float64(time.Millisecond)))
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Mean() != 0 || h.Percentile(0.5) != 0 || h.Count() != 0 {
		t.Error("empty histogram should report zeros")
	}
	for _, ms := range []float64{1, 2, 3, 4, 5} {
		observeMs(h, ms)
	}
	if h.Mean() != 3 {
		t.Errorf("mean = %f", h.Mean())
	}
	if h.Percentile(0.5) != 3 {
		t.Errorf("p50 = %f", h.Percentile(0.5))
	}
	if h.Percentile(1.0) != 5 {
		t.Errorf("p100 = %f", h.Percentile(1.0))
	}
	if h.Count() != 5 {
		t.Errorf("count = %d", h.Count())
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	h := NewHistogram()
	h.Observe(1500 * time.Microsecond)
	if got := h.Mean(); got != 1.5 {
		t.Errorf("mean = %f ms, want 1.5", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		observeMs(h, float64(i))
	}
	if got := h.Percentile(0.99); got != 99 {
		t.Errorf("p99 = %f", got)
	}
	if got := h.Percentile(0.01); got != 1 {
		t.Errorf("p1 = %f", got)
	}
}

func TestBuckets(t *testing.T) {
	h := NewHistogram()
	for _, ms := range []float64{0.1, 0.4, 3, 50, 500} {
		observeMs(h, ms)
	}
	counts := h.Buckets([]float64{0.5, 10, 100})
	want := []int{2, 1, 1, 1}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, counts[i], want[i])
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				observeMs(h, r.Float64()*100)
				_ = h.Percentile(0.9)
			}
		}(int64(w))
	}
	wg.Wait()
	if h.Count() != 4000 {
		t.Errorf("count = %d", h.Count())
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("name", "value")
	tbl.AddRow("alpha", "1")
	tbl.AddRow("a-much-longer-name", "23456")
	out := tbl.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") || !strings.Contains(lines[0], "value") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "----") {
		t.Errorf("separator = %q", lines[1])
	}
	// Columns align: "value" column should start at the same offset in all
	// rows.
	col := strings.Index(lines[0], "value")
	if lines[2][col:col+1] != "1" && lines[3][col:col+1] == "" {
		t.Errorf("misaligned table:\n%s", out)
	}
}

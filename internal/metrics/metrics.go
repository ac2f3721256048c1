// Package metrics provides what the paper's evaluation harness reports
// with: a latency histogram with percentiles and buckets, and the aligned
// text table the experiments print.
package metrics

import (
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// Histogram collects duration samples and reports summary statistics.
// Safe for concurrent use.
type Histogram struct {
	mu      sync.Mutex
	samples []float64 // milliseconds
	sorted  bool
}

// NewHistogram creates an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	h.mu.Lock()
	h.samples = append(h.samples, float64(d)/float64(time.Millisecond))
	h.sorted = false
	h.mu.Unlock()
}

// Count returns the number of samples.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
}

// Mean returns the average in milliseconds.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range h.samples {
		sum += s
	}
	return sum / float64(len(h.samples))
}

// Percentile returns the p-quantile (0 < p <= 1) in milliseconds using
// nearest-rank on the sorted samples.
func (h *Histogram) Percentile(p float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.samples)
	if n == 0 {
		return 0
	}
	h.sortLocked()
	rank := int(math.Ceil(p*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return h.samples[rank]
}

func (h *Histogram) sortLocked() {
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
}

// Buckets partitions samples into counts per boundary for histogram plots
// (Figure 8f). bounds are upper edges in milliseconds; the final bucket is
// open-ended.
func (h *Histogram) Buckets(bounds []float64) []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	counts := make([]int, len(bounds)+1)
	for _, s := range h.samples {
		placed := false
		for i, b := range bounds {
			if s <= b {
				counts[i]++
				placed = true
				break
			}
		}
		if !placed {
			counts[len(bounds)]++
		}
	}
	return counts
}

// Table renders an aligned text table for the experiment harness output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends one formatted row.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(widths) {
				for pad := len(c); pad < widths[i]; pad++ {
					sb.WriteByte(' ')
				}
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return sb.String()
}

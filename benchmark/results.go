package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricValue is one measured metric of one run.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is the size of the sample a percentile was taken from.
	Samples int `json:"samples,omitempty"`
	// PerWindow, when set, is each window's percentile in time order: the
	// value is their median and Samples the smallest window's sample. A
	// stall or a slow spell of the sandbox shows here when the median
	// hides it.
	PerWindow []float64 `json:"per_window,omitempty"`
	// Insufficient marks a percentile with fewer than ten samples beyond
	// it: the value is withheld (0).
	Insufficient bool `json:"insufficient,omitempty"`
}

// runResult is one run of one workload.
type runResult struct {
	Workload     string                 `json:"workload"`
	Seed         int64                  `json:"seed"`
	Trace        bool                   `json:"trace"`
	FixedSeconds float64                `json:"fixed_seconds"`
	PeakSeconds  float64                `json:"peak_seconds"`
	Attempted    int                    `json:"attempted"`
	Failed       int                    `json:"failed"`
	Metrics      map[string]metricValue `json:"metrics"`
}

// set records a plain metric under its declared unit.
func (r *runResult) set(name string, v float64) {
	d := metricByName(name)
	if d == nil {
		panic("benchmark: undeclared metric " + name) // a bug in the benchmark, not an input
	}
	r.Metrics[name] = metricValue{Value: v, Unit: d.Unit}
}

// metricSummary is a metric's spread over the repeats of one workload.
type metricSummary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// resultsFile is what the benchmark writes to out/results.json and what
// -validate-only and -compare read.
type resultsFile struct {
	Sessions int         `json:"sessions"`
	NumCPU   int         `json:"num_cpu"`
	Runs     []runResult `json:"runs"`
	// Summary is workload → metric → median and quartiles over the runs.
	Summary map[string]map[string]metricSummary `json:"summary"`
}

// summarize fills Summary from Runs. Withheld percentiles are left out of
// the sample.
func (f *resultsFile) summarize() {
	samples := map[string]map[string][]float64{}
	units := map[string]string{}
	for _, run := range f.Runs {
		if samples[run.Workload] == nil {
			samples[run.Workload] = map[string][]float64{}
		}
		for name, m := range run.Metrics {
			if m.Insufficient {
				continue
			}
			samples[run.Workload][name] = append(samples[run.Workload][name], m.Value)
			units[name] = m.Unit
		}
	}
	f.Summary = map[string]map[string]metricSummary{}
	for w, byMetric := range samples {
		f.Summary[w] = map[string]metricSummary{}
		for name, vals := range byMetric {
			q1, q3 := quartiles(vals)
			f.Summary[w][name] = metricSummary{Median: median(vals), Q1: q1, Q3: q3, N: len(vals), Unit: units[name]}
		}
	}
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printRun prints every metric of a run as `workload metric value unit`,
// in declaration order.
func printRun(r *runResult) {
	for i := range metricDefs {
		d := &metricDefs[i]
		m, ok := r.Metrics[d.Name]
		switch {
		case !ok:
			continue
		case m.Insufficient:
			fmt.Printf("%s %s - %s (n=%d: fewer than %d samples beyond the percentile)\n", r.Workload, d.Name, m.Unit, m.Samples, minBeyond)
		case len(m.PerWindow) > 0:
			fmt.Printf("%s %s %.6g %s (median of %d windows, n>=%d each)\n", r.Workload, d.Name, m.Value, m.Unit, len(m.PerWindow), m.Samples)
		case m.Samples > 0:
			fmt.Printf("%s %s %.6g %s (n=%d)\n", r.Workload, d.Name, m.Value, m.Unit, m.Samples)
		default:
			fmt.Printf("%s %s %.6g %s\n", r.Workload, d.Name, m.Value, m.Unit)
		}
	}
}

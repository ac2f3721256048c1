package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"regexp"
)

// declaration is BENCHMARK.json, the contract the driver reads.
type declaration struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []declWorkload `json:"workloads"`
	EndToEnd   []declMetric   `json:"end_to_end"`
	PerLayer   []declMetric   `json:"per_layer"`
}

type declWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type declMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readDeclaration(path string) (*declaration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

var (
	legalName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	legalUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validate checks a results file against the declaration: every declared
// metric present on every workload that reports it, legal names and units,
// no NaN or negative value, the ten-samples-beyond rule, and gated metrics
// never zero or withheld. It reports every violation it finds. Whether the
// fixed phases were valid is fixedPhaseValidity's question.
func validate(decl *declaration, f *resultsFile) error {
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }

	declaredWorkload := map[string]bool{}
	for _, w := range decl.Workloads {
		declaredWorkload[w.Name] = true
	}
	declared := append(append([]declMetric(nil), decl.EndToEnd...), decl.PerLayer...)
	if len(f.Runs) == 0 {
		fail("no runs")
	}
	for i := range f.Runs {
		run := &f.Runs[i]
		at := fmt.Sprintf("run %d (%s)", i, run.Workload)
		if !declaredWorkload[run.Workload] {
			fail("%s: workload not declared in BENCHMARK.json", at)
			continue
		}

		for _, dm := range declared {
			def := metricByName(dm.Name)
			if def == nil {
				fail("BENCHMARK.json declares %s, which the benchmark does not know", dm.Name)
				continue
			}
			if !def.declaredOn(run.Workload) || (def.Traced && !run.Trace) {
				continue
			}
			if _, ok := run.Metrics[dm.Name]; !ok {
				fail("%s: %s missing", at, dm.Name)
			}
		}

		for name, m := range run.Metrics {
			def := metricByName(name)
			switch {
			case !legalName.MatchString(name):
				fail("%s: illegal metric name %q", at, name)
			case def == nil:
				fail("%s: undeclared metric %s", at, name)
			case !legalUnit.MatchString(m.Unit) || m.Unit != def.Unit:
				fail("%s: %s has unit %q, declared %q", at, name, m.Unit, def.Unit)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0:
				fail("%s: %s = %v", at, name, m.Value)
			case def.Percentile > 0 && (m.Samples <= 0 || m.Insufficient != (beyond(m.Samples, def.Percentile) < minBeyond)):
				fail("%s: %s breaks the sample rule: n=%d, insufficient=%v", at, name, m.Samples, m.Insufficient)
			case def.Gate > 0 && (m.Insufficient || m.Value == 0):
				fail("%s: gated metric %s is zero or withheld", at, name)
			}
		}
	}
	return errors.Join(errs...)
}

// errInvalidPhase marks a run whose fixed phase is invalid, not slow: the
// generator ran late or did not get through its schedule, so the run's
// numbers say more about the load generator than about the server.
var errInvalidPhase = errors.New("fixed phase invalid")

// fixedPhaseInvalid returns an error wrapping errInvalidPhase when the
// run's generator metrics break the validity limits.
func (r *runResult) fixedPhaseInvalid() error {
	var errs []error
	if m, ok := r.Metrics["load.lateness_p95_ms"]; ok && m.Value > ms(maxLatenessP95) {
		errs = append(errs, fmt.Errorf("%w: generator lateness p95 %.3f ms > %.0f ms", errInvalidPhase, m.Value, ms(maxLatenessP95)))
	}
	if m, ok := r.Metrics["load.completed_share"]; ok && m.Value < minCompleteShare {
		errs = append(errs, fmt.Errorf("%w: only %.2f%% of scheduled ops completed", errInvalidPhase, 100*m.Value))
	}
	return errors.Join(errs...)
}

// fixedPhaseValidity reports the runs of a results file whose fixed phase
// is invalid.
func fixedPhaseValidity(f *resultsFile) error {
	var errs []error
	for i := range f.Runs {
		if err := f.Runs[i].fixedPhaseInvalid(); err != nil {
			errs = append(errs, fmt.Errorf("run %d (%s): %w", i, f.Runs[i].Workload, err))
		}
	}
	return errors.Join(errs...)
}

// Command benchmark is Quaestor's process-level load benchmark: it builds
// cmd/quaestor-server, and for each workload spawns a fresh server process
// on a free loopback port, loads the dataset over HTTP, warms up, runs a
// fixed-rate open-loop phase and a closed-loop peak phase through the SDK,
// checks every answer, and reports end-to-end metrics plus per-layer
// metrics read from outside the server. With -trace 1 it also replays the
// schedule in-process under spans. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run() error {
	workloadName := flag.String("workload", "", "run only this workload and print the result as one JSON object on the last line (default: all workloads)")
	seed := flag.Int64("seed", 1, "seed of the dataset and the whole op schedule")
	seconds := flag.Float64("seconds", 0, "measured seconds per run: 3/4 fixed phase, 1/4 peak phase, warm-up 1/8 on top (default: run_seconds of BENCHMARK.json, what the driver passes)")
	quick := flag.Bool("quick", false, "shorthand for -seconds 8")
	trace := flag.Int("trace", 0, "1: set up once and add the in-process traced replay (span file, profiles, traced per-layer metrics)")
	repeats := flag.Int("repeats", 1, "runs per workload; results.json carries every run plus median and quartiles")
	validateOnly := flag.String("validate-only", "", "check this results file against BENCHMARK.json and exit")
	compare := flag.Bool("compare", false, "compare two results files: -compare a.json b.json")
	flag.Parse()

	// -compare and -validate-only read the files named on the command
	// line, relative to where the user stands; nothing is run.
	if *compare {
		if flag.NArg() != 2 {
			return errors.New("-compare needs two results files")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	decl, err := readDeclaration(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if *validateOnly != "" {
		f, err := readResults(*validateOnly)
		if err != nil {
			return err
		}
		return errors.Join(validate(decl, f), fixedPhaseValidity(f))
	}

	cfg := &runConfig{root: root, seed: *seed, trace: *trace == 1}
	switch {
	case *quick:
		*seconds = 8
	case *seconds <= 0:
		*seconds = float64(decl.RunSeconds)
	}
	cfg.warm, cfg.fixed, cfg.peak = phases(*seconds)
	selected := workloads
	if *workloadName != "" {
		spec := workloadByName(*workloadName)
		if spec == nil {
			return fmt.Errorf("unknown workload %q", *workloadName)
		}
		selected = []workloadSpec{*spec}
	}

	if err := os.MkdirAll(cfg.scratch(), 0o755); err != nil {
		return err
	}
	if cfg.serverBin, err = buildServer(root, cfg.scratch()); err != nil {
		return err
	}

	file := &resultsFile{Sessions: sessions(), NumCPU: runtime.NumCPU()}
	for i := range selected {
		for r := 0; r < *repeats; r++ {
			res, err := measure(cfg, &selected[i])
			if err != nil {
				return fmt.Errorf("%s: %w", selected[i].Name, err)
			}
			printRun(res)
			file.Runs = append(file.Runs, *res)
		}
	}
	file.summarize()

	outDir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if err := writeJSONFile(filepath.Join(outDir, "results.json"), file); err != nil {
		return err
	}
	if err := errors.Join(validate(decl, file), fixedPhaseValidity(file)); err != nil {
		return err
	}
	if *workloadName == "" {
		return nil
	}
	return printDriverLine(decl, &file.Runs[len(file.Runs)-1])
}

// runLimit is how long one call of measure may take: the driver allows a
// run 180 s, of which the builds before the measurement take up to ten or so
// on a warm build cache (a checkout's first run, which builds cold, has
// 900 s).
const runLimit = 160 * time.Second

// attemptAllowance is the most one attempt takes from set-up to result: the
// phases, the grace after the open loop, and set-ups, recovery and counter
// reads; a traced run replays its schedule after a valid phase.
func (c *runConfig) attemptAllowance() time.Duration {
	d := c.warm + c.fixed + c.peak + openLoopGrace + 15*time.Second
	if c.trace {
		d += 25 * time.Second
	}
	return d
}

// measure runs the workload until its fixed phase is valid. The sandbox's
// host has slow spells of two minutes and more in which the timer wakes the
// sessions late (its steal time shows them); such a phase is not a sample,
// whoever asked for the run, so an attempt starts only on a calm host and an
// invalid phase is measured again from a fresh set-up. When the host is not
// calm, or the phase not valid, by the time one more attempt would no longer
// end within runLimit, the run fails.
func measure(cfg *runConfig, spec *workloadSpec) (*runResult, error) {
	lastStart := time.Now().Add(runLimit - cfg.attemptAllowance())
	for attempt := 1; ; attempt++ {
		if err := awaitCalmHost(spec.Name, lastStart); err != nil {
			return nil, err
		}
		res, err := runWorkload(cfg, spec)
		if !errors.Is(err, errInvalidPhase) || time.Now().After(lastStart) {
			return res, err
		}
		fmt.Fprintf(os.Stderr, "%s: %v; measuring again (attempt %d)\n", spec.Name, err, attempt+1)
	}
}

// calmProbe is how long hostLateness samples the host.
const calmProbe = 500 * time.Millisecond

// hostLateness has as many threads as the run has sessions sleep a
// millisecond at a time for calmProbe, the way idle sessions wait for their
// next op, and returns the p95 of how late they woke, in ms. (A single
// sleeper says less: the kernel wakes it on whichever core is free.)
func hostLateness() float64 {
	lates := make([][]float64, sessions())
	var wg sync.WaitGroup
	for i := range lates {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for end := time.Now().Add(calmProbe); time.Now().Before(end); {
				due := time.Now().Add(time.Millisecond)
				sleepUntil(due)
				lates[i] = append(lates[i], ms(time.Since(due)))
			}
		}()
	}
	wg.Wait()
	p95, _ := percentile(sortedCopy(slices.Concat(lates...)), 0.95)
	return p95
}

// awaitCalmHost returns once idle threads wake within the lateness limit
// of a valid phase, which a loaded session cannot beat. If the host has not
// got there by the deadline, no phase started now would be valid.
func awaitCalmHost(name string, deadline time.Time) error {
	began := time.Now()
	for waiting := false; ; waiting = true {
		p95 := hostLateness()
		if p95 <= ms(maxLatenessP95) {
			if waiting {
				fmt.Fprintf(os.Stderr, "%s: waited %.0f s for the host (idle lateness p95 now %.2f ms)\n", name, time.Since(began).Seconds(), p95)
			}
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: after %.0f s the host still wakes idle threads %.2f ms late at p95", errInvalidPhase, time.Since(began).Seconds(), p95)
		}
		if !waiting {
			fmt.Fprintf(os.Stderr, "%s: the host wakes idle threads %.2f ms late at p95; waiting for it to calm down\n", name, p95)
		}
	}
}

// printDriverLine prints the run as the single JSON object the driver
// reads from the last line of standard output: every end_to_end metric
// without -trace, every per_layer metric with it. A per-layer metric the
// workload does not report (an op class it does not send, a percentile
// with too few samples) reads 0.
func printDriverLine(decl *declaration, r *runResult) error {
	type driverMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	names := decl.EndToEnd
	if r.Trace {
		names = decl.PerLayer
	}
	metrics := map[string]driverMetric{}
	for _, m := range names {
		metrics[m.Name] = driverMetric{Value: r.Metrics[m.Name].Value, Unit: m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   true, // a wrong answer is a hard-check failure: no line, exit status 1
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

package main

import (
	"bytes"
	"errors"
	"flag"
	"math"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"quaestor/internal/client"
	"quaestor/internal/workload"
)

func TestScheduleIsDeterministic(t *testing.T) {
	for i := range workloads {
		spec := &workloads[i]
		a := buildSchedule(spec, 7, time.Second, 50*time.Millisecond, 2).fingerprint()
		b := buildSchedule(spec, 7, time.Second, 50*time.Millisecond, 2).fingerprint()
		c := buildSchedule(spec, 8, time.Second, 50*time.Millisecond, 2).fingerprint()
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed gave different schedules", spec.Name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds gave the same schedule", spec.Name)
		}
	}
}

func TestScheduleFollowsTheSpec(t *testing.T) {
	spec := workloadByName("durable_write_heavy")
	s := buildSchedule(spec, 1, 10*time.Second, 0, 2)
	if got, want := float64(len(s.Timed)), spec.Rate*10; math.Abs(got-want) > 0.1*want {
		t.Errorf("scheduled %v ops in 10 s at %v ops/s", got, spec.Rate)
	}
	for i, op := range s.Timed {
		if op.Type == workload.OpRead || op.Type == workload.OpDelete {
			t.Fatalf("op %d is a %s; the mix has none", i, op.Type)
		}
		if op.Session != i%2 {
			t.Fatalf("op %d dealt to session %d", i, op.Session)
		}
		if i > 0 && op.Due < s.Timed[i-1].Due {
			t.Fatalf("op %d due before op %d", i, i-1)
		}
	}
}

func TestPercentileSampleRule(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 0.50, 50, true},
		{100, 0.95, 95, false}, // 5 samples beyond
		{199, 0.95, 190, false},
		{200, 0.95, 190, true}, // exactly 10 beyond
		{999, 0.99, 990, false},
		{1000, 0.99, 990, true},
		{19, 0.50, 10, false},
		{20, 0.50, 10, true},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of nothing reported")
	}
}

// Values from Python's statistics.quantiles(v, n=4), which the driver uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{1, 2, 4, 8, 16, 32, 64}, 2, 32},
	} {
		q1, q3 := quartiles(tc.v)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.v, q1, q3, tc.q1, tc.q3)
		}
	}
}

func testShadow() *shadow {
	ds := workload.GenerateDataset(&workload.DatasetConfig{Tables: 1, DocsPerTable: 50, QueriesPerTable: 5, MeanResultSize: 10, Seed: 1})
	return newShadow(ds, 1500*time.Millisecond)
}

func TestShadowJudgesRecordReads(t *testing.T) {
	const table, id = "table00", "doc000001"
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	sh := testShadow()
	// Session A writes v2, then session B writes v3.
	sh.ackWrite(table, id, 2, []string{"a"}, sec(0.9), sec(1.0))
	sh.ackWrite(table, id, 3, []string{"b"}, sec(1.9), sec(2.0))

	for _, tc := range []struct {
		name    string
		version int64
		issued  float64
		want    verdict
	}{
		// The seed's SDK keeps answering A's reads with its own v2 forever.
		{"own-write buffer long after B's ack", 2, 5.0, staleBeyond},
		{"v2 just after B's ack", 2, 2.5, staleWithin},
		{"v2 while B's write is in flight", 2, 1.95, fresh},
		{"v3", 3, 5.0, fresh},
		{"v1 long after both", 1, 5.0, staleBeyond},
		{"v1 before anything was acked", 1, 0.5, fresh},
	} {
		if got := sh.judgeRead(table, id, tc.version, sec(tc.issued)); got != tc.want {
			t.Errorf("%s: verdict %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestShadowJudgesQueries(t *testing.T) {
	const table = "table00"
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	sh := testShadow()
	var members []string
	for id := range sh.members[table]["tag00000"] {
		members = append(members, id)
	}
	if len(members) == 0 {
		t.Fatal("dataset has no member of tag00000")
	}
	outsider := ""
	for i := 0; outsider == "" && i < 50; i++ {
		if id := workload.DocID(i); !slices.Contains(sh.docs[recordKey(table, id)].initial, "tag00000") {
			outsider = id
		}
	}
	if outsider == "" {
		t.Fatal("every document carries tag00000")
	}

	if got := sh.judgeQuery(table, "tag00000", members, sec(5), sec(5.001)); got != fresh {
		t.Errorf("exact initial membership judged %d", got)
	}
	if got := sh.judgeQuery(table, "tag00000", members[1:], sec(5), sec(5.001)); got != staleBeyond {
		t.Errorf("missing a constant member judged %d", got)
	}
	if got := sh.judgeQuery(table, "tag00000", append([]string{outsider}, members...), sec(5), sec(5.001)); got != staleBeyond {
		t.Errorf("containing a constant non-member judged %d", got)
	}

	// The outsider joins the tag at t=10 (acked 10.1).
	sh.ackWrite(table, outsider, 2, []string{"tag00000"}, sec(10), sec(10.1))
	withOutsider := append([]string{outsider}, members...)
	for _, tc := range []struct {
		name   string
		ids    []string
		issued float64
		want   verdict
	}{
		{"old result while the write is in flight", members, 10.05, fresh},
		{"old result within the bound", members, 10.5, staleWithin},
		{"old result beyond the bound", members, 12, staleBeyond},
		{"new result", withOutsider, 12, fresh},
		{"new result right after the ack", withOutsider, 10.2, fresh},
	} {
		if got := sh.judgeQuery(table, "tag00000", tc.ids, sec(tc.issued), sec(tc.issued+0.001)); got != tc.want {
			t.Errorf("%s: verdict %d, want %d", tc.name, got, tc.want)
		}
	}
}

var update = flag.Bool("update", false, "rewrite the workloads and metric lists of ../BENCHMARK.json from the code's tables")

// BENCHMARK.json is the contract the driver reads; the code's tables are
// what actually runs. They must say the same thing. `go test -run
// TestDeclarationMatchesCode -update` regenerates the file's lists.
func TestDeclarationMatchesCode(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	decl, err := readDeclaration(path)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		decl.Workloads, decl.EndToEnd, decl.PerLayer = nil, nil, nil
		for _, w := range workloads {
			decl.Workloads = append(decl.Workloads, declWorkload{Name: w.Name, Why: w.Why})
		}
		for _, d := range metricDefs {
			dm := declMetric{Name: d.Name, Unit: d.Unit, Better: d.Better}
			if d.Gate > 0 {
				dm.Bound = d.Gate
				decl.EndToEnd = append(decl.EndToEnd, dm)
			} else {
				decl.PerLayer = append(decl.PerLayer, dm)
			}
		}
		if err := writeJSONFile(path, decl); err != nil {
			t.Fatal(err)
		}
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the code %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	var gated, layered []declMetric
	for _, d := range metricDefs {
		if !legalName.MatchString(d.Name) || !legalUnit.MatchString(d.Unit) {
			t.Errorf("metric %q with unit %q is outside the contract's alphabet", d.Name, d.Unit)
		}
		dm := declMetric{Name: d.Name, Unit: d.Unit, Better: d.Better}
		if d.Gate > 0 {
			dm.Bound = d.Gate
			gated = append(gated, dm)
		} else {
			layered = append(layered, dm)
		}
	}
	same := func(kind string, got, want []declMetric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json says %+v, the code %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", decl.EndToEnd, gated)
	same("per_layer", decl.PerLayer, layered)

	setup := metricByName("setup_s")
	for _, d := range gated {
		if d.Bound <= 0 || d.Bound > 0.25 || d.Bound > setup.Gate {
			t.Errorf("%s: bound %v must be in (0, 0.25] and no larger than setup_s's", d.Name, d.Bound)
		}
	}
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", decl.RunSeconds)
	}
}

// One second of every workload, in this process: the SDK sessions talk to
// an in-memory (or temp-dir durable) server through a handler transport.
// It exercises the same schedule, exec, hard checks, shadow model and
// metric assembly as a real run, without spawning anything.
func TestSmokeInProcess(t *testing.T) {
	for i := range workloads {
		// The smoke is about the mechanics, not the rate: slow enough that
		// a race-detector build on a busy box still keeps up.
		slow := workloads[i]
		slow.Rate = 150
		spec := &slow
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			const nSess = 2
			sched := buildSchedule(spec, 1, time.Second, 100*time.Millisecond, nSess)
			in, err := newInstance(spec, sched.Dataset, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer in.close()
			sess := make([]*session, nSess)
			for i := range sess {
				if sess[i], err = newSession(spec, "http://quaestor", client.NewHandlerTransport(in.srv.Handler())); err != nil {
					t.Fatal(err)
				}
			}
			sh := newShadow(sched.Dataset, refreshInterval+staleSlack)
			epoch := time.Now()
			fixed, scheduled, err := runOpenLoop(sched.Timed, sess, sh, epoch, 0, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			peak, err := runClosedLoop(sched.Peak[:200], sess, sh, epoch, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if fixed.attempted != scheduled || scheduled != len(sched.Timed) {
				t.Errorf("completed %d of %d scheduled ops", fixed.attempted, scheduled)
			}
			if peak.attempted != 200 {
				t.Errorf("peak phase ran %d of 200 ops", peak.attempted)
			}
			if fixed.failed+peak.failed != 0 {
				t.Errorf("%d ops failed", fixed.failed+peak.failed)
			}
			if spec.Cached && fixed.local == 0 {
				t.Error("no op was answered from the SDK cache")
			}
			if !spec.Cached && fixed.queryLocal != 0 {
				t.Error("a query was answered locally with the cache off")
			}
			for _, class := range opClasses {
				want := classWorkloads[class] == nil || metricByName("load.read_p50_ms").declaredOn(spec.Name)
				if got := len(fixed.latency[class]) > 0; got != want {
					t.Errorf("%s ops recorded: %v, want %v", class, got, want)
				}
			}
		})
	}
}

func TestValidateCatchesBrokenResults(t *testing.T) {
	decl, err := readDeclaration(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	good := func() *resultsFile {
		run := runResult{Workload: "durable_write_heavy", Metrics: map[string]metricValue{}}
		for _, d := range metricDefs {
			if d.Traced || !d.declaredOn(run.Workload) {
				continue
			}
			m := metricValue{Value: 1, Unit: d.Unit}
			if d.Percentile > 0 {
				m.Samples = 5000
			}
			run.Metrics[d.Name] = m
		}
		return &resultsFile{Runs: []runResult{run}}
	}
	check := func(f *resultsFile) error { return errors.Join(validate(decl, f), fixedPhaseValidity(f)) }
	if err := check(good()); err != nil {
		t.Fatalf("a complete run was rejected: %v", err)
	}
	for name, breakIt := range map[string]func(*runResult){
		"missing metric":       func(r *runResult) { delete(r.Metrics, "load.recovery_s") },
		"negative value":       func(r *runResult) { r.Metrics["load.peak_ops_per_s"] = metricValue{Value: -1, Unit: "ops/s"} },
		"NaN":                  func(r *runResult) { r.Metrics["wal.mean_batch"] = metricValue{Value: math.NaN(), Unit: "count"} },
		"wrong unit":           func(r *runResult) { r.Metrics["setup_s"] = metricValue{Value: 1, Unit: "ms"} },
		"unknown metric":       func(r *runResult) { r.Metrics["made.up"] = metricValue{Value: 1, Unit: "ms"} },
		"illegal name":         func(r *runResult) { r.Metrics["no spaces"] = metricValue{Value: 1, Unit: "ms"} },
		"too few samples":      func(r *runResult) { r.Metrics["load.query_p95_ms"] = metricValue{Value: 1, Unit: "ms", Samples: 100} },
		"zero gated metric":    func(r *runResult) { r.Metrics["server_cpu_ms_per_op"] = metricValue{Value: 0, Unit: "ms"} },
		"late generator":       func(r *runResult) { r.Metrics["load.lateness_p95_ms"] = metricValue{Value: 1.5, Unit: "ms"} },
		"incomplete phase":     func(r *runResult) { r.Metrics["load.completed_share"] = metricValue{Value: 0.9, Unit: "ratio"} },
		"undeclared workload":  func(r *runResult) { r.Workload = "nope" },
		"traced metric absent": func(r *runResult) { r.Trace = true },
	} {
		f := good()
		breakIt(&f.Runs[0])
		if err := check(f); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := &metricDef{Name: "x_ms", Better: "lower", Bound: 0.10}
	higher := &metricDef{Name: "x_per_s", Better: "higher", Bound: 0.10}
	share := &metricDef{Name: "x_share", Better: "lower", AbsBound: 0.001}
	sum := func(median, q1, q3 float64) metricSummary { return metricSummary{Median: median, Q1: q1, Q3: q3, N: 3} }
	for _, tc := range []struct {
		name string
		d    *metricDef
		a, b metricSummary
		want string
	}{
		{"slower beyond the bound", lower, sum(10, 9.9, 10.1), sum(11.5, 11, 12), "worse"},
		{"slower within the bound", lower, sum(10, 9.9, 10.1), sum(10.5, 10, 11), "within"},
		{"faster than a's spread", lower, sum(10, 9.9, 10.1), sum(9, 9, 9), "better"},
		{"faster but inside a's spread", lower, sum(10, 9.6, 10.4), sum(9.5, 9, 10), "within"},
		{"a too noisy to tell", lower, sum(10, 9, 11), sum(20, 20, 20), "unresolved"},
		{"throughput drop", higher, sum(1000, 990, 1010), sum(850, 850, 850), "worse"},
		{"throughput gain", higher, sum(1000, 990, 1010), sum(1100, 1100, 1100), "better"},
		{"share from zero", share, sum(0, 0, 0), sum(0.002, 0.002, 0.002), "worse"},
		{"share within the absolute bound", share, sum(0.0130, 0.0128, 0.0132), sum(0.0135, 0.013, 0.014), "within"},
	} {
		if got, _, _ := judge(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"quaestor/internal/client"
	"quaestor/internal/server"
	"quaestor/internal/workload"
)

// runConfig is everything about a run that is not the workload.
type runConfig struct {
	root      string // checkout root
	serverBin string
	seed      int64
	warm      time.Duration
	fixed     time.Duration
	peak      time.Duration
	trace     bool
}

// scratch is where a run keeps binaries and data directories.
func (c *runConfig) scratch() string { return filepath.Join(c.root, ".bench_build") }

// phases splits a run's measured seconds: three quarters open loop, one
// quarter closed loop, preceded by a warm-up an eighth as long (at least
// a second and at most five).
func phases(seconds float64) (warm, fixed, peak time.Duration) {
	total := time.Duration(seconds * float64(time.Second))
	warm = min(max(total/8, time.Second), 5*time.Second)
	return warm, total * 3 / 4, total / 4
}

// setupRepeats is how often a timed run sets up to report the median
// setup_s; the last instance serves the run.
const setupRepeats = 5

// verifiers is the number of connections acked writes are read back over
// after a recovery.
const verifiers = 8

// setUp spawns a fresh server and loads the dataset over HTTP. It returns
// the running server, its data directory (empty for in-memory servers)
// and the time from spawn to loaded, indexed and answering.
func setUp(cfg *runConfig, spec *workloadSpec, ds *workload.Dataset, plan *loadPlan) (*serverProc, string, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, "", 0, err
	}
	dataDir := ""
	if spec.Durable {
		if dataDir, err = os.MkdirTemp(cfg.scratch(), "data-"); err != nil {
			return nil, "", 0, err
		}
	}
	start := time.Now()
	proc, err := spawn(cfg.serverBin, serverArgs(spec, ds, port, dataDir), port)
	if err != nil {
		return nil, dataDir, 0, err
	}
	if err := plan.send(proc.base); err != nil {
		proc.kill()
		return nil, dataDir, 0, err
	}
	return proc, dataDir, time.Since(start), nil
}

// loadPlan is the dataset as ready-to-send requests, marshalled once per
// run so that repeated set-ups measure the server, not the encoder.
type loadPlan struct {
	reqs   []loadReq
	status int // the answer every request must get
	conns  int
}

type loadReq struct {
	path string
	body []byte
}

// newLoadPlan picks the load path by what the server can absorb. An
// in-memory server takes transactions of loadBatch puts: one exchange per
// batch instead of one per document. Transactions commit one at a time and
// a durable server fsyncs every write in them in turn, so there the
// documents go as single inserts over many connections, which the WAL
// group-commits. The tag indexes exist from server start (-indexes) and
// are maintained as documents arrive on either path.
func newLoadPlan(spec *workloadSpec, ds *workload.Dataset) (*loadPlan, error) {
	const loadBatch = 100
	plan := &loadPlan{status: http.StatusOK, conns: 4}
	if spec.Durable {
		plan = &loadPlan{status: http.StatusCreated, conns: 64}
	}
	for _, t := range ds.Tables {
		docs := ds.Docs[t]
		if spec.Durable {
			for _, d := range docs {
				body, err := json.Marshal(d)
				if err != nil {
					return nil, err
				}
				plan.reqs = append(plan.reqs, loadReq{"/v1/db/" + t, body})
			}
			continue
		}
		for i := 0; i < len(docs); i += loadBatch {
			var txn server.TxnRequest
			for _, d := range docs[i:min(i+loadBatch, len(docs))] {
				txn.Writes = append(txn.Writes, server.TxnWriteOp{Op: "put", Table: t, ID: d.ID, Doc: d})
			}
			body, err := json.Marshal(txn)
			if err != nil {
				return nil, err
			}
			plan.reqs = append(plan.reqs, loadReq{"/v1/transaction", body})
		}
	}
	return plan, nil
}

// send posts every request of the plan to the server at base.
func (p *loadPlan) send(base string) error {
	tr := &http.Transport{MaxIdleConnsPerHost: p.conns}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	errs := make([]error, p.conns)
	var wg sync.WaitGroup
	for c := 0; c < p.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(p.reqs); i += p.conns {
				resp, err := hc.Post(base+p.reqs[i].path, "application/json", bytes.NewReader(p.reqs[i].body))
				if err != nil {
					errs[c] = fmt.Errorf("loading the dataset: %w", err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
				resp.Body.Close()
				if resp.StatusCode != p.status {
					errs[c] = fmt.Errorf("loading the dataset: POST %s: status %d", p.reqs[i].path, resp.StatusCode)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// timedSample is one op's latency with the time that places it in a
// window of its phase: its due time in the fixed phase, its completion
// time in the peak phase (both as offsets from the run's start).
type timedSample struct {
	at time.Duration
	ms float64
}

// recorder accumulates one session's accounting for one phase.
type recorder struct {
	latency   map[string][]timedSample // from due time, by op class
	lateness  []timedSample            // between due time and send, when the session was idle
	attempted int
	failed    int
	local     int
	judged    int
	nWithin   int
	nBeyond   int
	// queryLocal counts queries answered without a network exchange; it
	// separates record cache hits from query cache hits in client.Stats.
	queryLocal int
}

func newRecorder() *recorder { return &recorder{latency: map[string][]timedSample{}} }

func (r *recorder) note(out *outcome) {
	r.attempted++
	if out.failed {
		r.failed++
	}
	if out.local {
		r.local++
		if out.class == "query" {
			r.queryLocal++
		}
	}
	if out.judged {
		r.judged++
		switch out.verdict {
		case staleWithin:
			r.nWithin++
		case staleBeyond:
			r.nBeyond++
		}
	}
}

func (r *recorder) merge(o *recorder) {
	for class, v := range o.latency {
		r.latency[class] = append(r.latency[class], v...)
	}
	r.lateness = append(r.lateness, o.lateness...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.local += o.local
	r.judged += o.judged
	r.nWithin += o.nWithin
	r.nBeyond += o.nBeyond
	r.queryLocal += o.queryLocal
}

// phaseWindows is how many equal windows each measured phase is cut into.
// Latency percentiles and peak throughput are taken per window and
// reported as the median over the windows, so that one stall of the
// sandbox (they reach hundreds of milliseconds) spoils one window, not the
// run's number.
const phaseWindows = 5

// timedRun is everything the process-level phases of one run measured.
type timedRun struct {
	warm, fixed, peak time.Duration
	fixedRec, peakRec *recorder
	scheduled         int           // ops scheduled in the fixed phase
	peakStart         time.Duration // offset of the peak phase from the run's start
	rssMiB            float64
	before, after     snapshot // counters around the fixed phase
	probe             ebfProbe
}

// snapshot is every counter the benchmark reads from outside at a phase
// boundary.
type snapshot struct {
	srv       server.StatsResponse
	cpu       time.Duration
	cl        client.Stats // summed over the sessions
	sent      uint64       // exchanges the sessions' transports saw
	ttlCount  uint64
	ttlSumSec uint64
}

func takeSnapshot(proc *serverProc, sess []*session) (snapshot, error) {
	var snap snapshot
	if err := getJSON(proc.base+"/v1/stats", &snap.srv); err != nil {
		return snap, err
	}
	cpu, err := cpuTime(proc.pid())
	if err != nil {
		return snap, err
	}
	snap.cpu = cpu
	for _, s := range sess {
		st := s.cl.Stats()
		snap.cl.Reads += st.Reads
		snap.cl.Queries += st.Queries
		snap.cl.CacheHits += st.CacheHits
		snap.cl.NetworkRequests += st.NetworkRequests
		snap.cl.Revalidations += st.Revalidations
		snap.cl.EBFRefreshes += st.EBFRefreshes
		snap.cl.NotModified += st.NotModified
		snap.cl.ReadsByTier.ClientCache += st.ReadsByTier.ClientCache
		snap.sent += s.rt.sent.Load()
		snap.ttlCount += s.rt.ttlCount.Load()
		snap.ttlSumSec += s.rt.ttlSumSec.Load()
	}
	return snap, nil
}

// runWorkload performs one run: set-up, warm-up, fixed open-loop phase,
// (durable workloads) crash and recovery, closed-loop peak phase; with
// cfg.trace also the in-process traced replay.
func runWorkload(cfg *runConfig, spec *workloadSpec) (*runResult, error) {
	nSess := sessions()
	sched := buildSchedule(spec, cfg.seed, cfg.warm+cfg.fixed, cfg.peak, nSess)
	res := &runResult{
		Workload: spec.Name, Seed: cfg.seed, Trace: cfg.trace,
		FixedSeconds: cfg.fixed.Seconds(), PeakSeconds: cfg.peak.Seconds(),
		Metrics: map[string]metricValue{},
	}

	// Set-up, several times over so that setup_s is a median; the traced
	// run has a replay to fit in and sets up once.
	repeats := setupRepeats
	if cfg.trace {
		repeats = 1
	}
	plan, err := newLoadPlan(spec, sched.Dataset)
	if err != nil {
		return nil, err
	}
	var proc *serverProc
	var dataDir string
	var setupTimes []float64
	cleanup := func() {
		if proc != nil {
			proc.kill()
		}
		if dataDir != "" {
			_ = os.RemoveAll(dataDir) // scratch under .bench_build
		}
	}
	defer cleanup()
	for i := 0; i < repeats; i++ {
		cleanup()
		var took time.Duration
		var err error
		if proc, dataDir, took, err = setUp(cfg, spec, sched.Dataset, plan); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, took.Seconds())
	}
	res.set("setup_s", median(setupTimes))

	sess := make([]*session, nSess)
	for i := range sess {
		s, err := newSession(spec, proc.base, nil)
		if err != nil {
			return nil, err
		}
		defer s.closeIdle()
		sess[i] = s
	}
	sh := newShadow(sched.Dataset, refreshInterval+staleSlack)

	// Warm-up and fixed phase: one open-loop schedule; only ops due after
	// the warm-up are recorded, and the counters are read when it ends.
	tr := timedRun{warm: cfg.warm, fixed: cfg.fixed, peak: cfg.peak}
	epoch := time.Now()
	var watchErr error
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		time.Sleep(time.Until(epoch.Add(cfg.warm)))
		tr.before, watchErr = takeSnapshot(proc, sess)
	}()
	tr.fixedRec, tr.scheduled, err = runOpenLoop(sched.Timed, sess, sh, epoch, cfg.warm, cfg.warm+cfg.fixed)
	watch.Wait()
	if err != nil {
		return nil, err
	}
	if watchErr != nil {
		return nil, fmt.Errorf("reading counters: %w", watchErr)
	}
	if tr.after, err = takeSnapshot(proc, sess); err != nil {
		return nil, fmt.Errorf("reading counters: %w", err)
	}
	if tr.probe, err = probeEBF(proc.base); err != nil {
		return nil, fmt.Errorf("probing the EBF: %w", err)
	}

	if spec.Durable {
		if err := crashAndRecover(proc, sched, sh, res); err != nil {
			return nil, err
		}
		// The sessions' connections died with the old process; without this
		// a write could be sent on one and fail instead of reconnecting.
		for _, s := range sess {
			s.closeIdle()
		}
	}

	tr.peakStart = time.Since(epoch)
	if tr.peakRec, err = runClosedLoop(sched.Peak, sess, sh, epoch, cfg.peak); err != nil {
		return nil, err
	}
	if tr.rssMiB, err = peakRSS(proc.pid()); err != nil {
		return nil, err
	}

	res.Attempted = tr.fixedRec.attempted + tr.peakRec.attempted
	res.Failed = tr.fixedRec.failed + tr.peakRec.failed
	fillTimedMetrics(res, &tr)
	warnLimits(spec.Name, tr.fixedRec)
	if err := res.fixedPhaseInvalid(); err != nil {
		return nil, err
	}

	if cfg.trace {
		if err := tracedReplay(cfg, spec, sched, res); err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
	}
	return res, nil
}

// openLoopGrace is how long past the end of the schedule a session keeps
// sending before the remaining ops count as not completed.
const openLoopGrace = 2 * time.Second

// runOpenLoop sends ops at their due times, each session walking its own
// share of the schedule, and records the ops due at or after recordFrom.
// It returns the merged record and how many recorded ops were scheduled.
func runOpenLoop(ops []schedOp, sess []*session, sh *shadow, epoch time.Time, recordFrom, end time.Duration) (*recorder, int, error) {
	perSession := make([][]*schedOp, len(sess))
	scheduled := 0
	for i := range ops {
		op := &ops[i]
		perSession[op.Session] = append(perSession[op.Session], op)
		if op.Due >= recordFrom {
			scheduled++
		}
	}
	hardStop := epoch.Add(end + openLoopGrace)
	recs := make([]*recorder, len(sess))
	errs := make([]error, len(sess))
	var wg sync.WaitGroup
	for i, s := range sess {
		wg.Add(1)
		go func(i int, s *session) {
			defer wg.Done()
			rec := newRecorder()
			recs[i] = rec
			for _, op := range perSession[i] {
				// Generator lateness is how late the timer woke an idle
				// session. A session still busy with its previous op is
				// backlog: that wait is in the op's latency, not here.
				due := epoch.Add(op.Due)
				idle := time.Until(due)
				sleepUntil(due)
				start := time.Now()
				if start.After(hardStop) {
					return
				}
				out, err := s.exec(&op.Op, sh, epoch)
				if err != nil {
					errs[i] = err
					return
				}
				if op.Due < recordFrom {
					continue
				}
				rec.note(&out)
				if idle > 0 {
					rec.lateness = append(rec.lateness, timedSample{at: op.Due, ms: ms(start.Sub(due))})
				}
				rec.latency[out.class] = append(rec.latency[out.class], timedSample{at: op.Due, ms: ms(out.done.Sub(due))})
			}
		}(i, s)
	}
	wg.Wait()
	total := newRecorder()
	for _, r := range recs {
		total.merge(r)
	}
	return total, scheduled, errors.Join(errs...)
}

// sleepUntil blocks the calling thread until t. time.Sleep would park the
// goroutine on the runtime's timers, whose wake-ups on Linux come out of
// epoll_wait at millisecond granularity — as long as an origin read takes.
// nanosleep on the thread itself is good to about 0.1 ms.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // interrupted early: the loop sleeps the remainder
	}
}

// runClosedLoop has every session pull the next op as soon as its
// previous one completed, for d or until the op list is exhausted. It
// returns the record; each sample carries its completion time.
func runClosedLoop(ops []workload.Op, sess []*session, sh *shadow, epoch time.Time, d time.Duration) (*recorder, error) {
	var next atomic.Int64
	deadline := time.Now().Add(d)
	recs := make([]*recorder, len(sess))
	errs := make([]error, len(sess))
	var wg sync.WaitGroup
	for i, s := range sess {
		wg.Add(1)
		go func(i int, s *session) {
			defer wg.Done()
			rec := newRecorder()
			recs[i] = rec
			for time.Now().Before(deadline) {
				n := int(next.Add(1)) - 1
				if n >= len(ops) {
					return
				}
				sent := time.Now()
				out, err := s.exec(&ops[n], sh, epoch)
				if err != nil {
					errs[i] = err
					return
				}
				rec.note(&out)
				rec.latency[out.class] = append(rec.latency[out.class], timedSample{at: out.done.Sub(epoch), ms: ms(out.done.Sub(sent))})
			}
		}(i, s)
	}
	wg.Wait()
	total := newRecorder()
	for _, r := range recs {
		total.merge(r)
	}
	return total, errors.Join(errs...)
}

// crashAndRecover is the crash half of a durable workload: SIGKILL the
// server, restart it on the same data directory, time the recovery, and
// check that every acknowledged write survived.
func crashAndRecover(proc *serverProc, sched *schedule, sh *shadow, res *runResult) error {
	firstDoc := sched.Dataset.Docs[sched.Dataset.Tables[0]][0]
	took, err := proc.restart(server.RecordPath(sched.Dataset.Tables[0], firstDoc.ID))
	if err != nil {
		return fmt.Errorf("restart after SIGKILL: %w", err)
	}
	res.set("load.recovery_s", took.Seconds())

	acked := sh.ackedVersions()
	if err := verifyAcked(proc.base, acked); err != nil {
		return err
	}
	// The whole log is replayed (no snapshot was taken): the loaded
	// documents plus every write the run sent. Nothing was in flight at
	// the kill, so the replay count must sit between the acked writes and
	// the writes attempted.
	var st server.StatsResponse
	if err := getJSON(proc.base+"/v1/stats", &st); err != nil {
		return err
	}
	if st.Durability == nil {
		return hardf("recovered server reports no durability section")
	}
	loaded := numTables * docsPerTable
	ackedWrites, sentWrites := 0, 0
	sh.mu.Lock()
	for _, h := range sh.docs {
		ackedWrites += len(h.writes)
	}
	sh.mu.Unlock()
	for i := range sched.Timed {
		if opClass(sched.Timed[i].Type) == "write" {
			sentWrites++
		}
	}
	replayed := st.Durability.Recovery.ReplayedRecords
	if replayed < loaded+ackedWrites || replayed > loaded+sentWrites {
		return hardf("recovery replayed %d records; expected between %d (loaded + acked writes) and %d (loaded + scheduled writes)",
			replayed, loaded+ackedWrites, loaded+sentWrites)
	}
	return nil
}

// verifyAcked reads every written document back from the recovered server
// and fails if one is missing or older than its newest acked version.
func verifyAcked(base string, acked map[string]int64) error {
	keys := slices.Sorted(maps.Keys(acked))
	tr := &http.Transport{MaxConnsPerHost: verifiers}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	errs := make([]error, verifiers)
	var wg sync.WaitGroup
	for l := 0; l < verifiers; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for i := l; i < len(keys); i += verifiers {
				var doc struct {
					Version int64 `json:"_version"`
				}
				if err := getJSONWith(hc, base+"/v1/db/"+keys[i], &doc); err != nil {
					errs[l] = hardf("acked write lost: %s unreadable after recovery: %v", keys[i], err)
					return
				}
				if doc.Version < acked[keys[i]] {
					errs[l] = hardf("acked write lost: %s recovered at version %d, acked %d", keys[i], doc.Version, acked[keys[i]])
					return
				}
			}
		}(l)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// warnLimits reports on stderr when a class misses its latency limit at
// p95, counting failed ops as misses.
func warnLimits(workload string, rec *recorder) {
	for _, class := range opClasses {
		lat := rec.latency[class]
		if len(lat) == 0 {
			continue
		}
		limit := ms(latencyLimit[class])
		within := 0
		for _, s := range lat {
			if s.ms <= limit {
				within++
			}
		}
		// Failed ops were timed too; they miss the limit whatever it took.
		if share := float64(within-min(within, rec.failed)) / float64(len(lat)); share < 0.95 {
			fmt.Fprintf(os.Stderr, "warning: %s %s: only %.1f%% of ops within the %.0f ms limit\n", workload, class, 100*share, limit)
		}
	}
}

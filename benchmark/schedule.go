package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"quaestor/internal/query"
	"quaestor/internal/workload"
)

// schedOp is one scheduled operation of the open-loop phases: what to do,
// when it is due (offset from the start of the warm-up) and which session
// sends it.
type schedOp struct {
	workload.Op
	Due     time.Duration
	Session int
}

// schedule is everything a run sends, generated from the seed before any
// timing starts; the server only ever sees the generated requests.
type schedule struct {
	Dataset *workload.Dataset
	// Timed covers the warm-up followed by the fixed phase: Poisson
	// arrivals at the workload's constant rate, dealt round-robin to the
	// sessions.
	Timed []schedOp
	// Peak is the closed-loop phase's op list; sessions pull from it back
	// to back.
	Peak []workload.Op
}

// buildSchedule generates the dataset and both op lists from seed. timed
// is warm-up + fixed phase length, peak the closed-loop phase length.
func buildSchedule(spec *workloadSpec, seed int64, timed, peak time.Duration, nSessions int) *schedule {
	// Independent, seed-derived streams for the corpus, the op choice and
	// the arrival process, so changing one phase length leaves the others'
	// draws alone.
	seeds := rand.New(rand.NewSource(seed))
	dataSeed, opSeed, arrivalSeed, peakSeed := seeds.Int63(), seeds.Int63(), seeds.Int63(), seeds.Int63()

	s := &schedule{Dataset: workload.GenerateDataset(&workload.DatasetConfig{
		Tables:          numTables,
		DocsPerTable:    docsPerTable,
		QueriesPerTable: spec.QueriesPerTable,
		MeanResultSize:  meanResultSize,
		Seed:            dataSeed,
	})}
	// A Query memoizes its key on first use without synchronization, and
	// the sessions share the dataset's queries: fill the keys in here.
	for _, q := range s.Dataset.Queries {
		q.Key()
	}
	gen := workload.NewGenerator(s.Dataset, spec.Mix, spec.Zipf, opSeed)
	arrivals := rand.New(rand.NewSource(arrivalSeed))
	var due time.Duration
	for i := 0; ; i++ {
		due += time.Duration(arrivals.ExpFloat64() / spec.Rate * float64(time.Second))
		if due >= timed {
			break
		}
		s.Timed = append(s.Timed, schedOp{Op: gen.Next(), Due: due, Session: i % nSessions})
	}

	peakGen := workload.NewGenerator(s.Dataset, spec.Mix, spec.Zipf, peakSeed)
	n := int(peak.Seconds() * peakOpsCap)
	s.Peak = make([]workload.Op, n)
	for i := range s.Peak {
		s.Peak[i] = peakGen.Next()
	}
	return s
}

// fingerprint serializes the schedule; two schedules are the same inputs
// iff their fingerprints are byte-identical.
func (s *schedule) fingerprint() []byte {
	var b bytes.Buffer
	writeOp := func(op *workload.Op) {
		key := ""
		if op.Query != nil {
			key = op.Query.Key()
		}
		fmt.Fprintf(&b, "%d|%s|%s|%s|%s", op.Type, op.Table, op.DocID, key, op.UpdateTag)
	}
	for _, t := range s.Dataset.Tables {
		for _, d := range s.Dataset.Docs[t] {
			fmt.Fprintf(&b, "%s/%s %v\n", t, d.ID, d.Fields["tags"])
		}
	}
	for i := range s.Timed {
		writeOp(&s.Timed[i].Op)
		fmt.Fprintf(&b, "|%d|%d\n", s.Timed[i].Due, s.Timed[i].Session)
	}
	for i := range s.Peak {
		writeOp(&s.Peak[i])
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// opClass maps an operation to the class its latency is reported under.
func opClass(t workload.OpType) string {
	switch t {
	case workload.OpRead:
		return "read"
	case workload.OpQuery:
		return "query"
	default:
		return "write"
	}
}

// queryTag returns the tag a generated CONTAINS query selects.
func queryTag(q *query.Query) string {
	tag, _ := q.Predicate.(*query.Field).Value.(string)
	return tag
}

// Package commitlog is a fixture stand-in for quaestor/internal/commitlog:
// just enough surface for the analyzer fixtures to type-check. The
// analyzers identify the real package by path suffix, so this copy under
// testdata/src exercises the same code paths.
package commitlog

import "sync"

// Event is one committed change record.
type Event struct {
	Seq   uint64
	Table string
	ID    string
}

// Log is the subscriber ring. Append expects batches in Seq order from
// one appender at a time, and blocks while a subscriber is a ring behind.
type Log struct {
	mu   sync.Mutex
	ring []Event
}

// Append places a batch on the ring.
func (l *Log) Append(evs []Event) {
	l.mu.Lock()
	l.ring = append(l.ring, evs...)
	l.mu.Unlock()
}

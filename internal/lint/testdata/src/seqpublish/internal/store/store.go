// Fixture for the seqpublish analyzer: order by construction. Seq is
// assigned only inside the stamp section and the fan-out log is appended
// to only under the publish lock; the violating shapes are the pre-PR-3
// ordering bugs and the ways the two locks can be bypassed.
package store

import (
	"sync"
	"sync/atomic"

	"internal/commitlog"
)

// ChangeEvent aliases the commitlog event like the real store does; the
// analyzer sees through the alias.
type ChangeEvent = commitlog.Event

type Store struct {
	mu      sync.Mutex
	stampMu sync.Mutex
	pubMu   sync.Mutex
	seq     atomic.Uint64
	outbox  []commitlog.Event
	log     *commitlog.Log
	subs    chan commitlog.Event
}

// appendOutsidePublishLock: a second appender that skips pubMu can
// interleave its batch with the flusher's.
func (s *Store) appendOutsidePublishLock(evs []commitlog.Event) {
	s.log.Append(evs) // want `commitlog\.Log\.Append outside the publish lock`
}

// appendAfterPublishUnlock: the region closed before the append.
func (s *Store) appendAfterPublishUnlock(evs []commitlog.Event) {
	s.pubMu.Lock()
	s.pubMu.Unlock()
	s.log.Append(evs) // want `commitlog\.Log\.Append outside the publish lock`
}

// rawSend feeds a subscriber channel directly instead of letting the
// Log's pump goroutines deliver.
func (s *Store) rawSend(ev ChangeEvent) {
	s.subs <- ev // want `raw channel send of commit-pipeline events`
}

// stampUnderShardLockOnly is the race the reorder buffer used to repair:
// Seq is drawn under the shard lock, but nothing ties it to the position
// the event takes in the outbox.
func (s *Store) stampUnderShardLockOnly(ev *ChangeEvent) {
	s.mu.Lock()
	ev.Seq = s.seq.Add(1) // want `event Seq assigned outside the stamp section` `sequence counter written outside the stamp section`
	s.mu.Unlock()
	s.stampMu.Lock()
	s.outbox = append(s.outbox, *ev)
	s.stampMu.Unlock()
}

// unlockThenPublish is the PR 3 race: two writers can release their
// shard locks and fan out in swapped order.
func (s *Store) unlockThenPublish(ev commitlog.Event) {
	s.mu.Lock()
	s.mu.Unlock()
	s.publish(ev) // want `publish-style call after unlocking a shard/snapshot mutex`
}

func (s *Store) publish(ev commitlog.Event) {}

// stamp is the sanctioned ordering point: Seq and the queue position are
// taken under one lock, inside the caller's shard critical section.
func (s *Store) stamp(ev *ChangeEvent) {
	s.mu.Lock()
	s.stampMu.Lock()
	ev.Seq = s.seq.Add(1)
	s.outbox = append(s.outbox, *ev)
	s.stampMu.Unlock()
	s.mu.Unlock()
	s.flush()
}

// flush is a sanctioned publish point: it holds pubMu (deferred unlock
// keeps the region open) across taking the outbox and appending it.
func (s *Store) flush() {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	s.stampMu.Lock()
	batch := s.outbox
	s.outbox = nil
	s.stampMu.Unlock()
	s.log.Append(batch)
}

// syntheticLiteral: building an event with its Seq in a literal (the
// import diff's floor-sequenced events) assigns no slot of the order.
func (s *Store) syntheticLiteral(floor uint64) {
	evs := []commitlog.Event{{Seq: floor}}
	s.pubMu.Lock()
	s.log.Append(evs)
	s.pubMu.Unlock()
}

// publishBeforeUnlock: a local fan-out before any unlock is not the
// post-unlock race (lockio owns what happens inside the region).
func (s *Store) publishBeforeUnlock(ev commitlog.Event) {
	s.publish(ev)
	s.mu.Lock()
	s.mu.Unlock()
}

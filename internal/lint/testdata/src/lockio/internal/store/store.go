// Fixture for the lockio analyzer: I/O and blocking calls under the
// hot-path mutexes. Each violating function is paired with its fixed
// form, mirroring the historical bug and the shape the repo settled on.
package store

import (
	"net"
	"os"
	"sync"
	"time"

	"internal/commitlog"
)

type shard struct {
	mu      sync.RWMutex
	snapMu  sync.Mutex
	stampMu sync.Mutex
	pubMu   sync.Mutex
	f       *os.File
	log     *commitlog.Log
}

// fsyncUnderLock is the historical bug shape: the fsync rides inside the
// shard critical section, stalling every writer behind disk latency.
func (s *shard) fsyncUnderLock() {
	s.mu.Lock()
	s.f.Sync() // want `fsync \(os\.File\.Sync\) while "s\.mu" is held`
	s.mu.Unlock()
}

// fsyncAfterUnlock is the fixed form: stamp under the lock, sync after.
func (s *shard) fsyncAfterUnlock() {
	s.mu.Lock()
	s.mu.Unlock()
	s.f.Sync()
}

// deferHoldsToEnd: a deferred unlock keeps the region open to the end of
// the function, so the sleep is still under the lock.
func (s *shard) deferHoldsToEnd() {
	s.mu.Lock()
	defer s.mu.Unlock()
	time.Sleep(time.Millisecond) // want `time\.Sleep while "s\.mu" is held`
}

// guardClause: an early-return unlock must not clear the outer region —
// the fallthrough path still holds the lock.
func (s *shard) guardClause(bad bool) {
	s.mu.Lock()
	if bad {
		s.mu.Unlock()
		return
	}
	conn, _ := net.Dial("tcp", "localhost:0") // want `network I/O \(net\.Dial\) while "s\.mu" is held`
	_ = conn
	s.mu.Unlock()
}

// readLockToo: RLock regions are tracked just like Lock.
func (s *shard) readLockToo() {
	s.mu.RLock()
	time.Sleep(time.Millisecond) // want `time\.Sleep while "s\.mu" is held`
	s.mu.RUnlock()
}

// snapMuToo: the snapshot mutex is a tracked name as well.
func (s *shard) snapMuToo() {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	time.Sleep(time.Millisecond) // want `time\.Sleep while "s\.snapMu" is held`
}

// appendUnderShardLock: the fan-out append blocks behind a slow Block
// subscriber, and every writer of the shard with it.
func (s *shard) appendUnderShardLock(evs []commitlog.Event) {
	s.mu.Lock()
	s.log.Append(evs) // want `blocking fan-out append \(commitlog\.Log\.Append\) while "s\.mu" is held`
	s.mu.Unlock()
}

// appendInStampSection: the stamp section is Seq++ and a queue hand-off,
// never the publish itself.
func (s *shard) appendInStampSection(evs []commitlog.Event) {
	s.stampMu.Lock()
	defer s.stampMu.Unlock()
	s.log.Append(evs) // want `blocking fan-out append \(commitlog\.Log\.Append\) while "s\.stampMu" is held`
}

// appendUnderPublishLock is the fixed form: stamped under the locks,
// published after them under pubMu, which exists to be held across it.
func (s *shard) appendUnderPublishLock(evs []commitlog.Event) {
	s.mu.Lock()
	s.stampMu.Lock()
	s.stampMu.Unlock()
	s.mu.Unlock()
	s.pubMu.Lock()
	s.log.Append(evs)
	s.pubMu.Unlock()
}

// blockingSend: a bare channel send under the lock can block forever
// behind a slow subscriber.
func (s *shard) blockingSend(ch chan int) {
	s.mu.Lock()
	ch <- 1 // want `blocking channel send while "s\.mu" is held`
	s.mu.Unlock()
}

// nonBlockingSend is exempt: a select with a default clause cannot block.
func (s *shard) nonBlockingSend(ch chan int) {
	s.mu.Lock()
	select {
	case ch <- 1:
	default:
	}
	s.mu.Unlock()
}

// goroutineIsSeparate: a function literal body is its own scope — the
// spawned goroutine does not inherit the caller's lock region.
func (s *shard) goroutineIsSeparate() {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		time.Sleep(time.Millisecond)
	}()
}

// untrackedMutex: only the hot-path names (mu, snapMu, stampMu) are tracked.
func untrackedMutex(statsMu *sync.Mutex) {
	statsMu.Lock()
	time.Sleep(time.Millisecond)
	statsMu.Unlock()
}

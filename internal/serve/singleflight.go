package serve

import (
	"context"
	"sync"
)

// group collapses concurrent identical cold work: at most one
// execution per key is ever in flight. The first request for a key
// (the leader) runs fn while every other request for the same key
// blocks; when the leader finishes, each waiter retries the loop and
// runs fn in its own turn. The leader's execution warms the result
// store, so the waiters' rounds are pure store reads — N concurrent
// identical requests cost one set of simulations, and every request
// still produces its own complete response from the warm store
// (simpler and safer than sharing response bytes across requests).
//
// This is deliberately not golang.org/x/sync/singleflight: followers
// here re-run fn against warmed state rather than sharing the
// leader's return value — the store-backed dedupe the
// content-addressed layout makes free — and a leader failure is
// simply retried by the next waiter instead of broadcast to all.
type group struct {
	mu       sync.Mutex
	inflight map[string]chan struct{}
	waiting  int // callers parked on another call's execution
}

func newGroup() *group {
	return &group{inflight: make(map[string]chan struct{})}
}

// do runs fn under the key's single-flight discipline. It reports
// whether this call waited on another request's identical work
// (shared) and fn's error. A caller whose context dies while waiting
// returns the context error without running fn.
func (g *group) do(ctx context.Context, key string, fn func() error) (shared bool, err error) {
	for {
		g.mu.Lock()
		ch, busy := g.inflight[key]
		if !busy {
			ch = make(chan struct{})
			g.inflight[key] = ch
			g.mu.Unlock()
			err = fn()
			g.mu.Lock()
			delete(g.inflight, key)
			g.mu.Unlock()
			close(ch)
			return shared, err
		}
		g.waiting++
		g.mu.Unlock()
		shared = true
		select {
		case <-ctx.Done():
			err = ctx.Err()
		case <-ch:
			// Leader done; loop to take (or queue for) the key.
		}
		g.mu.Lock()
		g.waiting--
		g.mu.Unlock()
		if err != nil {
			return shared, err
		}
	}
}

// active reports how many keys currently have an execution in
// flight — a coarse load signal for /v1/status and tests.
func (g *group) active() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.inflight)
}

// parked reports how many callers are blocked waiting on another
// call's execution of the same key.
func (g *group) parked() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.waiting
}

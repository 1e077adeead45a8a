package sim

// Ticker is a clocked component driven by the Engine. Tick is called once
// per scheduled activation with the current time and reports when to
// call it next:
//
//   - done == false: reschedule at next (a next <= now is treated as
//     now plus one femtosecond).
//   - done == true: the component has finished and is removed.
//
// A component that is stalled waiting for an event at a known future time
// simply returns that time, skipping the activations in between (the
// out-of-order core does this after a cycle that changed nothing); a
// component with nothing to do until another component wakes it can
// return MaxTime and later be rescheduled with Engine.Wake.
type Ticker interface {
	Tick(now Time) (next Time, done bool)
}

// Engine drives a set of Tickers in global-time order. Systems have at
// most a dozen or so tickers: the Table I system registers its twelve
// checker cores and then the main core (the detector is not a ticker;
// the core's commit stage and the checkers call into it), and systems
// without checker cores register the main core alone. So the scheduler
// is a registration-ordered slice with a linear min scan — no heap
// churn, no map lookups on the per-tick fast path. Ties are broken by
// registration order so runs are deterministic; in the Table I system a
// checker activation runs before a main-core activation at the same
// time.
type Engine struct {
	items   []engineItem
	live    int // items not yet done
	now     Time
	stopped bool
}

type engineItem struct {
	t    Ticker
	at   Time
	done bool
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now reports the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Add registers a ticker whose first activation is at time at.
func (e *Engine) Add(t Ticker, at Time) {
	e.items = append(e.items, engineItem{t: t, at: at})
	e.live++
}

// Wake reschedules a registered ticker to run at time at if that is
// earlier than its currently scheduled activation. Waking an unregistered
// or finished ticker is a no-op.
func (e *Engine) Wake(t Ticker, at Time) {
	for i := range e.items {
		it := &e.items[i]
		if it.t == t {
			if !it.done && at < it.at {
				it.at = at
			}
			return
		}
	}
}

// Stop makes Run return after the current ticker completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes tickers in time order until every ticker reports done,
// Stop is called, or the time limit (MaxTime for none) is exceeded.
// It returns the final simulation time.
func (e *Engine) Run(limit Time) Time {
	e.stopped = false
	for e.live > 0 && !e.stopped {
		// Earliest activation, first-registered wins ties.
		best := -1
		at := Time(0)
		for i := range e.items {
			it := &e.items[i]
			if !it.done && (best < 0 || it.at < at) {
				best, at = i, it.at
			}
		}
		if at > limit {
			break
		}
		if at > e.now {
			e.now = at
		}
		next, done := e.items[best].t.Tick(e.now)
		// The Tick may have called Wake on other items; e.items[best]
		// itself is only rescheduled here.
		if done {
			e.items[best].done = true
			e.live--
			continue
		}
		if next <= e.now {
			next = e.now + 1
		}
		e.items[best].at = next
	}
	return e.now
}

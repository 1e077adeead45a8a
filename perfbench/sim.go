package main

import (
	"context"
	"sync"
	"time"

	"paradet"
	"paradet/internal/campaign"
)

// Simulator call kinds, the classes the per-layer arithmetic subtracts.
const (
	kindUnprotected = "unprotected"
	kindCkptOnly    = "ckpt_only"
	kindProtected   = "protected"
	kindFault       = "fault"
	kindReference   = "reference" // lockstep and RMT runs
)

// simTotals accumulates the calls of one kind.
type simTotals struct {
	Calls  int
	NS     int64
	Instrs uint64
	Cycles uint64
}

func (t *simTotals) add(o simTotals) {
	t.Calls += o.Calls
	t.NS += o.NS
	t.Instrs += o.Instrs
	t.Cycles += o.Cycles
}

func (t simTotals) nsPerInstr() float64 {
	if t.Instrs == 0 {
		return 0
	}
	return float64(t.NS) / float64(t.Instrs)
}

// timedSim decorates campaign.Default(): it times every call into the
// simulator and counts the committed instructions and main-core cycles
// each call simulated. Before each call it runs a calibration slice
// (calib.go), timed apart from the call. With a tracer it also records one span per call,
// parented on the span set by setParent. It deliberately does not
// implement campaign.TelemetrySimulator, so the engine takes the plain
// Run path.
type timedSim struct {
	inner campaign.Simulator
	tr    *tracer

	mu     sync.Mutex
	totals map[string]simTotals
	cal    calTotals
	parent int
}

func newTimedSim(tr *tracer) *timedSim {
	return &timedSim{inner: campaign.Default(), tr: tr, totals: map[string]simTotals{}, parent: -1}
}

// setParent makes later call spans children of span index p.
func (s *timedSim) setParent(p int) {
	s.mu.Lock()
	s.parent = p
	s.mu.Unlock()
}

// take returns the totals and calibration slices so far and resets them.
func (s *timedSim) take() (map[string]simTotals, calTotals) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out, cal := s.totals, s.cal
	s.totals, s.cal = map[string]simTotals{}, calTotals{}
	return out, cal
}

// slice runs a calibration slice on the calling worker, before the call
// it precedes is timed.
func (s *timedSim) slice() {
	d := calSlice()
	s.mu.Lock()
	s.cal.N++
	s.cal.NS += d
	s.mu.Unlock()
}

func (s *timedSim) note(kind, id string, start time.Time, instrs, cycles uint64) {
	end := time.Now()
	s.mu.Lock()
	t := s.totals[kind]
	t.add(simTotals{Calls: 1, NS: end.Sub(start).Nanoseconds(), Instrs: instrs, Cycles: cycles})
	s.totals[kind] = t
	parent := s.parent
	s.mu.Unlock()
	s.tr.add("paradet."+kind, start, end, parent, id)
}

func (s *timedSim) Load(ctx context.Context, name string) (*paradet.Program, paradet.WorkloadInfo, error) {
	return s.inner.Load(ctx, name)
}

func (s *timedSim) Run(ctx context.Context, cfg paradet.Config, p *paradet.Program) (*paradet.Result, error) {
	s.slice()
	start := time.Now()
	res, err := s.inner.Run(ctx, cfg, p)
	kind := kindProtected
	if cfg.DisableCheckers {
		kind = kindCkptOnly
	}
	s.noteResult(kind, p, start, res, err)
	return res, err
}

func (s *timedSim) RunUnprotected(ctx context.Context, cfg paradet.Config, p *paradet.Program) (*paradet.Result, error) {
	s.slice()
	start := time.Now()
	res, err := s.inner.RunUnprotected(ctx, cfg, p)
	s.noteResult(kindUnprotected, p, start, res, err)
	return res, err
}

func (s *timedSim) noteResult(kind string, p *paradet.Program, start time.Time, res *paradet.Result, err error) {
	if err != nil || res == nil {
		s.note(kind, p.Name(), start, 0, 0)
		return
	}
	s.note(kind, p.Name(), start, res.Instructions, res.Cycles)
}

func (s *timedSim) RunLockstep(ctx context.Context, cfg paradet.Config, p *paradet.Program) (*paradet.BaselineResult, error) {
	s.slice()
	start := time.Now()
	res, err := s.inner.RunLockstep(ctx, cfg, p)
	s.noteBaseline(p, start, res, err)
	return res, err
}

func (s *timedSim) RunRMT(ctx context.Context, cfg paradet.Config, p *paradet.Program) (*paradet.BaselineResult, error) {
	s.slice()
	start := time.Now()
	res, err := s.inner.RunRMT(ctx, cfg, p)
	s.noteBaseline(p, start, res, err)
	return res, err
}

func (s *timedSim) noteBaseline(p *paradet.Program, start time.Time, res *paradet.BaselineResult, err error) {
	if err != nil || res == nil {
		s.note(kindReference, p.Name(), start, 0, 0)
		return
	}
	s.note(kindReference, p.Name(), start, res.Instructions, res.Cycles)
}

// ClassifyFault counts no instructions or cycles: a FaultRecord carries
// neither, and a faulty run that diverges commits a count of its own,
// so fault calls are costed per call, not per instruction.
func (s *timedSim) ClassifyFault(ctx context.Context, cfg paradet.Config, p *paradet.Program, f paradet.Fault, golden *paradet.Result) (paradet.FaultRecord, error) {
	s.slice()
	start := time.Now()
	rec, err := s.inner.ClassifyFault(ctx, cfg, p, f, golden)
	s.note(kindFault, p.Name()+" "+f.String(), start, 0, 0)
	return rec, err
}

// sumTotals folds every kind into one total: the host time of every
// simulator call.
func sumTotals(m map[string]simTotals) simTotals {
	var t simTotals
	for _, v := range m {
		t.add(v)
	}
	return t
}

// instrTotals folds the kinds whose calls report the instructions and
// cycles they simulated: every kind but faults. Simulation speed is
// taken over these alone.
func instrTotals(m map[string]simTotals) simTotals {
	var t simTotals
	for k, v := range m {
		if k != kindFault {
			t.add(v)
		}
	}
	return t
}

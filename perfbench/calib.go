package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"
)

// The host this benchmark runs on is shared, and its speed swings by up
// to 1.7× — over minutes, and at times within a second — as neighbours
// come and go, with no steal time to show for it (README.md gives the
// measurement). No median inside one run removes a swing that outlasts
// the run, and a calibration timed between repetitions samples too
// little of a repetition to follow the swings inside it.
//
// So the simulator decorator runs a fixed calibration slice, about a
// millisecond of ordinary Go work, on the worker just before every
// simulator call and times it apart from the call. A repetition's slices
// sample the host's speed evenly over its cold phase, on every worker,
// and their mean c gives the repetition's scale: a time t is reported as
// t·calRefNS/c, a rate r as r·c/calRefNS. A change to paradet moves the
// measurement but not the slices, so it shows in full; a swing of host
// speed moves both and largely cancels.
//
// A slice is three kinds of work: a small interpreter over a register
// file and a 256 KiB memory (the shape of the simulator's inner loop), a
// JSON round trip of a fixed document, and map updates followed by a
// sort. Together they track the simulator's speed more closely than any
// one of them.

const (
	// calRefNS is a slice's typical time on the 2-CPU reference host.
	// Scaled figures read as times on that host at that speed.
	calRefNS = 1.0e6
	calSteps = 70_000
	// calMapOps map updates over calMapKeys keys, then a sort of the keys.
	calMapOps  = 2_000
	calMapKeys = 700
	calMemMask = 1<<15 - 1
)

type calInstr struct {
	op, rd, ra, rb uint8
	imm            uint32
}

// calCode is the interpreter's program: 256 instructions drawn once from
// a fixed seed, so every run, commit and host executes the same work.
var calCode = func() []calInstr {
	r := rand.New(rand.NewSource(20180625))
	code := make([]calInstr, 256)
	for i := range code {
		code[i] = calInstr{op: uint8(r.Intn(6)), rd: uint8(r.Intn(16)), ra: uint8(r.Intn(16)),
			rb: uint8(r.Intn(16)), imm: r.Uint32()}
	}
	return code
}()

// calNode is the JSON round trip's document: a tree of 40 nodes.
type calNode struct {
	Name  string            `json:"name"`
	Vals  []int             `json:"vals"`
	Attrs map[string]string `json:"attrs"`
	Kids  []*calNode        `json:"kids,omitempty"`
}

var calDoc = func() []byte {
	r := rand.New(rand.NewSource(1))
	var build func(depth int) *calNode
	build = func(depth int) *calNode {
		n := &calNode{Name: fmt.Sprintf("n%d", r.Intn(1000)), Attrs: map[string]string{}}
		for i := 0; i < 8; i++ {
			n.Vals = append(n.Vals, r.Intn(1<<20))
		}
		for i := 0; i < 3; i++ {
			n.Attrs[fmt.Sprintf("k%d", i)] = fmt.Sprintf("v%d", r.Intn(100))
		}
		if depth > 0 {
			for i := 0; i < 3; i++ {
				n.Kids = append(n.Kids, build(depth-1))
			}
		}
		return n
	}
	data, err := json.Marshal(build(3))
	if err != nil {
		panic(err)
	}
	return data
}()

// calWorker is one slice's state, allocated once and reused.
type calWorker struct {
	regs [16]uint64
	mem  []uint64
	m    map[uint64]uint64
	keys []uint64
	sink uint64
}

// calPool holds enough workers for every concurrent simulator call, so
// a slice never allocates its memory.
var calPool = func() chan *calWorker {
	n := 2 * runtime.NumCPU()
	ch := make(chan *calWorker, n)
	for i := 0; i < n; i++ {
		w := &calWorker{mem: make([]uint64, calMemMask+1), m: make(map[uint64]uint64, calMapKeys)}
		for j := range w.regs {
			w.regs[j] = uint64(j)*0x9e3779b97f4a7c15 + 1
		}
		ch <- w
	}
	return ch
}()

func (w *calWorker) interpret() {
	pc := 0
	for i := 0; i < calSteps; i++ {
		in := &calCode[pc]
		a, b := w.regs[in.ra], w.regs[in.rb]
		pc++
		switch in.op {
		case 0:
			w.regs[in.rd] = a + b + uint64(in.imm)
		case 1:
			w.regs[in.rd] = a ^ (b << (in.imm & 31)) ^ (b >> 7)
		case 2:
			w.regs[in.rd] = a * (b | 1)
		case 3:
			w.regs[in.rd] = w.mem[(a+uint64(in.imm))&calMemMask] + 1
		case 4:
			w.mem[(b+uint64(in.imm))&calMemMask] = a
		case 5:
			if (a^b)&3 == 0 {
				pc = int(in.imm) % len(calCode)
			}
		}
		if pc == len(calCode) {
			pc = 0
		}
	}
	w.sink += w.regs[0]
}

func (w *calWorker) roundTrip() {
	var n calNode
	if err := json.Unmarshal(calDoc, &n); err != nil {
		panic(err)
	}
	data, err := json.Marshal(&n)
	if err != nil {
		panic(err)
	}
	w.sink += uint64(len(data))
}

func (w *calWorker) mapSort() {
	clear(w.m)
	x := uint64(1)
	for i := 0; i < calMapOps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		w.m[x%calMapKeys] += x
	}
	w.keys = w.keys[:0]
	for k := range w.m {
		w.keys = append(w.keys, k)
	}
	slices.SortFunc(w.keys, func(a, b uint64) int {
		if w.m[a] < w.m[b] {
			return -1
		}
		return 1
	})
	w.sink += w.keys[0]
}

// calSlice runs one calibration slice and returns its wall time in
// nanoseconds.
func calSlice() int64 {
	w := <-calPool
	start := time.Now()
	w.interpret()
	w.roundTrip()
	w.mapSort()
	d := time.Since(start).Nanoseconds()
	calPool <- w
	return d
}

// calTotals accumulates the slices run during one stretch of work.
type calTotals struct {
	N  int
	NS int64
}

// scale is the factor that turns a time measured during the stretch into
// a reference-host time; 1 when no slice ran.
func (c calTotals) scale() float64 {
	if c.N == 0 {
		return 1
	}
	return calRefNS / (float64(c.NS) / float64(c.N))
}

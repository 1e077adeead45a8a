package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"reflect"
	"testing"

	"paradet"
	"paradet/internal/resultstore"
)

func TestSeedDeterminesInputs(t *testing.T) {
	if !reflect.DeepEqual(planSweep(7), planSweep(7)) {
		t.Error("one seed gave two sweep plans")
	}
	if reflect.DeepEqual(planSweep(7), planSweep(8)) {
		t.Error("two seeds gave the same sweep plan")
	}
	if !reflect.DeepEqual(sweepSpecs(planSweep(7), 2), sweepSpecs(planSweep(7), 2)) {
		t.Error("one seed gave two sweep grids")
	}
	for _, w := range planSweep(7).Order {
		n := planSweep(7).Samples[w]
		for _, info := range paradet.Workloads() {
			if info.Name == w && (float64(n) < 0.9*float64(info.DefaultMaxInstrs) || float64(n) > 1.1*float64(info.DefaultMaxInstrs)) {
				t.Errorf("%s sample %d is not within 10%% of %d", w, n, info.DefaultMaxInstrs)
			}
		}
	}

	if !reflect.DeepEqual(planFaults(7), planFaults(7)) {
		t.Error("one seed gave two fault plans")
	}
	if reflect.DeepEqual(planFaults(7), planFaults(8)) {
		t.Error("two seeds gave the same fault sites")
	}
}

func TestTailPercentile(t *testing.T) {
	// A percentile is reported only with ten samples beyond it: p50 from
	// 20 samples, p90 from 100, p99 from 1000.
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{19, 50, false}, {20, 50, true}, {99, 90, false}, {100, 90, true}, {999, 99, false}, {1000, 99, true}} {
		if got := supports(c.n, c.p); got != c.want {
			t.Errorf("supports(%d, p%g) = %t, want %t", c.n, c.p, got, c.want)
		}
	}
	var out outcome
	out.Values = map[string]float64{}
	putPercentiles(&out, "read", [][]float64{make([]float64, 1000), make([]float64, 999)}, 50, 99)
	if len(out.Failures) != 1 {
		t.Errorf("a group of 999 reads reported p99: failures %v", out.Failures)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if p := percentile(xs, 90); p != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90", p)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestServeDriveChecksReads(t *testing.T) {
	// A reply that errs, fails or carries another body is a failure.
	want := []byte("cell\n")
	for _, c := range []struct {
		f  fetch
		ok bool
	}{
		{fetch{Status: http.StatusOK, Body: want}, true},
		{fetch{Status: http.StatusOK, Body: []byte("other\n")}, false},
		{fetch{Status: http.StatusNotFound, Body: want}, false},
		{fetch{Err: errors.New("reset")}, false},
	} {
		if got := checkFetch(c.f, want) == ""; got != c.ok {
			t.Errorf("checkFetch(%+v) correct = %t, want %t", c.f, got, c.ok)
		}
	}

	// Served from a real store, every read is a segment hit whose body
	// is the stored cell's JSON, through one target lookup each.
	st, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var fps []string
	for i, w := range []string{"stream", "bitcount"} {
		k := resultstore.Key{Workload: w, Scheme: "protected", Config: paradet.DefaultConfig()}
		if err := st.Put(k, &resultstore.Cell{Result: &paradet.Result{Instructions: uint64(100 + i)}}); err != nil {
			t.Fatal(err)
		}
		fps = append(fps, k.Fingerprint())
	}
	if _, err := st.Compact(resultstore.CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	v, fails, err := driveServe(context.Background(), st, fps)
	if err != nil || len(fails) != 0 {
		t.Fatalf("driveServe: %v %v", err, fails)
	}
	if v["serve.lookups_per_req"] != 1 || v["serve.handler_ms.cell"] <= 0 || v["serve.target_us_per_lookup"] <= 0 {
		t.Errorf("serve metrics %v", v)
	}
	if _, _, err := driveServe(context.Background(), st, []string{"00"}); err == nil {
		t.Error("driveServe accepted a fingerprint the store does not hold")
	}
}

func TestDeriveLayers(t *testing.T) {
	k := map[string]simTotals{
		kindUnprotected: {NS: 2000, Instrs: 10, Cycles: 10},
		kindCkptOnly:    {NS: 2500, Instrs: 10, Cycles: 10},
		kindProtected:   {NS: 4000, Instrs: 10, Cycles: 20},
		// Fault calls report no instructions: they are costed per call
		// and stay out of every per-instruction and per-cycle figure.
		kindFault: {Calls: 4, NS: 6000},
	}
	v := deriveLayers(k, 50)
	want := map[string]float64{
		"paradet.unprotected_ns_per_instr": 200,
		"paradet.ckpt_only_ns_per_instr":   250,
		"paradet.protected_ns_per_instr":   400,
		"paradet.fault_us_per_cell":        1.5,
		"core.detector_ns_per_instr":       50,
		"inorder.checkers_ns_per_instr":    150,
		"ooo.self_ns_per_instr":            150,
		"paradet.host_ns_per_cycle":        8500.0 / 40,
	}
	if !reflect.DeepEqual(v, want) {
		t.Errorf("deriveLayers = %v, want %v", v, want)
	}
	// A layer whose two sides were not both measured is 0, not a
	// negative cost.
	if v := deriveLayers(map[string]simTotals{kindProtected: {NS: 40, Instrs: 10}}, 0); v["inorder.checkers_ns_per_instr"] != 0 || v["ooo.self_ns_per_instr"] != 0 {
		t.Errorf("half-measured differences: %v", v)
	}

	// Two workers: both busy until 60, one alone until 100.
	calls := []span{{Start: 0, End: 50}, {Start: 0, End: 60}, {Start: 50, End: 100}}
	if got := stragglerNS(calls, 2, 100); got != 40 {
		t.Errorf("stragglerNS = %d, want 40", got)
	}
	// Back-to-back calls on one worker do not make two busy workers.
	if got := stragglerNS([]span{{Start: 0, End: 10}, {Start: 10, End: 20}}, 2, 20); got != 0 {
		t.Errorf("stragglerNS of a serial chain = %d, want 0", got)
	}
}

func TestHostScaling(t *testing.T) {
	// On a host running at half the reference speed a calibration slice
	// takes twice as long, and so does the work: scaled, a time reads as
	// on the reference host, and a rate is divided by the same factor.
	k := calTotals{N: 4, NS: 8 * calRefNS}.scale()
	if k != 0.5 {
		t.Fatalf("scale at half speed = %g, want 0.5", k)
	}
	if got := scaled([]float64{4, 8}, k); !reflect.DeepEqual(got, []float64{2, 4}) {
		t.Errorf("scaled = %v", got)
	}
	if k := (calTotals{}).scale(); k != 1 {
		t.Errorf("scale with no slices = %g, want 1", k)
	}
	if d := calSlice(); d <= 0 {
		t.Errorf("calSlice() = %d ns", d)
	}
}

func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside this directory")
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) || !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Error("BENCHMARK.json metrics differ from the catalog in main.go")
	}
	for _, w := range b.Workloads {
		if runners[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which has no runner", w.Name)
		}
	}
	if len(b.Workloads) != len(runners) {
		t.Error("a runner is missing from BENCHMARK.json")
	}
}

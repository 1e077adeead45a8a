package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"time"

	"paradet/internal/resultstore"
	"paradet/internal/serve"
)

const (
	// servePasses is how many times the serve drive fetches every cell.
	servePasses = 20
	reqHeader   = "X-Perfbench-Request"
)

// servedJSON renders v exactly as the server's writeJSON does.
func servedJSON(v any) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// tracedHandler times every request the server handles, from outside
// serve.Server, as one span per request named by its route.
type tracedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.next.ServeHTTP(w, r)
	h.tr.add("serve."+routeOf(r), start, time.Now(), -1, r.Header.Get(reqHeader))
}

func routeOf(r *http.Request) string {
	if strings.HasPrefix(r.URL.Path, "/v1/cells/") {
		return "cell"
	}
	return "other"
}

// tracedTarget times every store lookup the server makes through its
// serve.Target seam.
type tracedTarget struct {
	*serve.LocalTarget
	tr *tracer
}

func (t tracedTarget) Cell(fp string) (*resultstore.Cell, bool) {
	start := time.Now()
	c, ok := t.LocalTarget.Cell(fp)
	t.tr.add("serve.target.cell", start, time.Now(), -1, fp)
	return c, ok
}

func (t tracedTarget) Lookup(k resultstore.Key) (*resultstore.Cell, bool) {
	start := time.Now()
	c, ok := t.LocalTarget.Lookup(k)
	t.tr.add("serve.target.lookup", start, time.Now(), -1, k.Fingerprint())
	return c, ok
}

// fetch is one GET as the client saw it.
type fetch struct {
	Status int
	Body   []byte
	Err    error
	MS     float64
}

func get(ctx context.Context, client *http.Client, url string, id int) fetch {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return fetch{Err: err}
	}
	req.Header.Set(reqHeader, strconv.Itoa(id))
	resp, err := client.Do(req)
	if err != nil {
		return fetch{Err: err, MS: ms(time.Since(start))}
	}
	f := fetch{Status: resp.StatusCode}
	f.Body, f.Err = io.ReadAll(resp.Body)
	resp.Body.Close()
	f.MS = ms(time.Since(start))
	return f
}

// checkFetch validates one reply against the body it must carry; ""
// means correct. A failed read is a failed operation and is not timed.
func checkFetch(f fetch, want []byte) string {
	switch {
	case f.Err != nil:
		return f.Err.Error()
	case f.Status != http.StatusOK:
		return fmt.Sprintf("status %d", f.Status)
	case !bytes.Equal(f.Body, want):
		return "body differs from the stored cell"
	}
	return ""
}

// driveServe serves st — the workload's own cells, compacted — through
// pdserve's handler (serve.New) on a loopback listener, wrapped in the
// traced handler and target, and fetches every cell by fingerprint
// servePasses times over one connection, as a client pulling a finished
// campaign's results does. Every body must be byte-identical to the
// stored cell's JSON, and no read may simulate.
func driveServe(ctx context.Context, st *resultstore.Store, fps []string) (v map[string]float64, failures []string, err error) {
	want := map[string][]byte{}
	for _, fp := range fps {
		c, ok := st.GetFingerprint(fp)
		if !ok {
			return nil, nil, fmt.Errorf("serve drive: cell %s is not in the store", fp)
		}
		if want[fp], err = servedJSON(c); err != nil {
			return nil, nil, err
		}
	}
	tr := newTracer()
	srv := serve.New(serve.Config{Target: tracedTarget{serve.NewLocalTarget(st), tr}, Parallel: runtime.NumCPU()})
	hs := httptest.NewServer(tracedHandler{srv, tr})
	defer hs.Close()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}}
	defer client.CloseIdleConnections()

	clientMS := map[string]float64{}
	id := 0
	for pass := 0; pass < servePasses; pass++ {
		for _, fp := range fps {
			f := get(ctx, client, hs.URL+"/v1/cells/"+fp, id)
			if msg := checkFetch(f, want[fp]); msg != "" {
				failures = append(failures, fmt.Sprintf("serve drive: GET %s: %s", fp, msg))
			} else {
				clientMS[strconv.Itoa(id)] = f.MS
			}
			id++
		}
	}
	if n := srv.Snapshot().Sims; n != 0 {
		failures = append(failures, fmt.Sprintf("serve drive: warm reads simulated %d times", n))
	}

	var handler, transport []float64
	lookups, lookupUS := 0, 0.0
	for _, s := range tr.snapshot() {
		d := float64(s.End-s.Start) / 1e6
		switch s.Name {
		case "serve.target.cell", "serve.target.lookup":
			lookups++
			lookupUS += d * 1000
		case "serve.cell":
			handler = append(handler, d)
			if c, ok := clientMS[s.ID]; ok {
				transport = append(transport, c-d)
			}
		}
	}
	v = map[string]float64{
		"serve.handler_ms.cell":      median(handler),
		"serve.transport_ms":         median(transport),
		"serve.lookups_per_req":      float64(lookups) / float64(id),
		"serve.target_us_per_lookup": 0,
	}
	if lookups > 0 {
		v["serve.target_us_per_lookup"] = lookupUS / float64(lookups)
	}
	return v, failures, nil
}

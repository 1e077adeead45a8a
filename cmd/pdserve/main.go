// Command pdserve serves a campaign result store over HTTP: a
// single-node daemon owning one content-addressed store, answering
// cell and figure queries from the warm loose/segment layouts with
// zero simulation, and executing cold campaigns through the ordinary
// engine under single-flight dedupe.
//
//	pdserve -store .pdstore                          # serve on 127.0.0.1:8080
//	pdserve -store .pdstore -addr :0                 # pick a free port (announced on stderr)
//	curl localhost:8080/v1/figures/fig7?workloads=bitcount
//	curl localhost:8080/v1/grid?figure=fig9 | jq .cells[0]
//	curl localhost:8080/v1/cells/<fingerprint>
//	curl -d @spec.json localhost:8080/v1/campaigns    # stream progress lines
//	curl localhost:8080/metrics | grep paradet_serve
//
// The standard observability flags apply: -ledger writes request and
// engine events, -debug-addr adds pprof and a /progress endpoint with
// the server's live request counters.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"paradet/internal/obs"
	"paradet/internal/resultstore"
	"paradet/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 to pick a free port; the chosen address is announced on stderr)")
	storeDir := flag.String("store", "", "result store directory to serve (required; created if absent)")
	parallel := flag.Int("parallel", 0, "worker pool size for cold simulations (0 = GOMAXPROCS)")
	obsFlags := obs.Register()
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "pdserve:", err)
		os.Exit(1)
	}
	if *storeDir == "" {
		fail(errors.New("-store is required"))
	}
	store, err := resultstore.Open(*storeDir)
	if err != nil {
		fail(err)
	}

	srv := serve.New(serve.Config{
		Target:   serve.NewLocalTarget(store),
		Parallel: *parallel,
	})
	stopObs := obsFlags.Start(func() any { return srv.Snapshot() })
	defer stopObs()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	// Rewrite wildcard hosts so the announced URL is dialable — the
	// same normalisation the -debug-addr announce line performs. CI
	// greps this line to discover a :0 port.
	host, port, _ := net.SplitHostPort(ln.Addr().String())
	if host == "" || host == "::" || host == "0.0.0.0" {
		host = "127.0.0.1"
	}
	fmt.Fprintf(os.Stderr, "pdserve: serving %s on http://%s (/v1, /metrics)\n",
		store.Dir(), net.JoinHostPort(host, port))

	httpSrv := newHTTPServer(srv)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()

	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fail(err)
		}
	case <-ctx.Done():
		// In-flight simulations get a grace period to stream their
		// final lines; a second signal kills the process outright.
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			fail(err)
		}
	}
}

// readHeaderTimeout bounds how long a client may take to send its
// request headers, so a slow or idle connection cannot hold a server
// goroutine forever. It matches the -debug-addr server's.
const readHeaderTimeout = 10 * time.Second

// newHTTPServer wraps the API handler in the daemon's http.Server.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}

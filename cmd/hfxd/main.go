// Command hfxd runs the concurrent SCF/HFX job service: an HTTP/JSON
// front end that prices every job from its screened pair list (the
// paper's cost-predictability claim, turned into admission control),
// executes on a fixed pool of workers owning long-lived builders, and
// caches results by canonical job hash.
//
// Serve (default):
//
//	hfxd -addr 127.0.0.1:8080 -workers 4 -queue 64
//
// Submit a job to a running server (-submit switches to client mode):
//
//	hfxd -submit -url http://127.0.0.1:8080 -system water -functional PBE0
//
// Or with curl:
//
//	curl -s http://127.0.0.1:8080/v1/jobs -d '{"kind":"scf","system":"water","basis":"STO-3G"}'
//	curl -s http://127.0.0.1:8080/metrics
//
// SIGINT/SIGTERM trigger a graceful drain: admission closes immediately
// (429/503 for newcomers), queued and in-flight jobs complete, builders
// are closed, then the process exits.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hfxmd/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hfxd: ")
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
		workers  = flag.Int("workers", 4, "job workers (each owns long-lived builder state)")
		queueCap = flag.Int("queue", 64, "admission queue capacity")
		cacheMB  = flag.Int("cache-mb", 64, "hot result-cache byte budget in MiB (negative disables)")
		storeDir = flag.String("store-dir", "", "tiered store directory: results, prefix densities and ERI spills persist here and survive restarts (empty = memory only)")
		threads  = flag.Int("threads", 1, "HFX threads per builder")
		timeout  = flag.Duration("timeout", 2*time.Minute, "default per-job deadline")
		drain    = flag.Duration("drain", 30*time.Second, "graceful shutdown drain budget")
		aging    = flag.Float64("aging", 1e8, "queue starvation aging (predicted ns per queued second)")
		journal  = flag.String("journal", "", "crash-safe job journal path (empty disables); queued and running jobs are re-enqueued on boot")

		submit  = flag.Bool("submit", false, "client mode: submit one job and print the JSON result")
		url     = flag.String("url", "http://127.0.0.1:8080", "server URL for -submit")
		kind    = flag.String("kind", "scf", "job kind for -submit: scf|buildjk|screen|solvent-scan|trajectory")
		system  = flag.String("system", "water", "built-in system for -submit")
		basis   = flag.String("basis", "STO-3G", "basis set for -submit")
		funcnl  = flag.String("functional", "HF", "functional for -submit")
		eps     = flag.Float64("screen", 1e-8, "screening threshold for -submit")
		points  = flag.Int("points", 5, "scan points for -submit -kind solvent-scan")
		mdSteps = flag.Int("md-steps", 4, "outer MD steps for -submit -kind trajectory")
		respaK  = flag.Int("respa-k", 2, "RESPA inner steps per full force for -submit -kind trajectory")
		mdRef   = flag.String("md-ref", "spring", "cheap reference force for -submit -kind trajectory: spring|loose|baseline")
	)
	flag.Parse()

	if *submit {
		if err := runSubmit(*url, *kind, *system, *basis, *funcnl, *eps, *points, *mdSteps, *respaK, *mdRef); err != nil {
			log.Fatal(err)
		}
		return
	}

	cacheBytes := int64(*cacheMB) << 20
	if *cacheMB < 0 {
		cacheBytes = -1
	}
	srv, err := server.New(server.Config{
		Workers:        *workers,
		QueueCap:       *queueCap,
		CacheBytes:     cacheBytes,
		StoreDir:       *storeDir,
		BuilderThreads: *threads,
		DefaultTimeout: *timeout,
		AgingNSPerSec:  *aging,
		JournalPath:    *journal,
	})
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	// The resolved address line is the machine-readable handshake the
	// smoke test greps for; keep its format stable.
	fmt.Printf("hfxd: listening on http://%s (workers=%d queue=%d cache-mb=%d)\n",
		ln.Addr(), *workers, *queueCap, *cacheMB)

	httpSrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-sigCtx.Done():
	}

	log.Printf("draining (budget %v)...", *drain)
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("drain incomplete: %v", err)
	} else {
		log.Printf("drained cleanly")
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
}

func runSubmit(url, kind, system, basis, functional string, eps float64, points, mdSteps, respaK int, mdRef string) error {
	req := server.JobRequest{
		Kind:       kind,
		Basis:      basis,
		Functional: functional,
		Screen:     eps,
	}
	switch kind {
	case server.KindSolventScan:
		req.Solvent = system
		req.Points = points
	case server.KindTrajectory:
		req.System = system
		req.MaxSteps = mdSteps
		req.RespaK = respaK
		req.Ref = mdRef
	default:
		req.System = system
	}
	c := server.NewClient(url)
	res, err := c.Submit(context.Background(), req)
	if err != nil {
		var busy *server.BusyError
		if errors.As(err, &busy) {
			return fmt.Errorf("server busy; retry after %v", busy.RetryAfter)
		}
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

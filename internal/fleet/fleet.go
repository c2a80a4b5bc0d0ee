package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"hfxmd/internal/server"
	"hfxmd/internal/store"
	"hfxmd/internal/trace"
)

// Options configures a Cluster. The zero value plus New's defaults give
// a 2-instance fleet.
type Options struct {
	// Instances is the number of hfxd instances to boot (default 2).
	Instances int
	// Policy is the routing rule; CacheAffinity, the zero value, is the
	// only one.
	Policy Policy
	// Server is the per-instance configuration template.
	Server server.Config
	// MaxSweeps bounds how many times Submit retries the whole fleet
	// after finding every instance busy (default 3).
	MaxSweeps int
	// BackoffScale scales the servers' Retry-After hints between sweeps;
	// in-process harnesses use small values (default 1.0). MaxBackoff
	// caps a single wait (default 2s).
	BackoffScale float64
	MaxBackoff   time.Duration
	// StoreDir, when set, opens ONE shared tiered store and injects it
	// into every instance (server.Config.Store): a result computed by
	// any instance is a cache hit on all of them, prefix densities and
	// ERI spills are fleet-wide, and everything survives restarts. The
	// cluster owns the store and closes it after the instances drain.
	// (Do not instead set Server.StoreDir on the template: N stores
	// appending to one active segment would corrupt it.)
	StoreDir string
	// Registry receives the router's counters (fleet.*); one is created
	// when nil.
	Registry *trace.Registry
}

func (o *Options) fillDefaults() {
	if o.Instances == 0 {
		o.Instances = 2
	}
	if o.MaxSweeps == 0 {
		o.MaxSweeps = 3
	}
	if o.BackoffScale == 0 {
		o.BackoffScale = 1
	}
	if o.MaxBackoff == 0 {
		o.MaxBackoff = 2 * time.Second
	}
	if o.Registry == nil {
		o.Registry = trace.NewRegistry()
	}
}

// Instance is one hfxd process-equivalent: a server.Server with its own
// queue, workers, caches and journal-less lifecycle, served over a real
// loopback listener, plus the client the router submits through.
type Instance struct {
	Index  int
	Srv    *server.Server
	Client *server.Client
	URL    string

	ls net.Listener
	hs *http.Server
}

// Cluster is N instances behind the cache-affinity router. Create with
// New, submit with Submit, stop with Close.
type Cluster struct {
	opts  Options
	insts []*Instance
	reg   *trace.Registry
	store *store.Store // shared across instances when Options.StoreDir is set

	// overloadDepth is the queue depth at which a job's home instance is
	// abandoned for the one with the least outstanding predicted work: a
	// quarter of the instances' queue capacity, at least 2.
	overloadDepth int
}

// New boots the instances — each on its own 127.0.0.1 port — and
// returns the routing front end.
func New(opts Options) (*Cluster, error) {
	opts.fillDefaults()
	if opts.Policy != CacheAffinity {
		return nil, fmt.Errorf("fleet: unknown routing policy %d (cache affinity is the only one)", opts.Policy)
	}
	c := &Cluster{opts: opts, reg: opts.Registry}
	if opts.StoreDir != "" {
		st, err := store.Open(store.Options{
			Dir:      opts.StoreDir,
			HotBytes: opts.Server.CacheBytes,
			Registry: opts.Registry,
		})
		if err != nil {
			return nil, fmt.Errorf("fleet: shared store: %w", err)
		}
		c.store = st
		opts.Server.Store = st
		c.opts = opts
	}
	for _, name := range []string{
		"fleet.submitted", "fleet.cache_hits", "fleet.failover_draining",
		"fleet.rejected_busy", "fleet.retry_sweeps",
	} {
		c.reg.Counter(name)
	}
	for i := 0; i < opts.Instances; i++ {
		srv, err := server.New(opts.Server)
		if err != nil {
			c.Close(context.Background())
			return nil, fmt.Errorf("fleet: instance %d: %w", i, err)
		}
		ls, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Shutdown(context.Background())
			c.Close(context.Background())
			return nil, fmt.Errorf("fleet: instance %d listen: %w", i, err)
		}
		inst := &Instance{
			Index: i,
			Srv:   srv,
			URL:   "http://" + ls.Addr().String(),
			ls:    ls,
			hs:    &http.Server{Handler: srv.Handler()},
		}
		inst.Client = server.NewClient(inst.URL)
		go inst.hs.Serve(ls)
		c.insts = append(c.insts, inst)
		c.reg.Counter(fmt.Sprintf("fleet.inst%d.routed", i))
		// Every instance boots from one template, so they share one
		// (defaulted) queue capacity.
		c.overloadDepth = max(2, srv.QueueCap()/4)
	}
	return c, nil
}

// Instances exposes the booted instances (index-stable).
func (c *Cluster) Instances() []*Instance { return c.insts }

// Store exposes the shared tiered store (nil unless Options.StoreDir).
func (c *Cluster) Store() *store.Store { return c.store }

// Registry exposes the router's metrics registry.
func (c *Cluster) Registry() *trace.Registry { return c.reg }

// DrainInstance begins draining instance i — the lifecycle hook behind
// rolling restarts and the failover tests. It returns once the
// instance's draining flag is visible to routing; queued and in-flight
// jobs keep running in the background and are awaited by Close.
func (c *Cluster) DrainInstance(i int) {
	go c.insts[i].Srv.Shutdown(context.Background())
	for !c.insts[i].Srv.Draining() {
		time.Sleep(100 * time.Microsecond)
	}
}

// Close drains every instance (completing queued and in-flight jobs)
// and tears the listeners down. The first error wins.
func (c *Cluster) Close(ctx context.Context) error {
	var firstErr error
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, inst := range c.insts {
		wg.Add(1)
		go func(inst *Instance) {
			defer wg.Done()
			err := inst.Srv.Shutdown(ctx)
			if herr := inst.hs.Shutdown(ctx); err == nil {
				err = herr
			}
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("fleet: instance %d: %w", inst.Index, err)
				}
				mu.Unlock()
			}
		}(inst)
	}
	wg.Wait()
	// The instances share the store; close it only after every one of
	// them has drained.
	if c.store != nil {
		if err := c.store.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("fleet: shared store: %w", err)
		}
		c.store = nil
	}
	return firstErr
}

// loads snapshots every instance's routing state for one key.
func (c *Cluster) loads(key string) []Load {
	out := make([]Load, len(c.insts))
	for i, inst := range c.insts {
		s := inst.Srv
		out[i] = Load{
			Depth:      s.QueueDepth(),
			QueuedNS:   s.QueuedCostNS(),
			InflightNS: s.InflightCostNS(),
			Draining:   s.Draining(),
			HoldsKey:   s.CacheContains(key),
		}
	}
	return out
}

// Submit routes one job and waits for its result, returning the index
// of the instance that served it. Failover is typed: an instance that
// answers *DrainingError is excluded for the rest of the call (the
// router's load snapshot was stale — the instance began draining after
// it was picked), an instance that answers *BusyError is excluded for
// the current sweep; when a sweep exhausts the fleet with everyone
// busy, Submit backs off by the smallest Retry-After hint (scaled by
// Options.BackoffScale) and sweeps again, up to Options.MaxSweeps.
func (c *Cluster) Submit(ctx context.Context, req server.JobRequest) (*server.JobResult, int, error) {
	key, err := server.CanonicalKey(req)
	if err != nil {
		return nil, -1, err
	}
	drained := make(map[int]bool)
	var lastErr error
	for sweep := 0; sweep < c.opts.MaxSweeps; sweep++ {
		busy := make(map[int]bool)
		var minRetry time.Duration
		for {
			i := decide(c.loads(key), key, c.overloadDepth,
				func(i int) bool { return drained[i] || busy[i] })
			if i < 0 {
				break
			}
			res, err := c.insts[i].Client.Submit(ctx, req)
			if err == nil {
				c.reg.Counter("fleet.submitted").Add(1)
				c.reg.Counter(fmt.Sprintf("fleet.inst%d.routed", i)).Add(1)
				if res.CacheHit {
					c.reg.Counter("fleet.cache_hits").Add(1)
				}
				return res, i, nil
			}
			lastErr = err
			var drainErr *server.DrainingError
			var busyErr *server.BusyError
			switch {
			case errors.As(err, &drainErr):
				drained[i] = true
				c.reg.Counter("fleet.failover_draining").Add(1)
			case errors.As(err, &busyErr):
				busy[i] = true
				c.reg.Counter("fleet.rejected_busy").Add(1)
				if minRetry == 0 || busyErr.RetryAfter < minRetry {
					minRetry = busyErr.RetryAfter
				}
			default:
				return nil, i, err
			}
		}
		if len(drained) == len(c.insts) || len(busy) == 0 || sweep == c.opts.MaxSweeps-1 {
			break
		}
		if minRetry == 0 {
			minRetry = time.Second
		}
		wait := time.Duration(float64(minRetry) * c.opts.BackoffScale)
		if wait > c.opts.MaxBackoff {
			wait = c.opts.MaxBackoff
		}
		c.reg.Counter("fleet.retry_sweeps").Add(1)
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return nil, -1, ctx.Err()
		}
	}
	if lastErr == nil {
		lastErr = errors.New("fleet: no instance available")
	}
	return nil, -1, lastErr
}

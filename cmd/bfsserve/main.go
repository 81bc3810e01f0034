// Command bfsserve is the batching BFS query server: a long-running
// HTTP front end over the bit-parallel multi-source kernel. Queries
// POSTed to /v1/query are routed to their graph, answered from the
// hot-source result cache when possible, coalesced with identical
// in-queue queries otherwise, and formed into MS-BFS batches of up to
// 64 sources (batch full, max-wait elapsed, or a deadline coming due).
// Each registered graph gets its own queue, batch former, session
// pool, and cache, so batches never mix graphs.
//
// Endpoints: /v1/query, /v1/graphs, /v1/metrics, /v1/healthz. The
// pre-v1 paths (/query, /metrics, /healthz) still work and answer with
// a Deprecation header pointing at their successors.
//
// Example:
//
//	bfsserve -addr :8080 -scale 16 -algo 1d -ranks 16 -machine franklin \
//	         -policy slack -max-wait 2ms -sessions 2 -cache-size 256 \
//	         -extra-graph "web,scale=14,seed=7,web"
//
//	curl -s localhost:8080/v1/graphs
//	curl -s localhost:8080/v1/query -d '{"source": 7, "class": "interactive"}'
//	curl -s localhost:8080/v1/query \
//	     -d '{"graph": "web", "source": 3, "deadline_ms": 50}'
//	curl -s localhost:8080/v1/metrics
//
// A query whose deadline cannot be met is shed with 504 and reason
// "deadline"; a full queue answers 429 with a Retry-After estimate.
//
// SIGINT/SIGTERM drains gracefully: admission stops, queued queries
// flush as final batches, and in-flight batches finish before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/serve"
)

var algoNames = map[string]pbfs.Algorithm{
	"1d":        pbfs.OneDFlat,
	"1d-hybrid": pbfs.OneDHybrid,
	"2d":        pbfs.TwoDFlat,
	"2d-hybrid": pbfs.TwoDHybrid,
}

// graphSpec is one -extra-graph flag value: an ID plus enough of the
// generator knobs to build the graph. Zero-valued fields inherit the
// top-level -scale/-edgefactor/-seed defaults at build time.
type graphSpec struct {
	id         string
	scale      int
	edgeFactor int
	seed       uint64
	web        bool
	file       string
}

// parseGraphSpec parses "id[,scale=N][,edgefactor=N][,seed=N][,web][,file=P]".
func parseGraphSpec(s string) (graphSpec, error) {
	parts := strings.Split(s, ",")
	spec := graphSpec{id: strings.TrimSpace(parts[0])}
	if spec.id == "" {
		return spec, fmt.Errorf("graph spec %q: empty id", s)
	}
	for _, p := range parts[1:] {
		key, val, hasVal := strings.Cut(strings.TrimSpace(p), "=")
		var err error
		switch {
		case key == "web" && !hasVal:
			spec.web = true
		case key == "scale":
			spec.scale, err = strconv.Atoi(val)
		case key == "edgefactor":
			spec.edgeFactor, err = strconv.Atoi(val)
		case key == "seed":
			spec.seed, err = strconv.ParseUint(val, 10, 64)
		case key == "file":
			spec.file = val
		default:
			err = fmt.Errorf("unknown key %q", key)
		}
		if err != nil {
			return spec, fmt.Errorf("graph spec %q: %v", s, err)
		}
	}
	return spec, nil
}

// build generates or loads the spec's graph.
func (spec graphSpec) build() (*pbfs.Graph, error) {
	switch {
	case spec.file != "":
		return pbfs.NewGraphFromFile(spec.file)
	case spec.web:
		return pbfs.NewWebCrawlGraph(1<<uint(spec.scale), spec.seed)
	default:
		return pbfs.NewRMATGraph(spec.scale, spec.edgeFactor, spec.seed)
	}
}

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		scale      = flag.Int("scale", 14, "R-MAT scale (2^scale vertices)")
		edgeFactor = flag.Int("edgefactor", 16, "edges per vertex")
		seed       = flag.Uint64("seed", 1, "graph seed")
		web        = flag.Bool("web", false, "use the high-diameter web-crawl generator instead of R-MAT")
		graphFile  = flag.String("graph", "", "serve a binary edge file (cmd/graphgen) instead of a generated graph")
		algoName   = flag.String("algo", "1d", "algorithm: 1d, 1d-hybrid, 2d, 2d-hybrid")
		ranks      = flag.Int("ranks", 16, "emulated rank count")
		threads    = flag.Int("threads", 0, "threads per rank (0 = machine default for hybrid variants)")
		machine    = flag.String("machine", "franklin", "cost model: franklin, hopper, carver, or '' for none")
		batchMax   = flag.Int("batch-max", pbfs.BatchWidth, "dispatch width (clamped to 64, one mask word)")
		maxWait    = flag.Duration("max-wait", 2*time.Millisecond, "max queue wait before a partial batch dispatches")
		queueDepth = flag.Int("queue-depth", 1024, "per-graph pending-queue admission limit")
		policyName = flag.String("policy", "slack", "scheduling policy: fcfs, sjf, priority, slack")
		aging      = flag.Duration("aging", 10*time.Millisecond, "priority-policy aging quantum (priority gains 1 tier per quantum waited)")
		sessions   = flag.Int("sessions", 2, "per-graph session pool size: batches that may execute concurrently")
		cacheSize  = flag.Int("cache-size", serve.DefaultCacheSize, "per-graph hot-source result cache entries (negative disables)")
	)
	var extras []graphSpec
	flag.Func("extra-graph", `register an additional graph: "id[,scale=N][,edgefactor=N][,seed=N][,web][,file=P]" (repeatable)`,
		func(s string) error {
			spec, err := parseGraphSpec(s)
			if err != nil {
				return err
			}
			extras = append(extras, spec)
			return nil
		})
	flag.Parse()

	algo, ok := algoNames[*algoName]
	if !ok {
		fatal(fmt.Errorf("unknown algorithm %q", *algoName))
	}
	policy, err := serve.ParsePolicy(*policyName, *aging)
	if err != nil {
		fatal(err)
	}

	opt := pbfs.Options{Algorithm: algo, Ranks: *ranks, Threads: *threads, Machine: *machine}
	defaultSpec := graphSpec{id: "default", scale: *scale, edgeFactor: *edgeFactor,
		seed: *seed, web: *web, file: *graphFile}
	cfgs := make([]serve.GraphConfig, 0, 1+len(extras))
	for _, spec := range append([]graphSpec{defaultSpec}, extras...) {
		if spec.scale == 0 {
			spec.scale = *scale
		}
		if spec.edgeFactor == 0 {
			spec.edgeFactor = *edgeFactor
		}
		if spec.seed == 0 {
			spec.seed = *seed
		}
		g, err := spec.build()
		if err != nil {
			fatal(fmt.Errorf("graph %s: %v", spec.id, err))
		}
		fmt.Printf("bfsserve: graph %s ready (%d vertices, %d edges)\n",
			spec.id, g.NumVerts(), g.NumEdges())
		cfgs = append(cfgs, serve.GraphConfig{ID: spec.id, Graph: g, Options: opt})
	}

	fmt.Printf("bfsserve: warming %d session(s) per graph...\n", *sessions)
	srv, err := serve.New(serve.Config{
		Graphs:   cfgs,
		BatchMax: *batchMax, MaxWait: *maxWait, QueueDepth: *queueDepth,
		Policy: policy, Sessions: *sessions, CacheSize: *cacheSize,
	})
	if err != nil {
		fatal(err)
	}

	httpSrv := newHTTPServer(*addr, srv.Handler())
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Println("bfsserve: draining...")
		srv.Shutdown() // stop admission, flush the queues, finish in-flight batches
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(ctx)
		snap := srv.Metrics()
		fmt.Printf("bfsserve: drained: %d queries in %d batches (mean occupancy %.1f)\n",
			snap.Queries, snap.Batches, snap.MeanOccupancy)
		for _, gs := range snap.Graphs {
			fmt.Printf("bfsserve:   %-12s %d queries, %d batches, cache hit rate %.2f\n",
				gs.Graph, gs.Queries, gs.Batches, gs.CacheHitRate)
		}
	}()
	fmt.Printf("bfsserve: serving %s (%d graph(s), policy %s, batch<=%d, max-wait %v, queue %d, cache %d)\n",
		*addr, len(cfgs), policy.Name(), *batchMax, *maxWait, *queueDepth, *cacheSize)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	<-done
}

// maxBodyBytes bounds every request body. A /v1/query body is a few
// dozen bytes; anything past the bound is refused before it is decoded.
const maxBodyBytes = 64 << 10

// readHeaderTimeout bounds how long a client may take to send its
// request headers, so idle half-open connections cannot pile up.
const readHeaderTimeout = 10 * time.Second

// newHTTPServer fronts h with the body limit and the header timeout.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           http.MaxBytesHandler(h, maxBodyBytes),
		ReadHeaderTimeout: readHeaderTimeout,
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bfsserve:", err)
	os.Exit(1)
}

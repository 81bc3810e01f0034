package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	pbfs "repro"
	"repro/internal/serve"
)

// served is a server ready to answer: cmd/bfsserve's defaults (1D,
// 16 ranks, franklin, slack policy, 2 sessions per graph, 128 cached
// planes per graph, 2 ms max wait) over an R-MAT graph and a crawl.
type served struct {
	graphs []*pbfs.Graph
	ids    []string
	pools  [][]int64 // per graph, the sources traffic is drawn from
	first  int64     // the set-up query's source on graph 0; in no pool, so traffic never finds it cached
	srv    *serve.Server
}

// coldGen is serve-cold's seeded arrival stream; successive schedules
// continue the same rotations, so the reuse distance holds from the
// warm-up into the windows.
type coldGen struct {
	rng  *rand.Rand
	rots []*rotation
}

func newColdGen(seed uint64, pools [][]int64) *coldGen {
	g := &coldGen{rng: newRand(seed, 10)}
	for _, pool := range pools {
		g.rots = append(g.rots, newRotation(g.rng, pool))
	}
	return g
}

func (g *coldGen) schedule(rate float64, dur time.Duration) []arrival {
	return openSchedule(g.rng, rate, dur, g.rots)
}

var servedIDs = []string{"rmat", "web"}

var serveOpt = pbfs.Options{Algorithm: pbfs.OneDFlat, Ranks: ranks, Machine: "franklin"}

func serveConfig(graphs []*pbfs.Graph) serve.Config {
	cfg := serve.Config{
		BatchMax: pbfs.BatchWidth, MaxWait: 2 * time.Millisecond, QueueDepth: 1024,
		Policy: serve.Slack{}, Sessions: 2, CacheSize: serve.DefaultCacheSize,
	}
	for i, g := range graphs {
		cfg.Graphs = append(cfg.Graphs, serve.GraphConfig{ID: servedIDs[i], Graph: g, Options: serveOpt})
	}
	return cfg
}

// coldServe pays everything an operator pays before the first answer:
// both graphs, the source pools, serve.New's pool warm, one query.
func coldServe(e env, pool int, tr *tracer, parent int) (*served, error) {
	sv := &served{ids: servedIDs}
	var err error
	for i := range servedIDs {
		var g *pbfs.Graph
		tr.timed(parent, "new_graph", "pbfs", func() {
			if i == 0 {
				g, err = pbfs.NewRMATGraph(e.rmatScale(), 16, e.rmatSeed())
			} else {
				g, err = pbfs.NewWebCrawlGraph(e.webVerts(true), e.webSeed())
			}
		})
		if err != nil {
			return nil, fmt.Errorf("serve graph %s: %w", servedIDs[i], err)
		}
		var keys []int64
		tr.timed(parent, "sources", "pbfs", func() { keys = g.Sources(pool+1, subSeed(e.seed, 2+i)) })
		if len(keys) < 2 {
			return nil, fmt.Errorf("serve graph %s has too few usable sources", servedIDs[i])
		}
		if i == 0 {
			sv.first = keys[len(keys)-1]
		}
		sv.graphs, sv.pools = append(sv.graphs, g), append(sv.pools, keys[:len(keys)-1])
	}
	tr.timed(parent, "new", "serve", func() { sv.srv, err = serve.New(serveConfig(sv.graphs)) })
	if err != nil {
		return nil, fmt.Errorf("serve.New: %w", err)
	}
	tr.timed(parent, "first_query", "serve", func() {
		_, err = sv.srv.Do(context.Background(), serve.Query{GraphID: servedIDs[0], Source: sv.first})
	})
	if err != nil {
		sv.srv.Shutdown()
		return nil, fmt.Errorf("first query: %w", err)
	}
	return sv, nil
}

// sample is one served query as the client saw it, with what the
// response said about its way through the server.
type sample struct {
	ms        float64 // latency: from the due instant (open loop) or from send (closed loop)
	waitMs    float64 // server-reported queue wait
	lagMs     float64 // open loop: how late the generator sent it
	reason    string  // "" when served, else the rejection reason or "error"
	cached    bool
	coalesced bool
	spanned   bool // traced pass: this query was recorded as spans
}

// traffic is a window plus the per-query samples the serve.* metrics
// are computed from.
type traffic struct {
	*window
	samples []sample
}

// record books one finished query into the window. Callers serialise.
func (t *traffic) record(op, graph int, source int64, s sample, sum uint64) {
	t.samples = append(t.samples, s)
	if s.reason != "" {
		t.refused[op] = true
		return
	}
	t.latencies = append(t.latencies, s.ms)
	t.sources++
	t.answers = append(t.answers, answer{op: op, graph: graph, source: source, sum: sum})
}

func rejectReason(err error) string {
	if rej, ok := serve.AsReject(err); ok {
		return rej.Reason
	}
	return "error"
}

// openLoop sends sched on schedule from this goroutine, whatever the
// server does with it, and a second goroutine collects the responses.
// Latency runs from the instant a query was due, so a generator stall
// or a full server counts against the queries behind it.
func (sv *served) openLoop(sched []arrival, tr *tracer) *traffic {
	type pending struct {
		op   int
		due  time.Time
		sent time.Time
		ch   <-chan *serve.Response
	}
	t := &traffic{}
	t.window = measure(func(win *window) {
		t.window = win
		var mu sync.Mutex // generator (refusals) and collector both record
		// Sized to the number of sends, so the generator never waits
		// on the collector.
		inflight := make(chan pending, len(sched))
		done := make(chan struct{})
		go func() {
			defer close(done)
			for p := range inflight {
				resp := <-p.ch
				a := sched[p.op]
				s := sample{lagMs: ms(p.sent.Sub(p.due))}
				var sum uint64
				if resp.Err != nil {
					s.reason = rejectReason(resp.Err)
				} else {
					s.ms = ms(resp.Completed.Sub(p.due))
					s.waitMs = ms(resp.QueueWait)
					s.cached, s.coalesced = resp.Cached, resp.Coalesced
					sum = checksum(resp.Dist, resp.Levels)
					if s.spanned = tr != nil && p.op%2 == 1; s.spanned {
						tr.query(p.op, p.due, p.sent, resp.QueueWait, resp.Completed)
					}
				}
				mu.Lock()
				t.record(p.op, a.graph, a.source, s, sum)
				mu.Unlock()
			}
		}()
		start := time.Now()
		for i, a := range sched {
			due := start.Add(a.due)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			q := serve.Query{GraphID: sv.ids[a.graph], Source: a.source}
			if a.deadline {
				q.Deadline = due.Add(deadlineAfter)
			}
			sent := time.Now()
			ch, err := sv.srv.SubmitQuery(q)
			win.ops++
			if err != nil {
				mu.Lock()
				t.record(i, a.graph, a.source, sample{lagMs: ms(sent.Sub(due)), reason: rejectReason(err)}, 0)
				mu.Unlock()
				continue
			}
			inflight <- pending{op: i, due: due, sent: sent, ch: ch}
		}
		close(inflight)
		<-done
	})
	return t
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func fromMs(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

// query records one served query as a span from its due instant to
// its completion, with the queue wait and the execution the response
// reported as children.
func (t *tracer) query(op int, due, sent time.Time, wait time.Duration, end time.Time) {
	if t == nil {
		return
	}
	id := t.add(0, "query", "serve", op, due, end)
	split := sent.Add(wait)
	t.add(id, "queue_wait", "serve", op, sent, split)
	t.add(id, "exec", "serve", op, split, end)
}

// listen puts the server's handler on a loopback port.
func (sv *served) listen() (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("listen on loopback: %w", err)
	}
	hs := &http.Server{Handler: sv.srv.Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns ErrServerClosed on stop
	}()
	stop = func() {
		_ = hs.Close() // the clients are gone; nothing in flight to drain
		<-done
	}
	return "http://" + ln.Addr().String() + "/v1/query", stop, nil
}

// httpClient is one closed-loop caller: a keep-alive connection that
// posts its next query when the previous response has been read.
type httpClient struct {
	c    *http.Client
	url  string
	body bytes.Buffer
}

func newHTTPClient(url string) *httpClient {
	return &httpClient{url: url, c: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
}

// query posts one query asking for the distance vector and returns
// the latency to the last body byte and what the body said.
func (h *httpClient) query(graph string, source int64) (sample, uint64) {
	req := fmt.Sprintf(`{"graph":%q,"source":%d,"dist":true}`, graph, source)
	start := time.Now()
	resp, err := h.c.Post(h.url, "application/json", strings.NewReader(req))
	if err != nil {
		return sample{reason: "error"}, 0
	}
	h.body.Reset()
	_, err = h.body.ReadFrom(resp.Body)
	_ = resp.Body.Close() // the body was read to its end or failed; nothing left to flush
	s := sample{ms: msSince(start)}
	if err != nil {
		return sample{reason: "error"}, 0
	}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		s.reason = "error"
		if json.Unmarshal(h.body.Bytes(), &e) == nil && e.Error != "" {
			s.reason = e.Error
		}
		return s, 0
	}
	hdr, sum, err := parseQueryBody(h.body.Bytes())
	if err != nil {
		return sample{reason: "error"}, 0
	}
	s.waitMs = float64(hdr.QueueWaitNs) / 1e6
	s.cached, s.coalesced = hdr.Cached, hdr.Coalesced
	return s, sum
}

// parseQueryBody reads a /v1/query response without paying
// encoding/json for 2^16 numbers: the "dist" array is cut out and
// folded into the checksum by hand, the rest is decoded normally.
func parseQueryBody(b []byte) (serve.QueryResponse, uint64, error) {
	var hdr serve.QueryResponse
	const key = `"dist":[`
	lo := bytes.Index(b, []byte(key))
	if lo < 0 {
		return hdr, 0, fmt.Errorf("response carries no dist array")
	}
	h := uint64(fnvOffset)
	i := lo + len(key)
	for i < len(b) && b[i] != ']' {
		neg := b[i] == '-'
		if neg {
			i++
		}
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return hdr, 0, fmt.Errorf("dist array: unexpected byte %q", b[i-1])
		}
		var d int64
		for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
			d = d*10 + int64(b[i]-'0')
		}
		if neg {
			d = -d
		}
		h = fnvWord(h, d)
		if i < len(b) && b[i] == ',' {
			i++
		}
	}
	if i >= len(b) {
		return hdr, 0, fmt.Errorf("dist array is not closed")
	}
	rest := make([]byte, 0, len(b)-(i-lo))
	rest = append(rest, b[:lo]...)
	rest = append(rest, `"dist":[]`...)
	rest = append(rest, b[i+1:]...)
	if err := json.Unmarshal(rest, &hdr); err != nil {
		return hdr, 0, fmt.Errorf("decode response: %w", err)
	}
	return hdr, fnvWord(h, hdr.Levels), nil
}

// closedHTTP runs one closed-loop client per processor for dur, each
// drawing its own Zipf stream.
func (sv *served) closedHTTP(url string, pickers []*zipfPicker, dur time.Duration, tr *tracer) *traffic {
	t := &traffic{}
	t.window = measure(func(win *window) {
		t.window = win
		var mu sync.Mutex
		var wg sync.WaitGroup
		deadline := time.Now().Add(dur)
		for c := range pickers {
			wg.Add(1)
			go func(pick *zipfPicker) {
				defer wg.Done()
				client := newHTTPClient(url)
				defer client.c.CloseIdleConnections()
				for time.Now().Before(deadline) {
					graph, source := pick.pick()
					sent := time.Now()
					s, sum := client.query(sv.ids[graph], source)
					mu.Lock()
					op := win.ops
					win.ops++
					if s.spanned = tr != nil && op%2 == 1 && s.reason == ""; s.spanned {
						tr.query(op, sent, sent, fromMs(s.waitMs), sent.Add(fromMs(s.ms)))
					}
					t.record(op, graph, source, s, sum)
					mu.Unlock()
				}
			}(pickers[c])
		}
		wg.Wait()
	})
	return t
}

// runServe is the untraced pass of a serving workload.
func (w *workload) runServe(e env) (*outcome, error) {
	sv, setup, err := coldMedian(func() (*served, error) { return coldServe(e, w.poolSize(), nil, 0) },
		func(sv *served) { sv.srv.Shutdown() })
	if err != nil {
		return nil, err
	}
	defer sv.srv.Shutdown()
	drive, stop, err := w.loadFor(e, sv)
	if err != nil {
		return nil, err
	}
	defer stop()
	drive(e.window/5, nil) // warm-up: the engines' arenas, and for serve-http the cache
	out := newOutcome()
	out.metrics["setup_s"] = setup
	t := drive(e.window, nil)
	t.score(newVerifier(sv.graphs...), out)
	out.notes["generator_lag_ms_p99"] = lagP99(t.samples)
	return out, nil
}

func (w *workload) poolSize() int {
	if w.kind == serveCold {
		return coldPool
	}
	return hotPool
}

// loadFor returns the function that drives one window of the
// workload's traffic against sv; successive windows continue the same
// seeded streams.
func (w *workload) loadFor(e env, sv *served) (drive func(time.Duration, *tracer) *traffic, stop func(), err error) {
	if w.kind == serveCold {
		gen := newColdGen(e.seed, sv.pools)
		return func(dur time.Duration, tr *tracer) *traffic {
			return sv.openLoop(gen.schedule(coldRate, dur), tr)
		}, func() {}, nil
	}
	url, stop, err := sv.listen()
	if err != nil {
		return nil, nil, err
	}
	var pickers []*zipfPicker
	for c := 0; c < procs(); c++ {
		pickers = append(pickers, newZipfPicker(newRand(e.seed, 20+c), sv.pools))
	}
	return func(dur time.Duration, tr *tracer) *traffic {
		return sv.closedHTTP(url, pickers, dur, tr)
	}, stop, nil
}

func lagP99(samples []sample) float64 {
	var lags []float64
	for _, s := range samples {
		lags = append(lags, s.lagMs)
	}
	v, _ := percentile(lags, 99)
	return v
}

// runServeTraced is the traced pass: set-up with spans, the layer
// chain, the traced window, then the serving probes.
func (w *workload) runServeTraced(e env) (*outcome, error) {
	out := newOutcome()
	m := out.metrics
	tr := newTracer()

	root := tr.begin(0, "setup", "benchmark", 0)
	start := time.Now()
	sv, err := coldServe(e, w.poolSize(), tr, root)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	defer sv.srv.Shutdown()
	out.notes["setup_s"] = time.Since(start).Seconds()
	m["serve.new_s"] = spanSeconds(tr, "new")

	ls := &layerState{seconds: map[string]float64{}}
	defer ls.close()
	chainRoot := tr.begin(0, "layer_setup", "benchmark", 0)
	for _, spec := range []graphSpec{{}, {web: true, served: true}} {
		if err := ls.chain(e, tr, chainRoot, spec, serveOpt); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	tr.end(chainRoot)
	for k, v := range ls.seconds {
		m[k] = v
	}

	drive, stop, err := w.loadFor(e, sv)
	if err != nil {
		return nil, err
	}
	defer stop()
	drive(e.window/5, nil)
	before := sv.srv.Metrics()
	t := drive(e.window, tr)
	after := sv.srv.Metrics()
	// Every other query was recorded as spans, after its latency had
	// been taken: the two halves differ by what recording costs the
	// process as a whole.
	var plain, spanned []float64
	for _, s := range t.samples {
		switch {
		case s.reason != "":
		case s.spanned:
			spanned = append(spanned, s.ms)
		default:
			plain = append(plain, s.ms)
		}
	}
	out.addTraced(newVerifier(sv.graphs...), t.window, plain, spanned)
	serveMetrics(m, t.samples, before, after)
	m["serve.exec_ms_p50"] = execP50(t.samples)
	m["serve.generator_lag_ms_p99"] = lagP99(t.samples)

	if w.kind == serveCold {
		m["serve.max_ok_rate_qps"] = sv.rateSweep(e)
	}
	if err := sv.serveProbes(tr, m, e.smoke); err != nil {
		return nil, err
	}
	hostProbes(sv.graphs[0], sv.pools[0][:min(searchKeys, len(sv.pools[0]))], tr, m, e.smoke)
	out.spans = tr.spans
	return out, nil
}

// serveMetrics fills the serve.* shares and waits from one window's
// samples and the server's own counters across it.
func serveMetrics(m map[string]float64, samples []sample, before, after serve.Snapshot) {
	n := float64(len(samples))
	if n == 0 {
		return
	}
	var waits []float64
	var hits, coalesced, shed, full, late float64
	for _, s := range samples {
		switch {
		case s.reason == serve.RejectDeadline:
			shed++
		case s.reason == serve.RejectQueueFull:
			full++
		}
		if s.reason != "" || s.ms > lateLimitMs {
			late++
		}
		if s.reason != "" {
			continue
		}
		if s.cached {
			hits++
		}
		if s.coalesced {
			coalesced++
		}
		waits = append(waits, s.waitMs)
	}
	m["serve.queue_wait_ms_p50"], _ = percentile(waits, 50)
	m["serve.queue_wait_ms_p90"], _ = percentile(waits, 90)
	m["serve.cache_hit_share"] = hits / n
	m["serve.coalesced_share"] = coalesced / n
	m["serve.shed_share"] = shed / n
	m["serve.queue_full_share"] = full / n
	m["serve.late_share"] = late / n
	batches := float64(after.Batches - before.Batches)
	m["serve.batches"] = batches
	if batches > 0 {
		// Snapshot carries the lifetime mean; undo it to get the window's.
		m["serve.batch_occupancy_mean"] = (after.MeanOccupancy*float64(after.Batches) -
			before.MeanOccupancy*float64(before.Batches)) / batches
	}
}

// execP50 is the median of latency minus reported queue wait over the
// queries a kernel batch answered.
func execP50(samples []sample) float64 {
	var exec []float64
	for _, s := range samples {
		if s.reason == "" && !s.cached {
			exec = append(exec, s.ms-s.waitMs)
		}
	}
	return median(exec)
}

// rateSweep offers fixed rates in rising order, each for a tenth of
// the window, and returns the highest whose p90 met the limit with
// nothing refused and no backlog left growing: the server drained
// what was outstanding within the limit after the last arrival.
func (sv *served) rateSweep(e env) float64 {
	// A stream of its own: the sweep runs after the windows, and a
	// fresh permutation of a pool twice the cache still never repeats
	// a source the cache holds for long.
	gen := newColdGen(subSeed(e.seed, 30), sv.pools)
	best := 0.0
	for _, rate := range []float64{100, 200, 400} {
		dur := e.window / 10
		t := sv.openLoop(gen.schedule(rate, dur), nil)
		p90, _ := percentile(t.latencies, 90)
		drained := t.wall - dur
		if len(t.refused) > 0 || p90 > lateLimitMs || drained > lateLimitMs*time.Millisecond {
			break
		}
		best = rate
	}
	return best
}

// serveProbes times the serving tier's pieces on their own.
func (sv *served) serveProbes(tr *tracer, m map[string]float64, smoke bool) error {
	n := 20000
	if smoke {
		n = 500
	}
	// Queue.Push: admission's bounded-queue step.
	q := serve.NewQueue(n)
	clock := serve.NewFakeClock(time.Unix(0, 0))
	reqs := make([]serve.Request, n)
	id := tr.begin(0, "queue_push", "serve", 0)
	start := time.Now()
	for i := range reqs {
		reqs[i] = serve.Request{ID: uint64(i), Source: int64(i), Enqueued: clock.Now()}
		if err := q.Push(&reqs[i]); err != nil {
			return fmt.Errorf("queue push probe: %w", err)
		}
	}
	m["serve.queue_push_ns"] = float64(time.Since(start).Nanoseconds()) / float64(n)
	tr.end(id)

	// Former.Next on a fake clock: a full batch is pending each call,
	// so every call sorts by policy and takes 64.
	fq := serve.NewQueue(2 * pbfs.BatchWidth)
	former := &serve.Former{Queue: fq, Policy: serve.Slack{}, BatchMax: pbfs.BatchWidth, MaxWait: 2 * time.Millisecond}
	var formed time.Duration
	calls := n / pbfs.BatchWidth
	id = tr.begin(0, "former_next", "serve", 0)
	for c := 0; c < calls; c++ {
		for i := 0; i < pbfs.BatchWidth; i++ {
			r := &reqs[(c*pbfs.BatchWidth+i)%n]
			r.Enqueued = clock.Now()
			if err := fq.Push(r); err != nil {
				return fmt.Errorf("former probe: %w", err)
			}
		}
		clock.Advance(2 * time.Millisecond)
		start := time.Now()
		batch, _ := former.Next(clock.Now())
		formed += time.Since(start)
		if len(batch) != pbfs.BatchWidth {
			return fmt.Errorf("former probe: formed %d of %d", len(batch), pbfs.BatchWidth)
		}
	}
	tr.end(id)
	if calls > 0 {
		m["serve.former_next_ns"] = float64(formed.Nanoseconds()) / float64(calls)
	}

	// One hot source, answered from the cache from here on.
	hot := serve.Query{GraphID: sv.ids[0], Source: sv.pools[0][0]}
	resp, err := sv.srv.Do(context.Background(), hot)
	if err != nil {
		return fmt.Errorf("hot query: %w", err)
	}

	// JSON encoding of one response carrying the distance vector.
	body := serve.QueryResponse{ID: resp.ID, Graph: resp.Graph, Source: resp.Source, Class: resp.Class,
		Levels: resp.Levels, Reached: resp.Reached, Dist: resp.Dist}
	var encMs []float64
	var buf bytes.Buffer
	id = tr.begin(0, "json_encode", "serve", 0)
	for i := 0; i < 30; i++ {
		buf.Reset()
		start := time.Now()
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return fmt.Errorf("json probe: %w", err)
		}
		encMs = append(encMs, msSince(start))
	}
	tr.end(id)
	m["serve.json_encode_ms"] = median(encMs)

	// HTTP on top of the in-process call, both answered from cache.
	url, stop, err := sv.listen()
	if err != nil {
		return err
	}
	defer stop()
	client := newHTTPClient(url)
	defer client.c.CloseIdleConnections()
	var overHTTP, inProc []float64
	id = tr.begin(0, "http_overhead", "serve", 0)
	for i := 0; i < 100; i++ {
		s, _ := client.query(hot.GraphID, hot.Source)
		if s.reason != "" {
			return fmt.Errorf("http probe: query refused: %s", s.reason)
		}
		overHTTP = append(overHTTP, s.ms)
		start := time.Now()
		if _, err := sv.srv.Do(context.Background(), hot); err != nil {
			return fmt.Errorf("http probe: %w", err)
		}
		inProc = append(inProc, msSince(start))
	}
	tr.end(id)
	m["serve.http_overhead_ms_p50"] = median(overHTTP) - median(inProc)
	return nil
}

package serve

// The /v1/query 200 body is built by appendQuery, not by encoding/json
// over the whole response. These tests hold it byte-identical to what
// json.NewEncoder(w).Encode wrote before (clients such as benchmark/'s
// parseQueryBody cut the dist array out of the raw bytes), pin its
// allocation count, and fuzz the handler's request decoding.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"

	pbfs "repro"
)

// encodingJSON is the body encoding/json writes for out, the reference
// appendQuery must match byte for byte.
func encodingJSON(out QueryResponse) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(out)
	return buf.Bytes(), err
}

// queryCases is the encoder's table: vector shapes, extreme values, and
// strings encoding/json escapes.
func queryCases() map[string]QueryResponse {
	head := QueryResponse{
		ID: 7, Graph: "rmat", Source: 3, Class: "standard",
		Levels: 5, Reached: 40, TraversedEdges: 612,
		Batch: 2, Occupancy: 9, QueueWaitNs: 1234,
		SimTimeSeconds: 1.5e-4, TEPS: 4.08e6,
	}
	with := func(f func(*QueryResponse)) QueryResponse {
		out := head
		f(&out)
		return out
	}
	return map[string]QueryResponse{
		"no vectors":    head,
		"empty vectors": with(func(o *QueryResponse) { o.Dist, o.Parent = []int64{}, []int64{} }),
		"dist only":     with(func(o *QueryResponse) { o.Dist = []int64{0, 1, 2, -1, 1} }),
		"parent only":   with(func(o *QueryResponse) { o.Parent = []int64{0, 0, 1, -1, 0} }),
		"empty dist, parent": with(func(o *QueryResponse) {
			o.Dist, o.Parent = []int64{}, []int64{3, 3, -1}
		}),
		"one element": with(func(o *QueryResponse) { o.Dist, o.Parent = []int64{0}, []int64{0} }),
		"extremes": with(func(o *QueryResponse) {
			o.Dist = []int64{-1, math.MinInt64, math.MaxInt64, 9, 10, -10, 1 << 40}
			o.Parent = []int64{math.MaxInt64, -1, math.MinInt64}
		}),
		"int32 extremes": with(func(o *QueryResponse) {
			o.Dist = []int64{-1, math.MinInt32, math.MaxInt32, 9, 10, -10, 1 << 20}
			o.Parent = []int64{math.MaxInt32, -1, math.MinInt32}
		}),
		"escaped strings": with(func(o *QueryResponse) {
			o.Graph = "q\"uote\\back<lt>&amp\u2028line\u2029para"
			o.Class = "<script>&\"\\\u2028\xff"
			o.Dist = []int64{-1}
		}),
		"flags and zero floats": with(func(o *QueryResponse) {
			o.Cached, o.Coalesced = true, true
			o.SimTimeSeconds, o.TEPS = 0, 0
			o.Parent = []int64{1}
		}),
	}
}

// narrowed returns out with its vectors moved to the 32-bit fields a
// cache hit fills, and whether every value fit.
func narrowed(out QueryResponse) (QueryResponse, bool) {
	for _, v := range [][]int64{out.Dist, out.Parent} {
		for _, x := range v {
			if x != int64(int32(x)) {
				return out, false
			}
		}
	}
	if out.Dist != nil {
		out.dist32 = narrow(out.Dist)
	}
	if out.Parent != nil {
		out.parent32 = narrow(out.Parent)
	}
	out.Dist, out.Parent = nil, nil
	return out, true
}

func TestWriteQueryMatchesEncodingJSON(t *testing.T) {
	check := func(name string, out QueryResponse, want []byte) {
		t.Helper()
		before := out
		rec := httptest.NewRecorder()
		writeQuery(rec, &out)
		if rec.Code != http.StatusOK {
			t.Errorf("%s: status %d", name, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", name, ct)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
			t.Errorf("%s: Content-Length %s, body %d bytes", name, cl, len(want))
		}
		if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
			t.Errorf("%s: body differs from encoding/json\n got: %s\nwant: %s", name, got, want)
		}
		if !reflect.DeepEqual(out, before) {
			t.Errorf("%s: writeQuery changed its argument", name)
		}
	}
	for name, out := range queryCases() {
		want, err := encodingJSON(out)
		if err != nil {
			t.Fatalf("%s: encoding/json: %v", name, err)
		}
		check(name, out, want)
		// A cache hit's 32-bit vectors encode as their widened form.
		if hit, ok := narrowed(out); ok {
			check(name+" (int32)", hit, want)
		}
	}
}

// int64s decodes b as little-endian words (a trailing partial word is
// dropped), so the fuzzer reaches every int64 bit pattern.
func int64s(b []byte) []int64 {
	v := make([]int64, len(b)/8)
	for i := range v {
		v[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return v
}

// int32s decodes b as little-endian 32-bit words, as int64s does.
func int32s(b []byte) []int32 {
	v := make([]int32, len(b)/4)
	for i := range v {
		v[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return v
}

// int64Bytes is int64s' inverse, for seeding the corpus.
func int64Bytes(v []int64) []byte {
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(x))
	}
	return b
}

func FuzzWriteQuery(f *testing.F) {
	for _, out := range queryCases() {
		f.Add(out.Graph, out.Class, int64Bytes(out.Dist), int64Bytes(out.Parent),
			out.Levels, out.SimTimeSeconds, out.TEPS, out.Cached)
	}
	f.Fuzz(func(t *testing.T, graph, class string, dist, parent []byte,
		levels int64, sim, teps float64, cached bool) {
		out := QueryResponse{
			ID: 1, Graph: graph, Source: levels / 3, Class: class,
			Levels: levels, Cached: cached, Coalesced: !cached,
			SimTimeSeconds: sim, TEPS: teps,
			Dist: int64s(dist), Parent: int64s(parent),
		}
		want, wantErr := encodingJSON(out)
		got, err := appendQuery(nil, &out)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("appendQuery error %v, encoding/json error %v", err, wantErr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("body differs from encoding/json\n got: %s\nwant: %s", got, want)
		}
		// The same bytes as a cache hit's 32-bit vectors encode as
		// encoding/json writes their widened []int64.
		out.dist32, out.parent32 = int32s(dist), int32s(parent)
		out.Dist, out.Parent = widen(out.dist32), widen(out.parent32)
		want, wantErr = encodingJSON(out)
		out.Dist, out.Parent = nil, nil
		got, err = appendQuery(nil, &out)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("int32: appendQuery error %v, encoding/json error %v", err, wantErr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("int32: body differs from encoding/json\n got: %s\nwant: %s", got, want)
		}
	})
}

// discardWriter is an http.ResponseWriter that drops the body, so the
// allocations a test counts are the encoder's own.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

func TestWriteQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of Puts under -race")
	}
	out := QueryResponse{Graph: "rmat", Class: "standard", Dist: make([]int64, 1<<16)}
	for i := range out.Dist {
		out.Dist[i] = int64(i%9) - 1
	}
	// A cache hit's body: the same vector as the plane's 32-bit words.
	hit := QueryResponse{Graph: "rmat", Class: "standard", Cached: true, dist32: narrow(out.Dist)}
	w := &discardWriter{h: http.Header{}}
	for name, out := range map[string]*QueryResponse{"miss": &out, "hit": &hit} {
		writeQuery(w, out) // warm the pool to the body's size
		// Four: the head json.Marshal returns, the Content-Length
		// string, and one value slice per Header.Set. A body-sized
		// buffer per request would show as more.
		if n := testing.AllocsPerRun(50, func() { writeQuery(w, out) }); n > 4 {
			t.Errorf("%s: warm writeQuery of a 2^16-entry vector allocates %v times, want <= 4", name, n)
		}
	}
}

// BenchmarkWriteQuery times one scale-16 R-MAT distance vector's body
// through encoding/json, the handler's old path, and through
// writeQuery.
func BenchmarkWriteQuery(b *testing.B) {
	g, err := pbfs.NewRMATGraph(16, 16, 191)
	if err != nil {
		b.Fatal(err)
	}
	out := QueryResponse{Graph: "rmat", Class: "standard", Dist: g.SerialBFS(g.Sources(1, 191)[0]).Dist}
	w := &discardWriter{h: http.Header{}}
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			writeJSON(w, http.StatusOK, out)
		}
	})
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			writeQuery(w, &out)
		}
	})
}

func FuzzQueryRequest(f *testing.F) {
	g, err := pbfs.NewRMATGraph(5, 8, 3)
	if err != nil {
		f.Fatal(err)
	}
	srv, err := New(Config{
		Graphs: []GraphConfig{{ID: "g", Graph: g, Options: pbfs.Options{Algorithm: pbfs.OneDFlat, Ranks: 4}}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Shutdown)
	h := srv.Handler()
	for _, body := range []string{
		`{"source":3,"dist":true,"parent":true}`,
		`{"graph":"g","source":1,"class":"interactive","deadline_ms":50}`,
		`{"graph":"nope","source":0}`,
		`{"source":-1}`,
		`{"source":0,"class":"vip"}`,
		`{"source":2,"no_cache":true,"deadline_ms":-5}`,
		`{"source":4,"deadline_ms":9223372036854775807}`,
		`{"source":"7"}`,
		`{not json`,
		``,
		`null`,
	} {
		f.Add([]byte(body))
	}
	allowed := map[int]bool{http.StatusOK: true, http.StatusMethodNotAllowed: true, http.StatusInternalServerError: true}
	for _, status := range RejectStatus {
		allowed[status] = true
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
		if !allowed[rec.Code] {
			t.Errorf("body %q: status %d", body, rec.Code)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Errorf("body %q: reply is not JSON: %q", body, rec.Body.Bytes())
		}
	})
}

// vector returns the array body encodes under key, brackets included.
func vector(t *testing.T, body []byte, key string) []byte {
	t.Helper()
	lo := bytes.Index(body, []byte(`"`+key+`":[`))
	if lo < 0 {
		t.Fatalf("body carries no %s array: %.200s", key, body)
	}
	lo += len(key) + 3
	hi := bytes.IndexByte(body[lo:], ']')
	if hi < 0 {
		t.Fatalf("%s array is not closed", key)
	}
	return body[lo-1 : lo+hi+1]
}

func TestHTTPCachedVectorsMatchMiss(t *testing.T) {
	// Over HTTP a hit encodes the cached 32-bit plane without widening
	// it; its arrays must be the producing miss's, byte for byte. The
	// R-MAT source leaves vertices unreached (-1 in both arrays); the
	// crawl is connected, but its ~130 levels and large vertex IDs take
	// the multi-digit path.
	rmat, err := pbfs.NewRMATGraph(8, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	crawl, err := pbfs.NewWebCrawlGraph(1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	opt := pbfs.Options{Algorithm: pbfs.OneDFlat, Ranks: 4}
	srv, err := New(Config{Graphs: []GraphConfig{
		{ID: "rmat", Graph: rmat, Options: opt},
		{ID: "crawl", Graph: crawl, Options: opt},
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)
	h := srv.Handler()
	post := func(graph string) ([]byte, QueryResponse) {
		t.Helper()
		rec := httptest.NewRecorder()
		body := `{"graph":"` + graph + `","source":3,"dist":true,"parent":true}`
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader([]byte(body))))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", graph, rec.Code, rec.Body.Bytes())
		}
		var out QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		return rec.Body.Bytes(), out
	}
	for _, graph := range []string{"rmat", "crawl"} {
		post(graph) // a first sighting: only the source is remembered
		missBody, miss := post(graph)
		hitBody, hit := post(graph)
		if miss.Cached || !hit.Cached || hit.Batch != miss.Batch {
			t.Fatalf("%s: cached %v then %v, batches %d and %d: want a miss, then its hit",
				graph, miss.Cached, hit.Cached, miss.Batch, hit.Batch)
		}
		for _, key := range []string{"dist", "parent"} {
			want, got := vector(t, missBody, key), vector(t, hitBody, key)
			if !bytes.Equal(got, want) {
				t.Errorf("%s: hit's %s array differs from the miss's", graph, key)
			}
			if graph == "rmat" && !bytes.Contains(want, []byte("-1")) {
				t.Errorf("rmat: %s array has no unreached vertex", key)
			}
		}
	}
}

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
	"time"

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

func TestWriteQueryMatchesEncodingJSON(t *testing.T) {
	for name, out := range queryCases() {
		want, err := encodingJSON(out)
		if err != nil {
			t.Fatalf("%s: encoding/json: %v", name, err)
		}
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
	w := &discardWriter{h: http.Header{}}
	writeQuery(w, &out) // warm the pool to the body's size
	// Four: the head json.Marshal returns, the Content-Length string,
	// and one value slice per Header.Set. A body-sized buffer per
	// request would show as more.
	if n := testing.AllocsPerRun(50, func() { writeQuery(w, &out) }); n > 4 {
		t.Errorf("warm writeQuery of a 2^16-entry vector allocates %v times, want <= 4", n)
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
		// Width one: every admitted query dispatches at once, so no
		// input leaves the fuzzer waiting on MaxWait.
		BatchMax: 1, MaxWait: time.Millisecond,
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

package serve

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// RejectStatus is the single rejection-reason → HTTP status table the
// handler and its tests share: one row per reason, so a new reason
// that misses the table fails loudly (statusOf maps unknown reasons to
// 500) instead of silently picking a default branch.
var RejectStatus = map[string]int{
	RejectQueueFull: http.StatusTooManyRequests,
	RejectDraining:  http.StatusServiceUnavailable,
	RejectBadSource: http.StatusBadRequest,
	RejectBadClass:  http.StatusBadRequest,
	RejectBadGraph:  http.StatusNotFound,
	RejectDeadline:  http.StatusGatewayTimeout,
}

// statusOf resolves a rejection reason through RejectStatus.
func statusOf(reason string) int {
	if status, ok := RejectStatus[reason]; ok {
		return status
	}
	return http.StatusInternalServerError
}

// QueryRequest is the /v1/query request body.
type QueryRequest struct {
	// Graph names the registered graph to search; empty means the
	// default graph.
	Graph  string `json:"graph,omitempty"`
	Source int64  `json:"source"`
	Class  string `json:"class,omitempty"`
	// DeadlineMs, when positive, is the query's SLO budget in
	// milliseconds from arrival: the server sheds the query (HTTP 504)
	// rather than serve it after the budget elapses.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	// NoCache bypasses the hot-source result cache for this query.
	NoCache bool `json:"no_cache,omitempty"`
	// Dist and Parent request the full per-vertex vectors in the
	// response (they are NumVerts entries each, so clients opt in).
	Dist   bool `json:"dist,omitempty"`
	Parent bool `json:"parent,omitempty"`
}

// QueryResponse is the /v1/query response body for a served query.
type QueryResponse struct {
	ID             uint64  `json:"id"`
	Graph          string  `json:"graph"`
	Source         int64   `json:"source"`
	Class          string  `json:"class"`
	Levels         int64   `json:"levels"`
	Reached        int64   `json:"reached"`
	TraversedEdges int64   `json:"traversed_edges"`
	Batch          uint64  `json:"batch"`
	Occupancy      int     `json:"occupancy"`
	Cached         bool    `json:"cached,omitempty"`
	Coalesced      bool    `json:"coalesced,omitempty"`
	QueueWaitNs    int64   `json:"queue_wait_ns"`
	SimTimeSeconds float64 `json:"sim_time_seconds"`
	TEPS           float64 `json:"teps"`

	Dist   []int64 `json:"dist,omitempty"`
	Parent []int64 `json:"parent,omitempty"`

	// dist32 and parent32, when set, are encoded in place of Dist and
	// Parent: a cache hit's vectors, written without widening.
	dist32, parent32 []int32
}

// errorBody is the JSON envelope of every non-200 response.
type errorBody struct {
	Error string `json:"error"`
}

// Handler returns the server's HTTP API, versioned under /v1/:
//
//	POST /v1/query   {"graph": "social", "source": 7, "class": "interactive",
//	                  "deadline_ms": 50, "dist": true}
//	GET  /v1/graphs  registered graphs in registration order
//	GET  /v1/metrics per-SLO-class and per-graph Snapshot
//	GET  /v1/healthz {"status": "ok"} — 503 once draining
//
// Rejections map to status codes through RejectStatus (queue_full →
// 429 with a Retry-After backpressure hint, draining → 503,
// bad_source/unknown_class → 400, unknown_graph → 404, deadline →
// 504).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", s.handleQuery)
	mux.HandleFunc("/v1/graphs", s.handleGraphs)
	mux.HandleFunc("/v1/metrics", s.handleMetrics)
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// queryBufs recycles /v1/query body buffers: one scale-16 distance
// vector encodes to about 150 KB, which every request would otherwise
// allocate afresh.
var queryBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeQuery sends out as the /v1/query 200 body: built by appendQuery
// in a pooled buffer and written in one Write with its Content-Length.
func writeQuery(w http.ResponseWriter, out *QueryResponse) {
	buf := queryBufs.Get().(*[]byte)
	defer queryBufs.Put(buf)
	b, err := appendQuery((*buf)[:0], out)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	*buf = b
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	// A failed write means the client went away; there is no one left
	// to report it to.
	_, _ = w.Write(b)
}

// appendQuery appends to dst the /v1/query 200 body for out, byte for
// byte what json.NewEncoder(w).Encode(out) writes: field order, HTML
// escaping, omitted empty vectors and the trailing newline included;
// a 32-bit vector (dist32, parent32) encodes as its widened Dist or
// Parent would. encoding/json writes the scalar head; the vectors,
// which are nearly all of the body, are appended with
// strconv.AppendInt instead of reflected over one element at a time.
func appendQuery(dst []byte, out *QueryResponse) ([]byte, error) {
	dist, parent := out.Dist, out.Parent
	out.Dist, out.Parent = nil, nil // omitted from the head, appended below
	head, err := json.Marshal(out)
	out.Dist, out.Parent = dist, parent
	if err != nil {
		return dst, err
	}
	dst = append(dst, head[:len(head)-1]...) // all but the closing brace
	if out.dist32 != nil {
		dst = appendInts(dst, `,"dist":[`, out.dist32)
	} else {
		dst = appendInts(dst, `,"dist":[`, dist)
	}
	if out.parent32 != nil {
		dst = appendInts(dst, `,"parent":[`, out.parent32)
	} else {
		dst = appendInts(dst, `,"parent":[`, parent)
	}
	return append(dst, "}\n"...), nil
}

// appendInts appends key, v as a comma-separated array and its closing
// bracket, or nothing when v is empty (the omitempty rule). Distances
// are nearly all one-digit levels or Unreached (-1), so those skip
// AppendInt, which halves the time of a scale-16 R-MAT vector.
func appendInts[T int32 | int64](dst []byte, key string, v []T) []byte {
	if len(v) == 0 {
		return dst
	}
	dst = append(dst, key...)
	for i, x := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		switch {
		case uint64(x) < 10:
			dst = append(dst, byte('0'+x))
		case x == -1:
			dst = append(dst, '-', '1')
		default:
			dst = strconv.AppendInt(dst, int64(x), 10)
		}
	}
	return append(dst, ']')
}

// writeReject maps a rejection onto the wire: its RejectStatus row,
// the Retry-After backpressure hint when the server estimated one, and
// the reason in the error envelope.
func writeReject(w http.ResponseWriter, rej *RejectError) {
	if rej.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(ceilSeconds(rej.RetryAfter)))
	}
	writeJSON(w, statusOf(rej.Reason), errorBody{Error: rej.Reason})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST required"})
		return
	}
	var qr QueryRequest
	if err := json.NewDecoder(r.Body).Decode(&qr); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	q := Query{
		GraphID: qr.Graph, Source: qr.Source, Class: qr.Class,
		NoCache: qr.NoCache,
	}
	if qr.DeadlineMs > 0 {
		q.Deadline = s.clock.Now().Add(time.Duration(qr.DeadlineMs) * time.Millisecond)
	}
	resp, err := s.do(r.Context(), q, true)
	if err != nil {
		if rej, ok := AsReject(err); ok {
			writeReject(w, rej)
			return
		}
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	out := QueryResponse{
		ID: resp.ID, Graph: resp.Graph, Source: resp.Source, Class: resp.Class,
		Levels: resp.Levels, Reached: resp.Reached,
		TraversedEdges: resp.TraversedEdges,
		Batch:          resp.Batch, Occupancy: resp.Occupancy,
		Cached: resp.Cached, Coalesced: resp.Coalesced,
		QueueWaitNs:    resp.QueueWait.Nanoseconds(),
		SimTimeSeconds: resp.SimTime, TEPS: resp.TEPS,
	}
	if qr.Dist {
		out.Dist, out.dist32 = resp.Dist, resp.dist32
	}
	if qr.Parent {
		out.Parent, out.parent32 = resp.Parent, resp.parent32
	}
	writeQuery(w, &out)
}

func (s *Server) handleGraphs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Graphs())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

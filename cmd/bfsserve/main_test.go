package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/serve"
)

// TestOversizedQueryBodyRefused: a /v1/query body padded past the limit
// is refused with 400, while the same body reaches the query path and is
// answered when the limit is absent, so the limit is what refuses it.
func TestOversizedQueryBodyRefused(t *testing.T) {
	g, err := pbfs.NewRMATGraph(6, 8, 11)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{
		Graph:   g,
		Options: pbfs.Options{Algorithm: pbfs.OneDFlat, Ranks: 4},
		MaxWait: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	hs := newHTTPServer("", srv.Handler())
	if hs.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout %v, want positive", hs.ReadHeaderTimeout)
	}
	hardened := httptest.NewServer(hs.Handler)
	defer hardened.Close()
	bare := httptest.NewServer(srv.Handler())
	defer bare.Close()

	post := func(url, body string) (int, string) {
		t.Helper()
		r, err := http.Post(url+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		msg, err := io.ReadAll(r.Body)
		if err != nil {
			t.Fatal(err)
		}
		return r.StatusCode, string(msg)
	}
	if code, msg := post(hardened.URL, `{"source": 0}`); code != http.StatusOK {
		t.Fatalf("small query: status %d (%s)", code, msg)
	}
	padded := `{"source": 0` + strings.Repeat(" ", maxBodyBytes) + `}`
	if code, msg := post(bare.URL, padded); code != http.StatusOK {
		t.Fatalf("padded query without the limit: status %d (%s)", code, msg)
	}
	code, msg := post(hardened.URL, padded)
	if code != http.StatusBadRequest || !strings.Contains(msg, "too large") {
		t.Errorf("padded query: status %d (%s), want 400 for a body too large", code, msg)
	}
}

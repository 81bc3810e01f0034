package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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
		Graphs: []serve.GraphConfig{{ID: "g", Graph: g, Options: pbfs.Options{Algorithm: pbfs.OneDFlat, Ranks: 4}}},
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

// FuzzParseGraphSpec: parseGraphSpec never panics, an accepted spec has
// a non-empty trimmed id, and the spec rendered back to flag syntax
// parses to the same spec.
func FuzzParseGraphSpec(f *testing.F) {
	f.Add("web,scale=14,seed=7,web")
	f.Add("x,scale=9223372036854775808")
	f.Add("x,seed=18446744073709551616,edgefactor=-1")
	f.Add(" g , file= a b ")
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := parseGraphSpec(s)
		if err != nil {
			return
		}
		if spec.id == "" || spec.id != strings.TrimSpace(spec.id) {
			t.Fatalf("%q: accepted id %q", s, spec.id)
		}
		out := fmt.Sprintf("%s,scale=%d,edgefactor=%d,seed=%d", spec.id, spec.scale, spec.edgeFactor, spec.seed)
		if spec.web {
			out += ",web"
		}
		if spec.file != "" {
			out += ",file=" + spec.file
		}
		back, err := parseGraphSpec(out)
		if err != nil || back != spec {
			t.Fatalf("%q parsed to %+v; rendered as %q it parsed to %+v, %v", s, spec, out, back, err)
		}
	})
}

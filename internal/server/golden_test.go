package server_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"
	"testing"

	"nmostv/internal/bench"
	"nmostv/internal/clocks"
	"nmostv/internal/incr"
	"nmostv/internal/server"
	"nmostv/internal/simfile"
	"nmostv/internal/tech"
)

var update = flag.Bool("update", false, "rewrite the golden file from the current responses")

const goldenPath = "testdata/critical_why.golden"

// TestGoldenCriticalWhy pins the /critical and /why response bodies byte
// for byte on every suite design at a relaxed (1000 ns) and a failing
// (100 ns) period, with three corners configured. Each line of the golden
// file is a request, the SHA-256 of its body and the body's length; the
// bodies themselves run to megabytes.
func TestGoldenCriticalWhy(t *testing.T) {
	if testing.Short() {
		t.Skip("loads every suite design twice")
	}
	var got strings.Builder
	for _, period := range []float64{1000, 100} {
		srv := server.New(server.Config{
			Params:  tech.Default(),
			Sched:   clocks.TwoPhase(period, 0.8),
			Workers: 1,
			Corners: tech.Corners(),
		})
		h := srv.Handler()
		for _, w := range bench.Suite() {
			var sim bytes.Buffer
			if err := simfile.Write(&sim, w.Build(tech.Default())); err != nil {
				t.Fatal(err)
			}
			if _, err := srv.Load(context.Background(), w.Name, &sim); err != nil {
				t.Fatal(err)
			}
			get := func(path string) []byte {
				req := httptest.NewRequest(http.MethodGet, path, nil)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Fatalf("GET %s = %d: %s", path, rec.Code, rec.Body)
				}
				fmt.Fprintf(&got, "%s %x %d\n", path, sha256.Sum256(rec.Body.Bytes()), rec.Body.Len())
				return rec.Body.Bytes()
			}
			base := "/critical?k=10&design=" + w.Name
			get(base + "&corner=slow")
			var crit []incr.CriticalEntry
			if err := json.Unmarshal(get(base), &crit); err != nil {
				t.Fatal(err)
			}
			// Explain every ranked endpoint, at its worst corner and at
			// the base analysis.
			for _, e := range crit {
				q := url.Values{"design": {w.Name}, "node": {e.Check.Node}, "pol": {e.Check.Pol}}
				get("/why?" + q.Encode())
				q.Set("corner", "typ")
				get("/why?" + q.Encode())
			}
		}
	}
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("%d golden lines, want %d", len(gl), len(wl))
	}
}

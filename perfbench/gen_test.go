package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"nmostv/internal/clocks"
	"nmostv/internal/core"
	"nmostv/internal/incr"
	"nmostv/internal/server"
	"nmostv/internal/tech"
)

// testTarget keeps the tests' design small; the generator treats every
// size alike.
const testTarget = 10000

func TestSameSeedSameInputs(t *testing.T) {
	dir := t.TempDir()
	nl1, sim1, err := makeDesign(7, testTarget, filepath.Join(dir, "a.sim"))
	if err != nil {
		t.Fatal(err)
	}
	_, sim2, err := makeDesign(7, testTarget, filepath.Join(dir, "b.sim"))
	if err != nil {
		t.Fatal(err)
	}
	_, sim3, err := makeDesign(8, testTarget, filepath.Join(dir, "c.sim"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sim1, sim2) {
		t.Error("same seed gave different designs")
	}
	if bytes.Equal(sim1, sim3) {
		t.Error("different seeds gave the same design")
	}

	stream := func(seed int64) []any {
		eds, qs := newEdits(nl1, seed), newQueries(nl1, seed)
		var out []any
		for i := 0; i < 3*len(editKinds); i++ {
			out = append(out, eds.next(), qs.next())
		}
		return out
	}
	if !reflect.DeepEqual(stream(7), stream(7)) {
		t.Error("same seed gave different request sequences")
	}
	if reflect.DeepEqual(stream(7), stream(8)) {
		t.Error("different seeds gave the same request sequence")
	}
}

// resultState renders every published result array bit for bit, and the
// checks and required times derived from them.
func resultState(t *testing.T, sess *incr.Session) string {
	t.Helper()
	res := sess.Result()
	req, err := res.Required(context.Background(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, xs := range [][]float64{res.RiseAt, res.FallAt, res.EarlyRise, res.EarlyFall,
		req.RiseRAT, req.FallRAT, req.SlackRise, req.SlackFall} {
		for _, x := range xs {
			fmt.Fprintf(&b, "%x ", math.Float64bits(x))
		}
		b.WriteString("\n")
	}
	for _, c := range res.Checks {
		fmt.Fprintf(&b, "%v %s %v %d %x %x %x %v\n", c.Kind, c.Node.Name, c.Pol, c.Phase,
			math.Float64bits(c.Arrival), math.Float64bits(c.Deadline), math.Float64bits(c.Slack), c.OK)
	}
	return b.String()
}

func TestEditCycleIsSelfInverting(t *testing.T) {
	ctx := context.Background()
	nl, _, err := makeDesign(3, testTarget, filepath.Join(t.TempDir(), "d.sim"))
	if err != nil {
		t.Fatal(err)
	}
	devices := len(nl.Trans)
	eds := newEdits(nl, 3)
	sess, err := incr.New(ctx, designName, nl, sessionOptions())
	if err != nil {
		t.Fatal(err)
	}
	before := resultState(t, sess)
	structural := 0
	for i := 0; i < len(editKinds); i++ {
		p := eds.next()
		if p.Structural {
			structural++
		}
		err := runPair(p, func(batch []incr.Delta) ([]int64, error) {
			st, err := sess.Apply(ctx, batch)
			return st.AddedIDs, err
		})
		if err != nil {
			t.Fatalf("pair %d: %v", i, err)
		}
	}
	if structural == 0 {
		t.Fatal("a full cycle of edits held no structural pair")
	}
	if got := sess.Info().Devices; got != devices {
		t.Errorf("device count %d after the cycle, want %d", got, devices)
	}
	if after := resultState(t, sess); after != before {
		t.Error("result arrays differ from the start state after a full edit cycle")
	}
	if err := sess.SelfCheck(ctx); err != nil {
		t.Errorf("self-check after the cycle: %v", err)
	}
}

// TestEcoTrafficAgainstServer drives the eco writer and reader against an
// in-process server: every request must succeed, and the design must end
// verified at one version per acknowledged batch.
func TestEcoTrafficAgainstServer(t *testing.T) {
	nl, sim, err := makeDesign(5, testTarget, filepath.Join(t.TempDir(), "e.sim"))
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Params: tech.Default(), Sched: clocks.TwoPhase(1000, 0.8)})
	if _, err := srv.Load(context.Background(), designName, bytes.NewReader(sim)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	res := driveEco(&env{nl: nl, seed: 5}, &daemon{base: ts.URL}, time.Second)
	for _, iv := range append(res.batches, res.reads...) {
		if !iv.ok {
			t.Errorf("failed: %s", iv.why)
		}
	}
	if len(res.batches) < 2*minSamples || len(res.batches)%2 != 0 || len(res.reads) == 0 {
		t.Errorf("%d batches, %d reads: want at least %d batches in whole pairs and some reads",
			len(res.batches), len(res.reads), 2*minSamples)
	}
	if err := verifyAt(newClient(), ts.URL, 1+res.acked); err != nil {
		t.Error(err)
	}
}

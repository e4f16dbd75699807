package core_test

// Path recovery over a completed analysis lives in internal/paths; these
// tests drive it from the engine's side, on results built here.

import (
	"context"
	"math"
	"testing"

	"nmostv/internal/clocks"
	"nmostv/internal/core"
	"nmostv/internal/delay"
	"nmostv/internal/flow"
	"nmostv/internal/gen"
	"nmostv/internal/netlist"
	"nmostv/internal/paths"
	"nmostv/internal/stage"
	"nmostv/internal/tech"
)

func analyzeBuilt(t *testing.T, b *gen.B) (*netlist.Netlist, *core.Result) {
	t.Helper()
	nl := b.Finish()
	st := stage.Extract(nl)
	flow.Analyze(nl)
	m := delay.Build(nl, st, tech.Default(), delay.Options{})
	res, err := core.Analyze(context.Background(), nl, m, clocks.TwoPhase(100, 0.8), core.Options{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return nl, res
}

func TestPathReconstruction(t *testing.T) {
	b := gen.New("t", tech.Default())
	in := b.Input("in")
	out := b.Output(b.InvChain(in, 4))
	_, res := analyzeBuilt(t, b)

	pol := core.Rise
	if res.FallAt[out.Index] > res.RiseAt[out.Index] {
		pol = core.Fall
	}
	w, _ := paths.WhyLate(res, int32(out.Index), pol)
	steps := w.Hops
	if len(steps) != 5 { // in + 4 inverters
		t.Fatalf("path length = %d, want 5", len(steps))
	}
	if steps[0].Node != int32(in.Index) {
		t.Errorf("path must start at the input, got %s", res.NL.Nodes[steps[0].Node])
	}
	if steps[len(steps)-1].Node != int32(out.Index) {
		t.Errorf("path must end at the output, got %s", res.NL.Nodes[steps[len(steps)-1].Node])
	}
	for i := 1; i < len(steps); i++ {
		if steps[i].Arrival < steps[i-1].Arrival {
			t.Error("path times must be non-decreasing")
		}
		if steps[i].Pol == steps[i-1].Pol {
			t.Error("inverter chain path must alternate polarity")
		}
	}
	if paths.FormatPath(res, steps) == "" || paths.FormatPath(res, nil) != "(no path)" {
		t.Error("FormatPath output wrong")
	}
}

func TestStaticDesign(t *testing.T) {
	// No inputs, no clocks: everything is static.
	b := gen.New("t", tech.Default())
	dangling := b.Fresh("x")
	b.Inverter(dangling)
	_, res := analyzeBuilt(t, b)
	n, s := res.MaxSettle()
	if n != nil || !math.IsInf(s, -1) {
		t.Errorf("static design MaxSettle = %v @ %g, want none", n, s)
	}
	if paths.CriticalPath(res) != nil {
		t.Error("static design has no critical path")
	}
	if _, ok := paths.WhyLate(res, int32(dangling.Index), core.Rise); ok {
		t.Error("Path of a static node must be nil")
	}
	if _, ok := res.MinSlack(); ok {
		t.Error("static design has no slack checks")
	}
}

func TestRaceCheckPathReconstructs(t *testing.T) {
	b := gen.New("t", tech.Default())
	phi1 := b.Clock("phi1", 1)
	phi2 := b.Clock("phi2", 2)
	_, q1 := b.Latch(phi1, b.Input("in"))
	b.Latch(phi2, b.Inverter(q1))
	_, res := analyzeBuilt(t, b)
	for _, c := range res.Checks {
		if c.Kind == core.CheckRace {
			if steps := paths.CheckPath(res, c); len(steps) == 0 {
				t.Errorf("race check %v has no path", c)
			}
		}
	}
}

package delay_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"nmostv/internal/bench"
	"nmostv/internal/delay"
	"nmostv/internal/flow"
	"nmostv/internal/gen"
	"nmostv/internal/netlist"
	"nmostv/internal/stage"
	"nmostv/internal/tech"
)

// sameModel asserts got's Edges, Caps and Truncated bitwise equal to a
// from-scratch BuildCtx on the same netlist state.
func sameModel(t *testing.T, what string, got *delay.Model, nl *netlist.Netlist, st *stage.Result, p tech.Params, opt delay.Options) {
	t.Helper()
	ref, err := delay.BuildCtx(context.Background(), nl, st, p, opt)
	if err != nil {
		t.Fatalf("%s: reference build: %v", what, err)
	}
	if len(got.Edges) != len(ref.Edges) {
		t.Fatalf("%s: %d arcs, reference %d", what, len(got.Edges), len(ref.Edges))
	}
	for i := range ref.Edges {
		g, r := got.Edges[i], ref.Edges[i]
		if math.Float64bits(g.DRise) != math.Float64bits(r.DRise) ||
			math.Float64bits(g.DFall) != math.Float64bits(r.DFall) || g != r {
			t.Fatalf("%s: arc %d is %+v, reference %+v", what, i, g, r)
		}
	}
	if len(got.Caps) != len(ref.Caps) {
		t.Fatalf("%s: %d caps, reference %d", what, len(got.Caps), len(ref.Caps))
	}
	for i := range ref.Caps {
		if math.Float64bits(got.Caps[i]) != math.Float64bits(ref.Caps[i]) {
			t.Fatalf("%s: cap %d is %v, reference %v", what, i, got.Caps[i], ref.Caps[i])
		}
	}
	if got.Truncated != ref.Truncated {
		t.Fatalf("%s: truncated %d, reference %d", what, got.Truncated, ref.Truncated)
	}
}

// randomEdit applies one to three random resizes or cap changes to nl and
// returns them as a delay.Edit. Roughly one edit in six is a no-op.
func randomEdit(rng *rand.Rand, nl *netlist.Netlist) delay.Edit {
	scale := []float64{0.5, 1, 1.5, 2, 3, 1}
	var e delay.Edit
	for k := 1 + rng.Intn(3); k > 0; k-- {
		f := scale[rng.Intn(len(scale))]
		if rng.Intn(3) > 0 {
			t := nl.Trans[rng.Intn(len(nl.Trans))]
			t.W *= f
			if rng.Intn(2) == 0 {
				t.L *= f
			}
			e.Resized = append(e.Resized, t)
			continue
		}
		n := nl.Nodes[rng.Intn(len(nl.Nodes))]
		n.Cap = n.Cap*f + 0.001*float64(rng.Intn(3))
		e.Recapped = append(e.Recapped, n)
	}
	return e
}

// TestPatchEqualsBuild: random resize/setcap sequences on every suite
// design and a small tiled chip take the patch path, and after every
// step the patched model is bitwise the from-scratch build. The first
// build and the first batch after a structural edit fall back to a full
// merge, which must be exact too.
func TestPatchEqualsBuild(t *testing.T) {
	p := tech.Default()
	type design struct {
		name string
		nl   *netlist.Netlist
	}
	var designs []design
	for _, w := range bench.Suite() {
		designs = append(designs, design{w.Name, w.Build(p)})
	}
	small := gen.TiledChip(p, gen.TiledChipConfig{TargetTransistors: 1,
		Tile: gen.DatapathConfig{Bits: 4, Words: 4, ShiftAmounts: 2}})
	designs = append(designs, design{"tiled4x4", small})

	for di, d := range designs {
		t.Run(d.name, func(t *testing.T) {
			ctx := context.Background()
			nl := d.nl
			rng := rand.New(rand.NewSource(int64(di + 1)))
			opt := delay.Options{Workers: 1 + di%2}
			st := stage.Extract(nl)
			flow.Analyze(nl)
			c := delay.NewCache()

			m, bs, err := delay.PatchWithCache(ctx, nl, st, p, opt, c, delay.Edit{})
			if err != nil {
				t.Fatal(err)
			}
			if bs.Patched || len(bs.Rebuilt) != len(st.Stages) {
				t.Fatalf("first build: patched=%v rebuilt %d of %d, want a full build",
					bs.Patched, len(bs.Rebuilt), len(st.Stages))
			}
			sameModel(t, "first build", m, nl, st, p, opt)

			step := func(i int) {
				e := randomEdit(rng, nl)
				prev := m
				m, bs, err = delay.PatchWithCache(ctx, nl, st, p, opt, c, e)
				if err != nil {
					t.Fatal(err)
				}
				if !bs.Patched || !m.SameArcs(prev) {
					t.Fatalf("step %d: patched=%v sameArcs=%v, want the patch path", i, bs.Patched, m.SameArcs(prev))
				}
				if len(bs.Rebuilt) == 0 && len(m.Edges) > 0 && &m.Edges[0] != &prev.Edges[0] {
					t.Fatalf("step %d: no stage rebuilt but the arcs were copied", i)
				}
				sameModel(t, "patched model", m, nl, st, p, opt)
			}
			for i := 0; i < 12; i++ {
				step(i)
			}

			// A structural edit changes the partition: the next batch
			// merges in full, and the one after patches again.
			gate := nl.Nodes[rng.Intn(len(nl.Nodes))]
			nl.AddTransistor(netlist.Enh, gate, nl.Node("patch_test_new"), nl.GND, 4, 2)
			nl.Finalize()
			st = stage.Extract(nl)
			flow.Analyze(nl)
			prev := m
			m, bs, err = delay.PatchWithCache(ctx, nl, st, p, opt, c, randomEdit(rng, nl))
			if err != nil {
				t.Fatal(err)
			}
			if bs.Patched || m.SameArcs(prev) {
				t.Fatal("batch after an add took the patch path")
			}
			sameModel(t, "after add", m, nl, st, p, opt)
			for i := 12; i < 16; i++ {
				step(i)
			}
		})
	}
}

// TestPatchAfterRollbackResnapshots: a patch updates the graph snapshot
// in place. After a Rollback the snapshot holds the rolled-back edit, so
// the next patch — here a different device of the same stage — must
// re-snapshot instead of building on the stale device resistance.
func TestPatchAfterRollbackResnapshots(t *testing.T) {
	ctx := context.Background()
	p := tech.Default()
	b := gen.New("chain", p)
	b.Output(b.InvChain(b.Input("in"), 8))
	nl := b.Finish()
	st := stage.Extract(nl)
	flow.Analyze(nl)
	opt := delay.Options{Workers: 1}
	c := delay.NewCache()
	if _, _, err := delay.BuildWithCache(ctx, nl, st, p, opt, c); err != nil {
		t.Fatal(err)
	}
	stg := st.ByTrans(nl.Trans[2])
	if len(stg.Trans) < 2 {
		t.Fatalf("stage %d has %d devices, want a load and a pulldown", stg.Index, len(stg.Trans))
	}
	t1, t2 := stg.Trans[0], stg.Trans[1]

	cp := c.Checkpoint()
	w1 := t1.W
	t1.W *= 3
	if _, _, err := delay.PatchWithCache(ctx, nl, st, p, opt, c, delay.Edit{Resized: []*netlist.Transistor{t1}}); err != nil {
		t.Fatal(err)
	}
	// The session aborts after the build: undo the edit and the cache.
	t1.W = w1
	c.Rollback(cp)

	t2.W *= 2
	m, bs, err := delay.PatchWithCache(ctx, nl, st, p, opt, c, delay.Edit{Resized: []*netlist.Transistor{t2}})
	if err != nil {
		t.Fatal(err)
	}
	if !bs.Patched || len(bs.Rebuilt) == 0 {
		t.Fatalf("patched=%v rebuilt=%d, want a patch", bs.Patched, len(bs.Rebuilt))
	}
	sameModel(t, "patch after rollback", m, nl, st, p, opt)
}

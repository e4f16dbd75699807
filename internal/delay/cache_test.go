package delay

import (
	"context"
	"slices"
	"testing"

	"nmostv/internal/flow"
	"nmostv/internal/netlist"
	"nmostv/internal/stage"
)

// TestPatchArcMismatchMerges: when a rebuilt shard's arc identities do
// not match the cached shard's, the patch cannot write by position and
// must fall back to the full merge under a fresh arc token.
func TestPatchArcMismatchMerges(t *testing.T) {
	b, p := chainFixture(t, 8)
	nl := b.Finish()
	st := stage.Extract(nl)
	flow.Analyze(nl)
	c := NewCache()
	m0, _, err := BuildWithCache(context.Background(), nl, st, p, Options{Workers: 1}, c)
	if err != nil {
		t.Fatal(err)
	}
	tr := nl.Trans[3]
	si := st.ByTrans(tr).Index
	// Pretend the cached shard was built with other arcs: the stored
	// identities no longer match what the rebuild produces.
	bad := append([]Edge(nil), c.last.shards[si].edges...)
	bad[0].MaskFall ^= MaskPhi2
	c.last.shards = append([]shard(nil), c.last.shards...)
	c.last.shards[si].edges = bad

	tr.W *= 2
	m, bs, err := PatchWithCache(context.Background(), nl, st, p, Options{Workers: 1}, c, Edit{Resized: []*netlist.Transistor{tr}})
	if err != nil {
		t.Fatal(err)
	}
	if bs.Patched || m.SameArcs(m0) || len(bs.Rebuilt) == 0 {
		t.Fatalf("patched=%v sameArcs=%v rebuilt=%d, want a full merge", bs.Patched, m.SameArcs(m0), len(bs.Rebuilt))
	}
	ref := Build(nl, st, p, Options{Workers: 1})
	if !slices.Equal(m.Edges, ref.Edges) || !slices.Equal(m.Caps, ref.Caps) || m.Truncated != ref.Truncated {
		t.Fatal("merged model differs from a from-scratch build")
	}
}

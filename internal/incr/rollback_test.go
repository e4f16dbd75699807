package incr

import (
	"context"
	"errors"
	"testing"
	"time"

	"nmostv/internal/faultpoint"
	"nmostv/internal/gen"
	"nmostv/internal/tech"
	"nmostv/internal/tverr"
)

// structuralBatch exercises every delta op in one batch: device resize,
// node cap, annotation, a new device on a brand-new node, and a removal.
func structuralBatch(s *Session) []Delta {
	t0 := s.nl.Trans[0]
	tLast := s.nl.Trans[len(s.nl.Trans)-1]
	var n string
	for _, nd := range s.nl.Nodes {
		if !nd.IsSupply() && !nd.IsClock() {
			n = nd.Name
			break
		}
	}
	return []Delta{
		{Op: "resize", ID: t0.ID, W: t0.W * 2},
		{Op: "setcap", Node: n, Cap: 0.33},
		{Op: "annotate", Node: n, Attrs: []string{"output"}},
		{Op: "add", Kind: "e", Gate: n, A: "rollback_new_node", B: "gnd", W: 4, L: 2},
		{Op: "remove", ID: tLast.ID},
	}
}

// netlistSnapshot captures the observable pre-batch state a rollback must
// restore exactly.
type netlistSnapshot struct {
	devs  int
	nodes int
	ids   []int64
	w0    float64
}

func captureNetlist(s *Session) netlistSnapshot {
	snap := netlistSnapshot{devs: len(s.nl.Trans), nodes: len(s.nl.Nodes), w0: s.nl.Trans[0].W}
	for _, tr := range s.nl.Trans {
		snap.ids = append(snap.ids, tr.ID)
	}
	return snap
}

func checkRestored(t *testing.T, s *Session, snap netlistSnapshot) {
	t.Helper()
	if len(s.nl.Trans) != snap.devs {
		t.Fatalf("device count %d, want %d", len(s.nl.Trans), snap.devs)
	}
	if len(s.nl.Nodes) != snap.nodes {
		t.Fatalf("node count %d, want %d (created nodes not truncated?)", len(s.nl.Nodes), snap.nodes)
	}
	for i, tr := range s.nl.Trans {
		if tr.ID != snap.ids[i] {
			t.Fatalf("device order changed at %d: id %d, want %d", i, tr.ID, snap.ids[i])
		}
	}
	if s.nl.Trans[0].W != snap.w0 {
		t.Fatalf("resize not rolled back: W=%v, want %v", s.nl.Trans[0].W, snap.w0)
	}
	if s.nl.Lookup("rollback_new_node") != nil {
		t.Fatal("node created by aborted add still resolvable")
	}
}

// resizeBatch is a resize-only batch: it takes the delay cache's patch
// path, which edits the graph snapshot in place and keeps the arc token.
func resizeBatch(s *Session) []Delta {
	t0 := s.nl.Trans[0]
	tMid := s.nl.Trans[len(s.nl.Trans)/2]
	return []Delta{
		{Op: "resize", ID: t0.ID, W: t0.W * 2},
		{Op: "resize", ID: tMid.ID, L: tMid.L * 1.5},
	}
}

// rollbackInputs are the batches every rollback test runs: one with
// every op (full rebuild, new plan) and one resize-only (patch path).
var rollbackInputs = []struct {
	name  string
	batch func(*Session) []Delta
	patch bool
}{
	{"structural", structuralBatch, false},
	{"resize", resizeBatch, true},
}

// retryAfterRollback re-applies the batch once the fault has cleared: it
// must rebuild the edited stages again — a cache left holding the aborted
// build's shards would report none and starve the seed set — and a
// resize-only batch must keep the plan. The session must then still be
// bit-identical to a from-scratch analysis.
func retryAfterRollback(t *testing.T, s *Session, batch []Delta, patch bool) {
	t.Helper()
	st, err := s.Apply(context.Background(), batch)
	if err != nil {
		t.Fatalf("Apply after rollback: %v", err)
	}
	if st.StagesRebuilt == 0 {
		t.Fatal("retried batch rebuilt no stage: the cache kept the aborted build")
	}
	if patch && !st.ReusedWave {
		t.Fatal("retried resize batch did not keep the propagation plan")
	}
	if err := s.SelfCheck(context.Background()); err != nil {
		t.Fatalf("SelfCheck after recovered Apply: %v", err)
	}
}

// TestApplyAbortRollsBack: an injected failure between mutation and
// publish rolls the netlist back; the previously published result still
// passes the bit-identical SelfCheck, and the session keeps working. The
// fault fires either inside the delay build (the cache is never
// refreshed) or after it (the cache must be rewound).
func TestApplyAbortRollsBack(t *testing.T) {
	for _, in := range rollbackInputs {
		for _, fp := range []string{"delay.build.shard", "incr.apply.analyze"} {
			t.Run(in.name+"/"+fp, func(t *testing.T) {
				defer faultpoint.Reset()
				ctx := context.Background()
				b := gen.New("chain", tech.Default())
				b.Output(b.InvChain(b.Input("in"), 24))
				s := newTestSession(t, "chain", b.Finish(), 1)
				resBefore := s.Result()
				snap := captureNetlist(s)
				batch := in.batch(s)

				faultpoint.Arm(fp, faultpoint.Action{Err: faultpoint.ErrInjected})
				if _, err := s.Apply(ctx, batch); !errors.Is(err, faultpoint.ErrInjected) {
					t.Fatalf("Apply = %v, want injected fault", err)
				}
				faultpoint.Reset()

				if s.Result() != resBefore {
					t.Fatal("aborted Apply republished a result")
				}
				checkRestored(t, s, snap)
				if err := s.SelfCheck(ctx); err != nil {
					t.Fatalf("SelfCheck after rollback: %v", err)
				}
				retryAfterRollback(t, s, batch, in.patch)
			})
		}
	}
}

// TestApplyCancellationRollsBack: the same invariant when the abort comes
// from the request context during the wavefront walk rather than an
// injected error.
func TestApplyCancellationRollsBack(t *testing.T) {
	for _, in := range rollbackInputs {
		t.Run(in.name, func(t *testing.T) {
			defer faultpoint.Reset()
			b := gen.New("chain", tech.Default())
			b.Output(b.InvChain(b.Input("in"), 48))
			s := newTestSession(t, "chain", b.Finish(), 1)
			snap := captureNetlist(s)
			batch := in.batch(s)

			faultpoint.Arm("core.propagate.level", faultpoint.Action{Delay: 2 * time.Millisecond})
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
			_, err := s.Apply(ctx, batch)
			cancel()
			faultpoint.Reset()
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("Apply = %v, want DeadlineExceeded", err)
			}
			checkRestored(t, s, snap)
			if err := s.SelfCheck(context.Background()); err != nil {
				t.Fatalf("SelfCheck after canceled Apply: %v", err)
			}
			retryAfterRollback(t, s, batch, in.patch)
		})
	}
}

// TestApplyPanicRollsBack: a panic between mutation and publish unwinds
// the batch before propagating (the daemon's recovery middleware turns it
// into a 500; the session must stay coherent afterwards).
func TestApplyPanicRollsBack(t *testing.T) {
	for _, in := range rollbackInputs {
		t.Run(in.name, func(t *testing.T) {
			defer faultpoint.Reset()
			ctx := context.Background()
			b := gen.New("chain", tech.Default())
			b.Output(b.InvChain(b.Input("in"), 24))
			s := newTestSession(t, "chain", b.Finish(), 1)
			snap := captureNetlist(s)
			batch := in.batch(s)

			faultpoint.Arm("incr.apply.analyze", faultpoint.Action{Panic: true})
			func() {
				defer func() {
					if rec := recover(); rec == nil {
						t.Fatal("Apply did not propagate the panic")
					}
				}()
				s.Apply(ctx, batch)
			}()
			faultpoint.Reset()

			checkRestored(t, s, snap)
			if err := s.SelfCheck(ctx); err != nil {
				t.Fatalf("SelfCheck after panic rollback: %v", err)
			}
			retryAfterRollback(t, s, batch, in.patch)
		})
	}
}

// TestInvalidDeltaIsTyped: resolve failures carry tverr.Invalid so the
// HTTP layer maps them to 400, not 500.
func TestInvalidDeltaIsTyped(t *testing.T) {
	b := gen.New("chain", tech.Default())
	b.Output(b.InvChain(b.Input("in"), 4))
	s := newTestSession(t, "chain", b.Finish(), 1)
	_, err := s.Apply(context.Background(), []Delta{{Op: "resize", ID: 99999, W: 4}})
	if err == nil {
		t.Fatal("Apply accepted a bogus device ID")
	}
	if k := tverr.KindOf(err); k != tverr.Invalid {
		t.Fatalf("KindOf = %v, want Invalid", k)
	}
}

package paths

import (
	"testing"

	"nmostv/internal/core"
	"nmostv/internal/gen"
	"nmostv/internal/tech"
)

// TestWhyLateAllocsFlat guards the walk's allocation profile: a why-trace
// costs the same number of allocations on a 32-inverter chain as on one
// eight times longer — the visited mask is pooled and the hop slice is
// sized exactly, so nothing grows with the path.
func TestWhyLateAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	allocs := func(n int) (float64, int) {
		var out int32
		res := prep(t, func(b *gen.B) {
			out = int32(b.Output(b.InvChain(b.Input("in"), n)).Index)
		}, tech.Typical(), 1)
		pol := core.Rise
		if res.FallAt[out] > res.RiseAt[out] {
			pol = core.Fall
		}
		w, ok := WhyLate(res, out, pol)
		if !ok {
			t.Fatalf("InvChain(%d): output never transitions", n)
		}
		return testing.AllocsPerRun(100, func() { WhyLate(res, out, pol) }), len(w.Hops)
	}
	short, shortHops := allocs(32)
	long, longHops := allocs(256)
	if longHops != 257 || shortHops != 33 {
		t.Fatalf("hops = %d and %d, want 33 and 257", shortHops, longHops)
	}
	if long != short || short > 1 {
		t.Fatalf("WhyLate allocs: %v on %d hops, %v on %d hops; want one, flat", short, shortHops, long, longHops)
	}
}

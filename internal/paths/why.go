package paths

import (
	"math"
	"sync"

	"nmostv/internal/core"
)

// Why explains a node's worst arrival: the chain of dominant-arrival
// predecessors from a fixed source (input, clock edge, precharge seed)
// to the asked transition, with per-hop delay and clock-wait
// contributions. A hop's wait at a clock-window opening is its Launch
// minus the previous hop's Arrival.
type Why struct {
	Node    int32
	Pol     core.Polarity
	Arrival float64
	Hops    []Step
}

// WhyLate traces the dominant-arrival chain of (node, pol) on res.
// ok=false when the transition never happens (arrival -Inf). The walk
// reads only immutable result state and reproduces the engine's exact
// arithmetic: at every hop, Arrival == Launch + Delay and
// Launch == max(previous Arrival, window clamp) hold bitwise, and the
// last hop's Arrival is the node's published arrival. Through a
// non-converged loop the chain can start where a predecessor cycle cut
// it rather than at a source (see walk).
func WhyLate(res *core.Result, node int32, pol core.Polarity) (Why, bool) {
	hops := walk(res, node, pol, 0)
	if hops == nil {
		return Why{}, false
	}
	return Why{Node: node, Pol: pol, Arrival: arrival(res, node, pol), Hops: hops}, true
}

func arrival(res *core.Result, v int32, pol core.Polarity) float64 {
	if pol == core.Rise {
		return res.RiseAt[v]
	}
	return res.FallAt[v]
}

// seenPool recycles the walk's visited masks, indexed node×polarity and
// returned cleared: queries bypass admission control, so a walk must not
// allocate O(nodes) or O(path) scratch per request.
var seenPool = sync.Pool{New: func() any { return new([]bool) }}

// walk is the one dominant-predecessor walk: the chain into (node, pol),
// source first, in a slice with room for extra more steps; nil when the
// transition never happens. Every hop carries its transition's published
// arrival, with Delay, Launch and Clamped replayed from the previous hop
// by transfer. The dominant-pred graph of a converged analysis is
// acyclic, but a non-converged loop node can point into its own cycle,
// so the walk stops at the first repeated transition; the first hop of
// such a cut chain keeps its arc but, like a source, no delay.
//
// The chain is walked twice — once to count it, once to fill an exactly
// sized slice from the back — so a walk costs one allocation whatever
// its length.
func walk(res *core.Result, node int32, pol core.Polarity, extra int) []Step {
	if math.IsInf(arrival(res, node, pol), -1) {
		return nil
	}
	mask := seenPool.Get().(*[]bool)
	if want := 2 * len(res.RiseAt); cap(*mask) < want {
		*mask = make([]bool, want)
	} else {
		*mask = (*mask)[:want]
	}
	seen := *mask
	n := 0
	for v, p := node, pol; !seen[2*v+int32(p)]; n++ {
		seen[2*v+int32(p)] = true
		arc, fromPol := res.DominantPred(int(v), p)
		if arc < 0 {
			n++
			break
		}
		v, p = res.Model.Edges[arc].From, fromPol
	}
	steps := make([]Step, n, n+extra)
	v, p := node, pol
	for i := n - 1; i >= 0; i-- {
		seen[2*v+int32(p)] = false
		arc, fromPol := res.DominantPred(int(v), p)
		steps[i] = Step{Node: v, Pol: p, Arc: arc, Arrival: arrival(res, v, p)}
		if arc >= 0 {
			v, p = res.Model.Edges[arc].From, fromPol
		}
	}
	seenPool.Put(mask)
	steps[0].Launch = steps[0].Arrival
	for i := 1; i < n; i++ {
		s := &steps[i]
		s.Delay, s.Launch, s.Clamped = transfer(res, s.Arc, s.Pol, steps[i-1].Arrival, false)
	}
	return steps
}

// transfer replays the engine's relaxation across arc into pol for a
// cause arriving at t: the launch waits for the arc's window opening (a
// period later for the wrapped φ1 capture), and the arrival is
// launch + d.
func transfer(res *core.Result, arc int32, pol core.Polarity, t float64, wrapped bool) (d, launch float64, clamped bool) {
	e := &res.Model.Edges[arc]
	var mask uint8
	if pol == core.Rise {
		d, mask = e.DRise, e.MaskRise
	} else {
		d, mask = e.DFall, e.MaskFall
	}
	clamp, _, constrained, _ := core.MaskWindow(res.Sched, mask)
	if wrapped {
		clamp += res.Sched.Period
	}
	launch = t
	if constrained && launch < clamp {
		launch, clamped = clamp, true
	}
	return d, launch, clamped
}

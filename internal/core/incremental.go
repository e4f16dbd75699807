package core

import (
	"context"
	"math"
	"sort"
	"sync/atomic"

	"nmostv/internal/clocks"
	"nmostv/internal/delay"
	"nmostv/internal/netlist"
)

// DeltaStats reports how much of an incremental re-analysis was actually
// recomputed.
type DeltaStats struct {
	// Comps is the total component count of the propagation plan.
	Comps int
	// CompsRelaxed and NodesRelaxed count the components and nodes whose
	// arrivals were re-relaxed in either pass (settle or early).
	CompsRelaxed, NodesRelaxed int
	// ReusedWave reports whether the previous propagation plan was kept:
	// the model holds the same arcs at the same indices as the previous
	// one (the same model, or one that shares its arc token, see
	// delay.Model.SameArcs), or a supplied Options.Plan fits it. Delays
	// may have changed.
	ReusedWave bool
	// Relaxed marks, per node index, the nodes re-relaxed in either pass.
	// When the call ran with Options.Arena, the mask is arena-backed:
	// consume it before the next analysis on that arena.
	Relaxed []bool
}

// AnalyzeIncremental extends a previous analysis after a netlist edit
// instead of starting over. dirtySeed marks (by node index) every node
// whose incoming timing arcs may have changed — for a delta this is the
// nodes of the stages the delay cache rebuilt; new nodes, changed source
// anchors, and changed storage classifications are detected here and added
// to the seed. Only the components of the propagation plan reachable from
// the seed through value changes are re-relaxed; everything else keeps the
// previous fixpoint, which is provably equal to what a from-scratch run
// would compute (untouched components have identical incoming arrivals and
// identical internal arcs). The returned Result is bit-identical to
// Analyze(nl, model, sched, opt) on the same state.
//
// prev must come from Analyze or AnalyzeIncremental on an earlier state of
// the same netlist (nodes are append-only; model may be rebuilt). A nil
// prev degenerates to a full analysis.
// Like Analyze, the context aborts the cone re-relaxation mid-walk; the
// caller's previous Result is never mutated, so an aborted incremental
// pass leaves the published analysis intact.
func AnalyzeIncremental(ctx context.Context, nl *netlist.Netlist, model *delay.Model, sched clocks.Schedule, opt Options, prev *Result, dirtySeed []bool) (*Result, DeltaStats, error) {
	if prev == nil || prev.wave == nil {
		r, err := Analyze(ctx, nl, model, sched, opt)
		if err != nil {
			return nil, DeltaStats{}, err
		}
		n := len(nl.Nodes)
		st := DeltaStats{
			Comps:        r.wave.numComps(),
			CompsRelaxed: r.wave.numComps(),
			NodesRelaxed: n,
			Relaxed:      fillBool(n, true),
		}
		return r, st, nil
	}
	if err := sched.Validate(); err != nil {
		return nil, DeltaStats{}, err
	}
	opt = opt.withDefaults()
	n := len(nl.Nodes)
	r := &Result{NL: nl, Model: model, Sched: sched}
	r.allocArrays(n)
	growCopy(r.RiseAt, prev.RiseAt, NegInf)
	growCopy(r.FallAt, prev.FallAt, NegInf)
	growCopy(r.EarlyRise, prev.EarlyRise, PosInf)
	growCopy(r.EarlyFall, prev.EarlyFall, PosInf)
	copy(r.predRise, prev.predRise)
	copy(r.predFall, prev.predFall)
	a := &analysis{Result: r, opt: opt, ctx: orBackground(ctx)}
	a.arena = arenaFor(opt)
	a.initMetrics()
	defer opt.Obs.Span("analyze-incremental").End()
	stats := DeltaStats{}

	sp := opt.Obs.Span("wave-plan")
	if (model == prev.Model || model.SameArcs(prev.Model)) && n == len(prev.wave.compOf) {
		// Same arcs at the same indices: the plan holds, and the copied
		// predecessor records already index the new model.
		r.wave = prev.wave
		stats.ReusedWave = true
	} else if opt.Plan.fits(n, len(model.Edges)) {
		// A shared per-corner plan: the model was rebuilt (new edge
		// indices) but its structure matches the supplied plan, so the
		// plan is reused and only the predecessor records remap.
		r.wave = opt.Plan.ws
		stats.ReusedWave = true
		remapPreds(r, prev)
	} else {
		r.wave = newWaveSchedule(n, model, a.arena)
		remapPreds(r, prev)
	}
	sp.End()
	stats.Comps = r.wave.numComps()

	// Snapshot the previous fixpoint (grown with NaN so any comparison
	// against a new node's slot reads "changed") before re-anchoring the
	// sources overwrites the working arrays.
	snapRise := a.arena.float64Copy(prev.RiseAt, n, math.NaN())
	snapFall := a.arena.float64Copy(prev.FallAt, n, math.NaN())
	snapER := a.arena.float64Copy(prev.EarlyRise, n, math.NaN())
	snapEF := a.arena.float64Copy(prev.EarlyFall, n, math.NaN())

	sp = opt.Obs.Span("sources+storage")
	a.initSources()
	a.classifyStorage()
	sp.End()
	// A source never has a producing arc; clear any pred left over from a
	// node that only just became fixed (e.g. an added input annotation).
	for i := 0; i < n; i++ {
		if a.fixedRise[i] {
			a.predRise[i] = pred{edge: -1}
		}
		if a.fixedFall[i] {
			a.predFall[i] = pred{edge: -1}
		}
	}

	// Structural seed: caller's dirty nodes, nodes that did not exist in
	// prev, and nodes whose storage classification flipped (their
	// incoming-arc filter changed).
	base := a.arena.bools(n)
	for i := 0; i < n; i++ {
		if (i < len(dirtySeed) && dirtySeed[i]) || i >= len(prev.RiseAt) {
			base[i] = true
			continue
		}
		ps := i < len(prev.clockedStorage) && prev.clockedStorage[i]
		if a.clockedStorage[i] != ps {
			base[i] = true
		}
	}

	// Settle seed: structure plus changed source anchors (initSources
	// only ever writes fixed values, so any difference from the snapshot
	// is an anchor change).
	seed := a.arena.bools(n)
	copy(seed, base)
	for i := 0; i < n; i++ {
		if r.RiseAt[i] != snapRise[i] || r.FallAt[i] != snapFall[i] {
			seed[i] = true
		}
	}
	relaxed := a.arena.bools(n)
	sp = opt.Obs.Span("cone-re-relax")
	sc, sn := a.propagateDirty(seed, snapRise, snapFall, prev.loopNodes, relaxed)
	sp.End()

	// Early pass: re-apply the anchors (they mirror the settle sources),
	// then seed from structure plus anchor changes. Settle values feed the
	// early pass only through these anchors.
	for i := 0; i < n; i++ {
		if a.fixedRise[i] && !isInfNeg(r.RiseAt[i]) {
			r.EarlyRise[i] = r.RiseAt[i]
		}
		if a.fixedFall[i] && !isInfNeg(r.FallAt[i]) {
			r.EarlyFall[i] = r.FallAt[i]
		}
	}
	eseed := a.arena.bools(n)
	copy(eseed, base)
	for i := 0; i < n; i++ {
		if r.EarlyRise[i] != snapER[i] || r.EarlyFall[i] != snapEF[i] {
			eseed[i] = true
		}
	}
	sp = opt.Obs.Span("cone-re-relax-early")
	ec, en := a.propagateEarlyDirty(eseed, snapER, snapEF, relaxed)
	sp.End()

	if sc > ec {
		stats.CompsRelaxed = sc
	} else {
		stats.CompsRelaxed = ec
	}
	if sn > en {
		stats.NodesRelaxed = sn
	} else {
		stats.NodesRelaxed = en
	}
	stats.Relaxed = relaxed

	if err := a.abortErr(); err != nil {
		return nil, DeltaStats{}, err
	}
	sp = opt.Obs.Span("checks")
	a.runChecks()
	sp.End()
	return r, stats, nil
}

// propagateDirty is propagate restricted to the dirty cone: components
// holding a seeded node reset their non-fixed arrivals and re-relax exactly
// as a full run would; a component whose post-relax values differ from the
// previous fixpoint wakes its successors. Cross-component arcs always lead
// to strictly later levels, so marking a successor dirty from inside the
// wavefront is safe — its level has not started. Components never woken
// keep the previous values, and the relaxation a woken component runs is
// the same pure function of its (final) predecessor values as in a full
// run, so the fixpoint is bit-identical.
func (a *analysis) propagateDirty(seed []bool, snapRise, snapFall []float64, prevLoops []*netlist.Node, relaxed []bool) (comps, nodes int) {
	ws := a.wave
	dirty := a.seedComps(ws, seed)
	touched := a.arena.bools(ws.numComps())
	loops := a.arena.loopSlices(ws.numComps())
	var nc, nn atomic.Int64
	a.forEachComp(func(ci int32) {
		if !dirty[ci].Load() {
			return
		}
		touched[ci] = true
		comp := ws.comp(ci)
		nc.Add(1)
		nn.Add(int64(len(comp)))
		for _, idx := range comp {
			relaxed[idx] = true
			if !a.fixedRise[idx] {
				a.RiseAt[idx] = NegInf
				a.predRise[idx] = pred{edge: -1}
			}
			if !a.fixedFall[idx] {
				a.FallAt[idx] = NegInf
				a.predFall[idx] = pred{edge: -1}
			}
		}
		if !ws.cyclic[ci] {
			a.relaxNode(int(comp[0]), ws.in(comp[0]))
		} else {
			loops[ci] = a.iterateSCC(comp, ws)
		}
		for _, idx := range comp {
			if a.RiseAt[idx] != snapRise[idx] || a.FallAt[idx] != snapFall[idx] {
				for _, ei := range ws.out(idx) {
					if wc := ws.compOf[a.Model.Edges[ei].To]; wc != ci {
						dirty[wc].Store(true)
					}
				}
			}
		}
	})
	// Loop findings: keep the previous ones in components that were not
	// re-relaxed (their verdict cannot have changed), replace the rest.
	a.loopNodes = nil
	for _, nd := range prevLoops {
		if !touched[ws.compOf[nd.Index]] {
			a.loopNodes = append(a.loopNodes, nd)
		}
	}
	for _, l := range loops {
		a.loopNodes = append(a.loopNodes, l...)
	}
	sort.Slice(a.loopNodes, func(i, j int) bool {
		return a.loopNodes[i].Index < a.loopNodes[j].Index
	})
	return int(nc.Load()), int(nn.Load())
}

// propagateEarlyDirty is propagateEarly restricted to the dirty cone; see
// propagateDirty for the wake protocol.
func (a *analysis) propagateEarlyDirty(seed []bool, snapRise, snapFall []float64, relaxed []bool) (comps, nodes int) {
	ws := a.wave
	dirty := a.seedComps(ws, seed)
	var nc, nn atomic.Int64
	a.forEachComp(func(ci int32) {
		if !dirty[ci].Load() {
			return
		}
		comp := ws.comp(ci)
		nc.Add(1)
		nn.Add(int64(len(comp)))
		for _, idx := range comp {
			relaxed[idx] = true
			if !a.fixedRise[idx] {
				a.EarlyRise[idx] = PosInf
			}
			if !a.fixedFall[idx] {
				a.EarlyFall[idx] = PosInf
			}
		}
		if !ws.cyclic[ci] {
			a.relaxNodeEarly(int(comp[0]), ws.in(comp[0]))
		} else {
			bound := a.opt.SCCIterBound*len(comp) + 8
			for iter := 0; iter < bound; iter++ {
				changed := false
				for _, idx := range comp {
					if a.relaxNodeEarly(int(idx), ws.in(idx)) {
						changed = true
					}
				}
				if !changed {
					break
				}
			}
		}
		for _, idx := range comp {
			if a.EarlyRise[idx] != snapRise[idx] || a.EarlyFall[idx] != snapFall[idx] {
				for _, ei := range ws.out(idx) {
					if wc := ws.compOf[a.Model.Edges[ei].To]; wc != ci {
						dirty[wc].Store(true)
					}
				}
			}
		}
	})
	return int(nc.Load()), int(nn.Load())
}

// seedComps lifts a per-node dirty mask to per-component atomic flags.
func (a *analysis) seedComps(ws *waveSchedule, seed []bool) []atomic.Bool {
	dirty := a.arena.atomicBools(ws.numComps())
	for i, d := range seed {
		if d {
			dirty[ws.compOf[i]].Store(true)
		}
	}
	return dirty
}

// edgeIdent identifies a timing arc independently of its index: the
// per-stage edge merge keys arcs by exactly these fields, and every arc's
// To node belongs to the one stage that generated it, so the tuple is
// unique across the whole model and stable across rebuilds.
type edgeIdent struct {
	from, to           int32
	invert, gateArc    bool
	maskRise, maskFall uint8
}

func identOf(e *delay.Edge) edgeIdent {
	return edgeIdent{
		from: e.From, to: e.To,
		invert: e.Invert, gateArc: e.GateArc,
		maskRise: e.MaskRise, maskFall: e.MaskFall,
	}
}

// remapPreds rewrites the copied predecessor records, which index the
// previous model's edge array, to the new model's indices. Arcs that no
// longer exist reset to "source"; their nodes are in the dirty seed and
// recompute their preds anyway.
func remapPreds(r, prev *Result) {
	idx := make(map[edgeIdent]int32, len(r.Model.Edges))
	for i := range r.Model.Edges {
		idx[identOf(&r.Model.Edges[i])] = int32(i)
	}
	remap := func(preds []pred) {
		for i := range preds {
			if preds[i].edge < 0 {
				continue
			}
			old := &prev.Model.Edges[preds[i].edge]
			if ni, ok := idx[identOf(old)]; ok {
				preds[i].edge = ni
			} else {
				preds[i] = pred{edge: -1}
			}
		}
	}
	remap(r.predRise)
	remap(r.predFall)
}

// growCopy fills dst with src, padding the tail beyond len(src) with
// fillv.
func growCopy(dst, src []float64, fillv float64) {
	m := copy(dst, src)
	for i := m; i < len(dst); i++ {
		dst[i] = fillv
	}
}

func fillBool(n int, v bool) []bool {
	s := make([]bool, n)
	for i := range s {
		s[i] = v
	}
	return s
}

package delay

import (
	"context"
	"math"
	"slices"

	"nmostv/internal/netlist"
	"nmostv/internal/stage"
	"nmostv/internal/tech"
)

// Cache retains per-stage edge shards across netlist edits, keyed by the
// stage content fingerprint (stage.Fingerprint). A shard stays valid as
// long as nothing the edge builder reads from its stage changed: device
// sizes and flow orientation, channel-node loading, node annotations, and
// the case-analysis constants. The incremental session recomputes
// fingerprints after every delta; stages whose fingerprint misses the
// cache — and only those — are rebuilt.
//
// A Cache is single-owner state (one per incremental session); it is not
// safe for concurrent use.
type Cache struct {
	// last is the most recent completed build. Builds replace it
	// wholesale and never write into its arrays, so a Checkpoint is a
	// plain copy of the struct.
	last built
	// scratch is the reusable graph snapshot backing store: a session's
	// repeated rebuilds refill the same flat arrays instead of
	// reallocating O(nodes + devices) state per edit.
	scratch *graph
	// scratchOf is the model whose netlist state scratch holds. The
	// patch path updates scratch in place only when this is last.model;
	// otherwise (first patch, after a rollback or an aborted build) it
	// re-snapshots the whole netlist.
	scratchOf *Model
}

// built is one completed build: the partition it ran on, each stage's
// fingerprint and edge shard by stage index, and the model they merged
// into.
type built struct {
	st     *stage.Result
	fps    []uint64
	shards []shard
	model  *Model
}

// NewCache returns an empty shard cache.
func NewCache() *Cache { return &Cache{} }

// Checkpoint captures the cache's current contents for a later Rollback.
// It is O(1): builds publish fresh per-stage arrays instead of writing
// into the previous ones, so the captured arrays stay valid.
type Checkpoint struct {
	last built
}

// Checkpoint returns a handle on the current contents.
func (c *Cache) Checkpoint() Checkpoint { return Checkpoint{last: c.last} }

// Rollback restores the contents captured by a Checkpoint. A session
// that unwinds an aborted delta batch must also unwind the cache: a
// completed build for the aborted state would otherwise leave shards
// keyed by the mutated fingerprints, and re-applying the same batch would
// hit wholesale — reporting zero rebuilt stages and starving the
// incremental analyzer's seed set. The graph snapshot is tied to the
// model it was taken for, so the next patch re-snapshots it unless that is
// the restored model.
func (c *Cache) Rollback(cp Checkpoint) { c.last = cp.last }

// sameDevices reports whether two stages hold the same devices (by stable
// ID) in the same order — the guard against fingerprint collisions.
func sameDevices(a, b *stage.Stage) bool {
	if len(a.Trans) != len(b.Trans) {
		return false
	}
	for i, t := range a.Trans {
		if b.Trans[i].ID != t.ID {
			return false
		}
	}
	return true
}

// BuildStats reports how much of a cached build was recomputed.
type BuildStats struct {
	// Stages is the total stage count of the partition.
	Stages int
	// Rebuilt lists the stages whose shards were recomputed (cache
	// misses), in stage-index order.
	Rebuilt []*stage.Stage
	// Patched reports that the model keeps the previous build's arcs at
	// the same indices (Model.SameArcs): only delays and caps moved.
	Patched bool
}

// BuildWithCache is Build with per-stage shard reuse: stages whose
// fingerprint (and device-ID list) match a stage of the last completed
// build keep its cached edges; the rest are rebuilt on the option's worker
// pool. The merged, sorted model is bit-identical to a from-scratch Build
// on the same netlist state — the fingerprint covers every input of the
// per-stage computation, and merge order and the global sort are
// unchanged. The cache is refreshed wholesale to the current partition,
// so shards of stages that no longer exist are evicted.
//
// When nothing changed — every stage hit at its old index and the node
// caps, flags and phases are bitwise equal — the previous model itself is
// returned, so the analyzer keeps its plan by pointer identity.
//
// The context is polled once per rebuilt shard. An aborted build returns
// the error with no model and — critically — without refreshing the
// cache: it still describes the last completed build, so a rolled-back
// session keeps its warm shards.
func BuildWithCache(ctx context.Context, nl *netlist.Netlist, st *stage.Result, p tech.Params, opt Options, c *Cache) (*Model, BuildStats, error) {
	opt = opt.withDefaults()
	defer opt.Obs.Span("delay-build-cached").End()
	m := &Model{Caps: ComputeCaps(nl, p)}
	m.snapshotNodes(nl)
	forced := forcedMap(nl, opt)
	c.scratchOf = nil
	c.scratch = newGraph(nl, p, m.Caps, forced, c.scratch)

	prev := c.last
	stages := st.Stages
	shards := make([]shard, len(stages))
	fps := make([]uint64, len(stages))
	var todo []int
	sp := opt.Obs.Span("fingerprint+probe")
	old := make(map[uint64]int32, len(prev.fps))
	for i, fp := range prev.fps {
		old[fp] = int32(i)
	}
	same := len(stages) == len(prev.fps)
	for i, s := range stages {
		fps[i] = s.Fingerprint(m.Caps, forced)
		if j, ok := old[fps[i]]; ok && sameDevices(prev.st.Stages[j], s) {
			shards[i] = prev.shards[j]
			same = same && int(j) == i
			continue
		}
		todo = append(todo, i)
	}
	sp.End()
	sp = opt.Obs.Span("shard-build")
	err := buildShards(ctx, c.scratch, st, opt, shards, todo)
	sp.End()
	if err != nil {
		return nil, BuildStats{}, err
	}
	countHits(opt, len(stages), len(todo))

	stats := BuildStats{Stages: len(stages)}
	for _, i := range todo {
		stats.Rebuilt = append(stats.Rebuilt, stages[i])
	}
	if same && len(todo) == 0 && prev.model.sameNodes(m) {
		m = prev.model
		stats.Patched = true
	} else {
		sp = opt.Obs.Span("merge+sort")
		mergeShards(m, shards)
		sp.End()
	}
	c.last = built{st: st, fps: fps, shards: shards, model: m}
	c.scratchOf = m
	return m, stats, nil
}

// Edit names everything a non-structural batch changed since the cache's
// last build: devices whose W or L moved and nodes whose lumped
// capacitance moved. Nothing else about the netlist — topology, flow,
// annotations — may have changed.
type Edit struct {
	Resized  []*netlist.Transistor
	Recapped []*netlist.Node
}

// PatchWithCache is BuildWithCache for a batch described by e. It
// fingerprints only the stages the edit can reach — a resized device's
// own stage and the stages owning its gate and channel nodes, a recapped
// node's stage — recomputes only the moved node caps, and patches the
// graph snapshot in place. When every rebuilt shard keeps its old arcs in
// order, their delays are written into a copy of the previous model's
// edges at the old indices; the result shares the previous model's arc
// token (Model.SameArcs), so the analyzer keeps its propagation plan and
// predecessor records. Otherwise the shards merge as in BuildWithCache.
// With no prior build or a changed partition it is BuildWithCache. The
// model is bit-identical to BuildCtx on the same netlist state either way.
func PatchWithCache(ctx context.Context, nl *netlist.Netlist, st *stage.Result, p tech.Params, opt Options, c *Cache, e Edit) (*Model, BuildStats, error) {
	prev := c.last
	if prev.model == nil || st != prev.st || len(nl.Nodes) != len(prev.model.Caps) {
		return BuildWithCache(ctx, nl, st, p, opt, c)
	}
	opt = opt.withDefaults()
	defer opt.Obs.Span("delay-build-cached").End()
	sp := opt.Obs.Span("fingerprint+probe")
	caps := prev.model.Caps
	moved := false
	recap := func(n *netlist.Node) {
		v := NodeCap(n, p)
		if math.Float64bits(v) == math.Float64bits(caps[n.Index]) {
			return
		}
		if !moved {
			caps = slices.Clone(caps)
			moved = true
		}
		caps[n.Index] = v
	}
	var reach []int
	touch := func(s *stage.Stage) {
		if s != nil {
			reach = append(reach, s.Index)
		}
	}
	for _, t := range e.Resized {
		recap(t.Gate)
		recap(t.A)
		recap(t.B)
		touch(st.ByTrans(t))
		touch(st.ByNode(t.Gate))
		touch(st.ByNode(t.A))
		touch(st.ByNode(t.B))
	}
	for _, n := range e.Recapped {
		recap(n)
		touch(st.ByNode(n))
	}
	slices.Sort(reach)
	reach = slices.Compact(reach)
	forced := forcedMap(nl, opt)
	var todo []int
	var todoFps []uint64
	for _, i := range reach {
		if fp := st.Stages[i].Fingerprint(caps, forced); fp != prev.fps[i] {
			todo = append(todo, i)
			todoFps = append(todoFps, fp)
		}
	}
	sp.End()
	stats := BuildStats{Stages: len(st.Stages), Patched: true}
	if len(todo) == 0 && !moved {
		countHits(opt, len(st.Stages), 0)
		return prev.model, stats, nil
	}

	if c.scratch != nil && c.scratchOf == prev.model {
		for _, t := range e.Resized {
			c.scratch.rEff[t.Index] = DeviceR(t, p)
		}
		c.scratch.caps = caps
	} else {
		c.scratch = newGraph(nl, p, caps, forced, c.scratch)
	}
	// The snapshot now holds the edited state; it matches no model until
	// this build completes.
	c.scratchOf = nil
	shards := slices.Clone(prev.shards)
	sp = opt.Obs.Span("shard-build")
	err := buildShards(ctx, c.scratch, st, opt, shards, todo)
	sp.End()
	if err != nil {
		return nil, BuildStats{}, err
	}
	countHits(opt, len(st.Stages), len(todo))
	for _, i := range todo {
		stats.Rebuilt = append(stats.Rebuilt, st.Stages[i])
	}

	m := &Model{Caps: caps, NodeFlags: prev.model.NodeFlags, NodePhase: prev.model.NodePhase}
	sp = opt.Obs.Span("merge+sort")
	if !patchEdges(m, prev.model, prev.shards, shards, todo) {
		mergeShards(m, shards)
		stats.Patched = false
	}
	sp.End()
	fps := slices.Clone(prev.fps)
	for k, i := range todo {
		fps[i] = todoFps[k]
	}
	c.last = built{st: st, fps: fps, shards: shards, model: m}
	c.scratchOf = m
	return m, stats, nil
}

// patchEdges fills m's edges from prev's with the rebuilt shards written
// over the old ones in place and gives m prev's arc token. It requires
// every rebuilt shard to list the same arc identities as its old shard, in
// the same order: then the merge would place each arc exactly where its
// old counterpart sits, so overwriting by position is the full merge. It
// returns false, leaving m untouched, when that does not hold.
func patchEdges(m, prev *Model, old, shards []shard, todo []int) bool {
	if prev.arcs == nil {
		return false
	}
	trunc := prev.Truncated
	for _, si := range todo {
		o, n := old[si].edges, shards[si].edges
		if len(o) != len(n) {
			return false
		}
		for k := range n {
			if o[k].key() != n[k].key() {
				return false
			}
		}
		trunc += shards[si].truncated - old[si].truncated
	}
	edges := prev.Edges
	if len(todo) > 0 {
		edges = slices.Clone(prev.Edges)
	}
	for _, si := range todo {
		for k := range old[si].edges {
			at := prev.arcs.find(prev.Edges, &old[si].edges[k])
			if at < 0 {
				return false
			}
			edges[at] = shards[si].edges[k]
		}
	}
	m.Edges, m.Truncated, m.arcs = edges, trunc, prev.arcs
	return true
}

// countHits exports the shard-cache hit/miss counters for one build.
func countHits(opt Options, stages, misses int) {
	opt.Obs.Counter("delay_cache_hits_total",
		"stage shards reused from the content-addressed cache").Add(int64(stages - misses))
	opt.Obs.Counter("delay_cache_misses_total",
		"stage shards rebuilt on cache miss").Add(int64(misses))
}

// Fingerprints computes the per-stage content fingerprints for the
// current netlist state without building any edges — exactly the keys a
// BuildWithCache on the same state would probe. Session persistence uses
// it: the snapshot stores these as a compact proof that a restore
// re-derived the same partition and shard-cache keyspace.
func Fingerprints(nl *netlist.Netlist, st *stage.Result, p tech.Params, opt Options) []uint64 {
	opt = opt.withDefaults()
	caps := ComputeCaps(nl, p)
	forced := forcedMap(nl, opt)
	fps := make([]uint64, len(st.Stages))
	for i, s := range st.Stages {
		fps[i] = s.Fingerprint(caps, forced)
	}
	return fps
}

package incr

import (
	"context"
	"fmt"
	"sync"
	"time"

	"nmostv/internal/core"
	"nmostv/internal/delay"
	"nmostv/internal/netlist"
	"nmostv/internal/obs"
	"nmostv/internal/slack"
	"nmostv/internal/tech"
	"nmostv/internal/tverr"
)

// Per-corner incremental state. A session configured with Options.Corners
// maintains, next to its base (typical-process) analysis, one complete
// analysis per named PVT corner. Every corner shares the session's
// netlist, stage partition, and — because a corner only rescales delays
// uniformly (delay.ScaleModel keeps structure) — the base result's
// propagation plan. A delta batch updates the base and every corner as
// one atomic step: either all corners commit alongside the base result,
// or an abort rolls the whole batch back and every published per-corner
// result is untouched. SelfCheck extends to the corners, asserting each
// one bit-identical to a from-scratch analysis at that corner.

// cornerState is one corner's published analysis plus its caches.
type cornerState struct {
	corner tech.Corner
	model  *delay.Model
	res    *core.Result

	// arena is this corner's private analysis scratch. The base arena
	// cannot be shared: its DeltaStats.Relaxed mask from the base
	// incremental pass is still live while the corners analyze.
	arena core.Arena

	// hits counts batches that reused the corner model because the base
	// model was unchanged; misses counts re-derivations (ScaleModel).
	hits, misses int64

	req requiredCache
}

// cornerUpdate is one corner's re-analysis staged for atomic commit.
type cornerUpdate struct {
	model   *delay.Model
	res     *core.Result
	hit     bool
	elapsed time.Duration
}

// requiredCache lazily computes and memoizes the backward pass for one
// published result. Keying on the result pointer makes commits invalidate
// it for free; the private mutex lets concurrent read-locked queries
// share one computation without racing.
type requiredCache struct {
	mu  sync.Mutex
	res *core.Result
	req *core.Required
}

// get returns the required times for res, computing them on first use.
// opt must not carry an arena: queries run concurrently under the session
// read lock, and the backward pass needs no scratch reuse. The context
// cancels a first-use computation and carries the caller's request span,
// so a query that triggers the lazy backward pass records its "required"
// phase spans in that request's flight-recorder trace.
func (c *requiredCache) get(ctx context.Context, res *core.Result, opt core.Options) (*core.Required, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.res == res && c.req != nil {
		return c.req, nil
	}
	opt.Obs = opt.Obs.ForRequest(ctx)
	req, err := res.Required(ctx, opt)
	if err != nil {
		return nil, err
	}
	c.res, c.req = res, req
	return req, nil
}

// validateCorners checks the configured corner list at session creation.
func validateCorners(corners []tech.Corner) error {
	seen := make(map[string]bool, len(corners))
	for _, c := range corners {
		if err := c.Validate(); err != nil {
			return tverr.New(tverr.Invalid, "incr.corners", err)
		}
		if seen[c.Name] {
			return tverr.Errorf(tverr.Invalid, "incr.corners", "corner %q listed twice", c.Name)
		}
		seen[c.Name] = true
	}
	return nil
}

// analyzeCornersFull runs every configured corner from scratch against
// the freshly analyzed base (model, res), staging the updates for commit.
// Called from runFull with the write lock held.
func (s *Session) analyzeCornersFull(ctx context.Context, o *obs.Obs, model *delay.Model, res *core.Result) ([]cornerUpdate, error) {
	if len(s.corners) == 0 {
		return nil, nil
	}
	defer o.Span("corner-analyses").End()
	plan := res.Plan()
	pend := make([]cornerUpdate, len(s.corners))
	for i, cs := range s.corners {
		start := time.Now()
		if cs.corner.IsTypical() {
			// The unit corner is the base analysis itself.
			pend[i] = cornerUpdate{model: model, res: res, elapsed: time.Since(start)}
			continue
		}
		cm := delay.ScaleModel(model, cs.corner.RScale, cs.corner.CScale)
		copt := s.opt.Core
		copt.Obs = o
		copt.Arena = &cs.arena
		copt.Plan = plan
		cres, err := core.Analyze(ctx, s.nl, cm, s.opt.Sched, copt)
		if err != nil {
			return nil, fmt.Errorf("corner %s: %w", cs.corner.Name, err)
		}
		pend[i] = cornerUpdate{model: cm, res: cres, elapsed: time.Since(start)}
	}
	return pend, nil
}

// analyzeCornersDelta extends every corner's previous analysis after a
// delta batch. model/res are the staged base results; prevModel is the
// base model before the batch, so pointer equality detects that the
// corner models (and their arc contents) are still valid — those batches
// count as corner cache hits. seed is the same dirty set the base pass
// used: it marks the stages whose arcs changed, and uniform scaling
// changes a corner arc exactly when it changes the base arc. Called from
// Apply with the write lock held; nothing is published here.
func (s *Session) analyzeCornersDelta(ctx context.Context, o *obs.Obs, model, prevModel *delay.Model, res *core.Result, seed []bool) ([]cornerUpdate, error) {
	if len(s.corners) == 0 {
		return nil, nil
	}
	defer o.Span("corner-analyses").End()
	plan := res.Plan()
	pend := make([]cornerUpdate, len(s.corners))
	for i, cs := range s.corners {
		start := time.Now()
		hit := model == prevModel && cs.model != nil
		if cs.corner.IsTypical() {
			pend[i] = cornerUpdate{model: model, res: res, hit: hit, elapsed: time.Since(start)}
			continue
		}
		cm := cs.model
		if !hit {
			cm = delay.ScaleModel(model, cs.corner.RScale, cs.corner.CScale)
		}
		copt := s.opt.Core
		copt.Obs = o
		copt.Arena = &cs.arena
		copt.Plan = plan
		cres, _, err := core.AnalyzeIncremental(ctx, s.nl, cm, s.opt.Sched, copt, cs.res, seed)
		if err != nil {
			return nil, fmt.Errorf("corner %s: %w", cs.corner.Name, err)
		}
		pend[i] = cornerUpdate{model: cm, res: cres, hit: hit, elapsed: time.Since(start)}
	}
	return pend, nil
}

// commitCorners publishes the staged corner updates and exports their
// metrics. Called with the write lock held, after the base commit, only
// when every corner succeeded.
func (s *Session) commitCorners(pend []cornerUpdate) {
	o := s.opt.Obs
	dlbl := obs.Label{Key: "design", Val: s.name}
	for i, up := range pend {
		cs := s.corners[i]
		cs.model, cs.res = up.model, up.res
		clbl := obs.Label{Key: "corner", Val: cs.corner.Name}
		if up.hit {
			cs.hits++
			o.Counter("incr_corner_cache_hits_total",
				"batches that reused a corner timing model unchanged", dlbl, clbl).Inc()
		} else {
			cs.misses++
			o.Counter("incr_corner_cache_misses_total",
				"batches that re-derived a corner timing model", dlbl, clbl).Inc()
		}
		o.Histogram("incr_corner_analysis_seconds",
			"wall time of one corner's re-analysis within a batch", nil, dlbl, clbl).
			Observe(up.elapsed.Seconds())
	}
}

// selfCheckCorners re-derives every corner from the reference base model
// and asserts the published corner state bit-identical: arcs, arrivals,
// checks, and the backward pass. Called from SelfCheck with the write
// lock held; model is the from-scratch reference base model.
func (s *Session) selfCheckCorners(ctx context.Context, model *delay.Model) error {
	refOpt := s.opt.Core
	refOpt.Obs = s.opt.Obs.ForRequest(ctx)
	for _, cs := range s.corners {
		refM := delay.ScaleModel(model, cs.corner.RScale, cs.corner.CScale)
		if len(refM.Edges) != len(cs.model.Edges) {
			return fmt.Errorf("selfcheck corner %s: %d timing arcs, reference %d",
				cs.corner.Name, len(cs.model.Edges), len(refM.Edges))
		}
		for i := range refM.Edges {
			if refM.Edges[i] != cs.model.Edges[i] {
				return fmt.Errorf("selfcheck corner %s: timing arc %d differs: %+v vs reference %+v",
					cs.corner.Name, i, cs.model.Edges[i], refM.Edges[i])
			}
		}
		ref, err := core.Analyze(ctx, s.nl, refM, s.opt.Sched, refOpt)
		if err != nil {
			return fmt.Errorf("selfcheck corner %s reference analysis: %w", cs.corner.Name, err)
		}
		if err := compareResults(cs.res, ref); err != nil {
			return fmt.Errorf("corner %s: %w", cs.corner.Name, err)
		}
		refReq, err := ref.Required(ctx, refOpt)
		if err != nil {
			return fmt.Errorf("selfcheck corner %s reference backward pass: %w", cs.corner.Name, err)
		}
		gotReq, err := cs.req.get(ctx, cs.res, s.opt.Core)
		if err != nil {
			return fmt.Errorf("selfcheck corner %s backward pass: %w", cs.corner.Name, err)
		}
		if err := compareRequired(gotReq, refReq, s.nl.Nodes); err != nil {
			return fmt.Errorf("corner %s: %w", cs.corner.Name, err)
		}
	}
	return nil
}

// compareRequired asserts bit-identical required times and slacks.
func compareRequired(got, ref *core.Required, nodes []*netlist.Node) error {
	for i := range ref.RiseRAT {
		if got.RiseRAT[i] != ref.RiseRAT[i] || got.FallRAT[i] != ref.FallRAT[i] {
			return fmt.Errorf("selfcheck: node %s required times differ: rise %v/%v fall %v/%v",
				nodes[i], got.RiseRAT[i], ref.RiseRAT[i], got.FallRAT[i], ref.FallRAT[i])
		}
		if got.SlackRise[i] != ref.SlackRise[i] || got.SlackFall[i] != ref.SlackFall[i] {
			return fmt.Errorf("selfcheck: node %s slacks differ: rise %v/%v fall %v/%v",
				nodes[i], got.SlackRise[i], ref.SlackRise[i], got.SlackFall[i], ref.SlackFall[i])
		}
	}
	return nil
}

// CornerInfo summarizes one corner's published state for /stats and
// /corners: the derate factors, the model-reuse ("cache hit") totals, and
// the corner's current signoff numbers.
type CornerInfo struct {
	Name   string  `json:"name"`
	RScale float64 `json:"r_scale"`
	CScale float64 `json:"c_scale"`
	// CacheHits counts delta batches that kept the corner timing model
	// (base model unchanged); CacheMisses counts re-derivations, full
	// runs included. CacheHitRate is hits/(hits+misses).
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	// Violations and MinSlack summarize the corner's timing checks.
	Violations int      `json:"violations"`
	MinSlack   *float64 `json:"min_slack,omitempty"`
}

// Corners describes the session's configured corners, in option order;
// nil when the session runs single-corner.
func (s *Session) Corners() []CornerInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cornerInfos()
}

// cornerInfos builds the corner summaries. Callers hold a session lock.
func (s *Session) cornerInfos() []CornerInfo {
	if len(s.corners) == 0 {
		return nil
	}
	out := make([]CornerInfo, len(s.corners))
	for i, cs := range s.corners {
		ci := CornerInfo{
			Name:        cs.corner.Name,
			RScale:      cs.corner.RScale,
			CScale:      cs.corner.CScale,
			CacheHits:   cs.hits,
			CacheMisses: cs.misses,
		}
		if total := cs.hits + cs.misses; total > 0 {
			ci.CacheHitRate = float64(cs.hits) / float64(total)
		}
		ci.Violations = len(cs.res.Violations())
		if ms, ok := cs.res.MinSlack(); ok {
			ci.MinSlack = &ms
		}
		out[i] = ci
	}
	return out
}

// SlackInfo is one row of a slack ranking, serializable. Corner names
// the corner that set the slack; it is empty for a single-corner session.
type SlackInfo struct {
	Node     string  `json:"node"`
	Corner   string  `json:"corner,omitempty"`
	Pol      string  `json:"pol"`
	Arrival  float64 `json:"arrival"`
	Required float64 `json:"required"`
	Slack    float64 `json:"slack"`
}

// Slack returns the k most critical slacks, worst first (k ≤ 0 = all
// constrained). corner selects the view: a configured corner's name for
// that corner alone, or "" for the merged worst-slack-per-node view
// across every configured corner (the base analysis when none are).
// The backward pass runs lazily on first query and is cached until the
// next committed batch; the context cancels that computation and routes
// its phase spans to the request's flight-recorder trace.
func (s *Session) Slack(ctx context.Context, k int, corner string) ([]SlackInfo, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if corner != "" || len(s.corners) == 0 {
		res, rc, err := s.resolveCorner(corner, "incr.slack")
		if err != nil {
			return nil, err
		}
		req, err := rc.get(ctx, res, s.opt.Core)
		if err != nil {
			return nil, err
		}
		ranked := res.SlackRanking(req, k)
		out := make([]SlackInfo, len(ranked))
		for i, e := range ranked {
			out[i] = SlackInfo{
				Node: e.Node.Name, Corner: corner, Pol: e.Pol.String(),
				Arrival: e.Arrival, Required: e.Required, Slack: e.Slack,
			}
		}
		return out, nil
	}
	sw, err := s.mergedSweep(ctx)
	if err != nil {
		return nil, err
	}
	ranked := sw.Ranking(k)
	out := make([]SlackInfo, len(ranked))
	for i, e := range ranked {
		out[i] = SlackInfo{
			Node: e.Node.Name, Corner: e.Corner, Pol: e.Pol.String(),
			Arrival: e.Arrival, Required: e.Required, Slack: e.Slack,
		}
	}
	return out, nil
}

// resolveCorner resolves a corner name ("" = base) to its published
// result and that result's backward-pass cache; op names the calling
// query in the NotFound error. Caller holds a lock.
func (s *Session) resolveCorner(name, op string) (*core.Result, *requiredCache, error) {
	if name == "" {
		return s.res, &s.baseReq, nil
	}
	for _, cs := range s.corners {
		if cs.corner.Name == name {
			return cs.res, &cs.req, nil
		}
	}
	return nil, nil, tverr.Errorf(tverr.NotFound, op,
		"no corner %q configured (have %s)", name, s.cornerNames())
}

func (s *Session) cornerNames() string {
	if len(s.corners) == 0 {
		return "none"
	}
	names := ""
	for i, cs := range s.corners {
		if i > 0 {
			names += ","
		}
		names += cs.corner.Name
	}
	return names
}

// mergedSweep assembles the slack.Sweep over the published corner state,
// computing any missing backward passes. Caller holds a lock.
func (s *Session) mergedSweep(ctx context.Context) (*slack.Sweep, error) {
	crs := make([]slack.CornerResult, len(s.corners))
	for i, cs := range s.corners {
		req, err := cs.req.get(ctx, cs.res, s.opt.Core)
		if err != nil {
			return nil, err
		}
		crs[i] = slack.CornerResult{Corner: cs.corner, Model: cs.model, Res: cs.res, Req: req}
	}
	return slack.Merge(crs)
}

// CriticalAt returns the k most constrained endpoints with their paths at
// one corner ("" = the base analysis), worst first (see paths.Critical).
func (s *Session) CriticalAt(corner string, k int) ([]CriticalEntry, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	res, _, err := s.resolveCorner(corner, "incr.critical")
	if err != nil {
		return nil, err
	}
	return criticalEntries(res, k), nil
}

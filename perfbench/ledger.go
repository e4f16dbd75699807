package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"nmostv/internal/clocks"
	"nmostv/internal/core"
	"nmostv/internal/delay"
	"nmostv/internal/flow"
	"nmostv/internal/incr"
	"nmostv/internal/netlist"
	"nmostv/internal/obs"
	"nmostv/internal/paths"
	"nmostv/internal/server"
	"nmostv/internal/simfile"
	"nmostv/internal/slack"
	"nmostv/internal/snapshot"
	"nmostv/internal/stage"
	"nmostv/internal/tech"
)

// The per-layer ledger. It times calls into each layer's public functions
// from this process, on the same design and with the same settings the
// tv and tvd binaries use, and reads the phases that exist only inside
// incr.Session.Apply and incr.Restore from the spans the engine already
// records through obs.Tracer. It is the same for every workload: each
// layer is measured once, and NOTES.md says which workload's end-to-end
// metric each layer figure should move.

const (
	// signoffRounds is how many times the in-process signoff pipeline
	// and each of the plain and traced tv runs are repeated.
	signoffRounds = 5
	// applyPairs is how many edit pairs the apply ledger applies, on an
	// untraced and on a traced session.
	applyPairs = 8
	// snapshotRounds is how many export/save/load/restore rounds run.
	snapshotRounds = 3
)

// step is one named call the ledger times.
type step struct {
	name string
	f    func() error
}

// sampler collects named samples; each metric reports their median.
type sampler map[string][]float64

func (s sampler) add(name string, v float64) { s[name] = append(s[name], v) }

func (s sampler) med(name string) float64 { return median(s[name]) }

// timed runs f and records its wall time in ms under name+"_ms" and the
// bytes it allocated, in MB, under name+"_mb".
func (s sampler) timed(name string, f func() error) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err := f()
	dt := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	s.add(name+"_ms", ms(dt))
	s.add(name+"_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
	return nil
}

func sessionOptions() incr.Options {
	return incr.Options{Params: tech.Default(), Sched: clocks.TwoPhase(1000, 0.8)}
}

func runLedger(e *env, rep *report) error {
	ctx := context.Background()
	if err := ledgerSignoff(ctx, e, rep); err != nil {
		return err
	}
	applyP50, err := ledgerSession(ctx, e, rep)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := ledgerServer(ctx, e, rep); err != nil {
		return err
	}
	return ledgerHTTP(e, rep, applyP50)
}

// signoffLayers are the in-process signoff phases whose self times add up
// to the in-process share of one tv run.
var signoffLayers = []string{"simfile.read", "netlist.finalize", "stage.extract", "flow.analyze",
	"delay.build", "core.analyze", "core.required", "paths.top20", "slack.sweep"}

// ledgerSignoff repeats tv's signoff pipeline in process, then times the
// tv binary plain and with -trace to attribute the remainder and the
// tracing overhead.
func ledgerSignoff(ctx context.Context, e *env, rep *report) error {
	s := sampler{}
	p := tech.Default()
	sched := clocks.TwoPhase(1000, 0.8)
	corners, err := tech.ParseCorners("slow,typ,fast")
	if err != nil {
		return err
	}
	opt := core.Options{}
	for r := 0; r < signoffRounds; r++ {
		runtime.GC()
		var nl *netlist.Netlist
		var st *stage.Result
		var model *delay.Model
		var res *core.Result
		steps := []step{
			{"simfile.read", func() error {
				f, err := os.Open(e.simPath)
				if err != nil {
					return err
				}
				defer f.Close()
				nl, err = simfile.Read(f, e.simPath)
				return err
			}},
			// simfile.Read finalizes the netlist before it returns; this
			// second, idempotent call times that share so it can be taken
			// out of the parse's self time.
			{"netlist.finalize", func() error { nl.Finalize(); return nil }},
			{"stage.extract", func() error { st = stage.Extract(nl); return nil }},
			{"flow.analyze", func() error { flow.Analyze(nl); return nil }},
			{"delay.build", func() error { model = delay.Build(nl, st, p, delay.Options{}); return nil }},
			{"core.analyze", func() (err error) { res, err = core.Analyze(ctx, nl, model, sched, opt); return err }},
			{"core.required", func() error {
				req, err := res.Required(ctx, opt)
				if err == nil {
					res.SlackRanking(req, 20)
				}
				return err
			}},
			{"paths.top20", func() error {
				g := paths.New(res)
				for i := 0; i < 20; i++ {
					if _, ok := g.Next(); !ok {
						break
					}
				}
				return nil
			}},
			{"slack.sweep", func() error {
				sw, err := slack.Analyze(ctx, nl, model, corners, slack.Options{Sched: sched, Core: opt})
				if err == nil {
					sw.Ranking(20)
				}
				return err
			}},
		}
		for _, c := range steps {
			if err := s.timed(c.name, c.f); err != nil {
				return err
			}
		}
	}
	// The parse's self time excludes the finalize it ends with.
	for i := range s["simfile.read_ms"] {
		s["simfile.read_ms"][i] -= s["netlist.finalize_ms"][i]
	}
	sum := 0.0
	for _, name := range signoffLayers {
		sum += s.med(name + "_ms")
		rep.set(name+"_ms", "ms", s.med(name+"_ms"))
	}
	for _, name := range []string{"simfile.read", "stage.extract", "flow.analyze", "delay.build", "core.analyze", "slack.sweep"} {
		rep.set(name+"_mb", "MB", s.med(name+"_mb"))
	}
	readS := (s.med("simfile.read_ms") + s.med("netlist.finalize_ms")) / 1000
	rep.set("simfile.mb_per_s", "MB/s", float64(len(e.sim))/(1<<20)/readS)

	traceFile := filepath.Join(e.work, "tv-trace.json")
	var plain, traced []float64
	for r := 0; r < signoffRounds; r++ {
		for _, withTrace := range []bool{r%2 == 1, r%2 == 0} {
			flags := signoffArgs
			if withTrace {
				flags = append([]string{"-trace", traceFile}, signoffArgs...)
			}
			run, err := runTV(e, flags...)
			if err != nil {
				return err
			}
			rep.check(run.code == 0, fmt.Sprintf("tv %v exited %d", flags, run.code))
			if withTrace {
				traced = append(traced, ms(run.wall))
			} else {
				plain = append(plain, ms(run.wall))
			}
		}
	}
	rep.set("tv.run_ms", "ms", median(plain))
	rep.set("tv.other_ms", "ms", median(plain)-sum)
	rep.set("trace.signoff_overhead_ms", "ms", median(traced)-median(plain))
	return nil
}

// applyRun applies applyPairs generated edit pairs to sess and returns
// each batch's wall time and stats. between, when set, runs after every
// forward batch, while the edit is in place.
func applyRun(ctx context.Context, e *env, sess *incr.Session, between func() error) ([]float64, []incr.Stats, error) {
	eds := newEdits(e.nl, e.seed)
	var walls []float64
	var stats []incr.Stats
	apply := func(batch []incr.Delta) ([]int64, error) {
		t0 := time.Now()
		st, err := sess.Apply(ctx, batch)
		walls = append(walls, ms(time.Since(t0)))
		stats = append(stats, st)
		if err == nil && between != nil && len(stats)%2 == 1 {
			err = between()
		}
		return st.AddedIDs, err
	}
	for i := 0; i < applyPairs; i++ {
		if err := runPair(eds.next(), apply); err != nil {
			return nil, nil, err
		}
	}
	return walls, stats, nil
}

// ledgerSession measures incr: apply with its spans and work counters,
// the in-process queries, export, snapshot encode/save/load/decode,
// restore with its spans, and journal append and replay. It returns the
// untraced apply p50 in ms.
func ledgerSession(ctx context.Context, e *env, rep *report) (float64, error) {
	s := sampler{}
	opt := sessionOptions()

	// Traced session first: every phase span of every batch.
	tr := obs.NewTracer()
	topt := opt
	topt.Obs = &obs.Obs{Tr: tr}
	nl, err := simfile.Read(bytes.NewReader(e.sim), designName)
	if err != nil {
		return 0, err
	}
	traced, err := incr.New(ctx, designName, nl, topt)
	if err != nil {
		return 0, err
	}
	tracedWalls, _, err := applyRun(ctx, e, traced, nil)
	if err != nil {
		return 0, fmt.Errorf("traced apply: %w", err)
	}
	roots, err := spanTree(tr)
	if err != nil {
		return 0, err
	}
	var applyOps []map[string]float64
	for _, r := range roots {
		if r.name == "apply-batch" {
			applyOps = append(applyOps, selfTimes(r))
		}
	}
	applySpans := []string{"delta-resolve", "delta-apply", "fingerprint+probe", "shard-build", "merge+sort",
		"wave-plan", "sources+storage", "cone-re-relax", "cone-re-relax-early", "checks"}
	reportSpans(rep, "apply", applySpans, applyOps)
	runtime.GC()

	// Untraced session: apply cost, work counters, in-process queries.
	nl, err = simfile.Read(bytes.NewReader(e.sim), designName)
	if err != nil {
		return 0, err
	}
	sess, err := incr.New(ctx, designName, nl, opt)
	if err != nil {
		return 0, err
	}
	qnodes := signalNodes(e.nl)
	qrng := rand.New(rand.NewSource(e.seed))
	queries := func() error {
		node := qnodes[qrng.Intn(len(qnodes))].Name
		steps := []step{
			{"incr.critical", func() error { _, err := sess.CriticalAt("", 10); return err }},
			{"incr.paths", func() error {
				ps, err := sess.PathStream("")
				for i := 0; err == nil && i < 20; i++ {
					if _, ok := ps.Next(); !ok {
						break
					}
				}
				return err
			}},
			{"incr.why", func() error { _, err := sess.Why(ctx, node, "", ""); return err }},
			{"incr.slack", func() error { _, err := sess.Slack(ctx, 10, ""); return err }},
			{"incr.node", func() error {
				if _, ok := sess.NodeTiming(node); !ok {
					return fmt.Errorf("no node %q", node)
				}
				return nil
			}},
			{"incr.diff", func() error { _, err := sess.Diff(ctx, 0, 0, 0, 10, 100); return err }},
		}
		for _, q := range steps {
			t0 := time.Now()
			err := q.f()
			rep.op(err == nil)
			if err != nil {
				return fmt.Errorf("%s: %w", q.name, err)
			}
			s.add(q.name, ms(time.Since(t0)))
		}
		return nil
	}
	walls, stats, err := applyRun(ctx, e, sess, queries)
	if err != nil {
		return 0, fmt.Errorf("apply: %w", err)
	}
	applyP50 := median(walls)
	var totalNS, relaxed, hits, total, reused float64
	for i, st := range stats {
		rep.op(true)
		s.add("nodes", float64(st.NodesRelaxed))
		s.add("rebuilt", float64(st.StagesRebuilt))
		s.add("cone", float64(st.ConeStages))
		totalNS += walls[i] * 1e6
		relaxed += float64(st.NodesRelaxed)
		hits += float64(st.StagesTotal - st.StagesRebuilt)
		total += float64(st.StagesTotal)
		if st.ReusedWave {
			reused++
		}
	}
	rep.set("incr.apply_ms", "ms", applyP50)
	rep.set("trace.apply_overhead_ms", "ms", median(tracedWalls)-applyP50)
	rep.set("incr.nodes_relaxed", "count", s.med("nodes"))
	rep.set("incr.stages_rebuilt", "count", s.med("rebuilt"))
	rep.set("incr.cone_stages", "count", s.med("cone"))
	rep.set("incr.reused_wave_frac", "ratio", reused/float64(len(stats)))
	rep.set("delay.cache_hit_ratio", "ratio", hits/total)
	rep.set("incr.ns_per_relaxed_node", "ns", totalNS/relaxed)
	for _, r := range queryRoutes {
		rep.set("incr."+r+"_ms", "ms", s.med("incr."+r))
	}

	// Snapshot: export, encode, save, load, decode, restore.
	store, err := snapshot.NewStore(filepath.Join(e.work, "ledger-state"))
	if err != nil {
		return 0, err
	}
	var snapBytes int
	var restored *incr.Session
	var restoreOps []map[string]float64
	for r := 0; r < snapshotRounds; r++ {
		runtime.GC()
		var st, loaded *snapshot.State
		var buf bytes.Buffer
		rtr := obs.NewTracer()
		ropt := opt
		ropt.Obs = &obs.Obs{Tr: rtr}
		steps := []step{
			{"incr.export", func() error { st = sess.Export(); return nil }},
			{"snapshot.encode", func() error { return snapshot.Encode(&buf, st) }},
			{"snapshot.store_save", func() error { return store.Save(st) }},
			{"snapshot.store_load", func() (err error) { loaded, err = store.Load(designName); return err }},
			{"snapshot.decode", func() error { _, err := snapshot.Decode(buf.Bytes()); return err }},
			{"incr.restore", func() (err error) { restored, err = incr.Restore(ctx, loaded, ropt); return err }},
		}
		for _, c := range steps {
			err := s.timed(c.name, c.f)
			rep.op(err == nil)
			if err != nil {
				return 0, err
			}
		}
		snapBytes = buf.Len()
		s.add("save_mb_per_s", float64(snapBytes)/(1<<20)/(s["snapshot.store_save_ms"][r]/1000))
		roots, err := spanTree(rtr)
		if err != nil {
			return 0, err
		}
		spanned := 0.0
		self := map[string]float64{}
		for _, root := range roots {
			spanned += root.dur
			for name, v := range selfTimes(root) {
				self[name] += v
			}
		}
		restoreOps = append(restoreOps, self)
		s.add("restore.proof", s["incr.restore_ms"][r]-spanned/1000)
	}
	for _, name := range []string{"incr.export", "snapshot.encode", "snapshot.store_save", "snapshot.store_load", "snapshot.decode", "incr.restore"} {
		rep.set(name+"_ms", "ms", s.med(name+"_ms"))
	}
	rep.set("snapshot.bytes", "bytes", float64(snapBytes))
	rep.set("snapshot.save_mb_per_s", "MB/s", s.med("save_mb_per_s"))
	rep.set("restore.proof_ms", "ms", s.med("restore.proof"))
	restoreSpans := []string{"finalize", "stage-partition", "flow", "fingerprint+probe", "shard-build", "merge+sort",
		"wave-plan", "sources+storage", "propagate", "propagate-early", "checks"}
	reportSpans(rep, "restore", restoreSpans, restoreOps)

	// Journal: append the next batches on the live session, then replay
	// them onto the session restored from the snapshot taken before them.
	jpath := filepath.Join(e.work, "ledger.journal")
	j, _, err := snapshot.OpenJournal(jpath, 1)
	if err != nil {
		return 0, err
	}
	appendBatch := func(batch []incr.Delta) ([]int64, error) {
		st, err := sess.Apply(ctx, batch)
		if err != nil {
			return nil, err
		}
		payload, err := json.Marshal(journalBatch{Kind: "delta", Deltas: batch})
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		err = j.Append(uint64(st.Version), payload)
		s.add("journal.append", ms(time.Since(t0)))
		return st.AddedIDs, err
	}
	eds := newEdits(e.nl, e.seed+1)
	for i := 0; i < batchesPerCycle/2; i++ {
		if err := runPair(eds.next(), appendBatch); err != nil {
			j.Close()
			return 0, fmt.Errorf("journal: %w", err)
		}
	}
	if err := j.Close(); err != nil {
		return 0, err
	}
	t0 := time.Now()
	j, recs, err := snapshot.OpenJournal(jpath, 1)
	if err != nil {
		return 0, err
	}
	defer j.Close()
	for _, rec := range recs {
		var b journalBatch
		if err := json.Unmarshal(rec.Payload, &b); err != nil {
			return 0, err
		}
		st, err := restored.Apply(ctx, b.Deltas)
		ok := err == nil && uint64(st.Version) == rec.Seq
		rep.op(ok)
		if !ok {
			return 0, fmt.Errorf("replay of record %d landed on version %d: %v", rec.Seq, st.Version, err)
		}
	}
	rep.set("journal.append_ms", "ms", s.med("journal.append"))
	rep.set("journal.replay_ms_per_record", "ms", ms(time.Since(t0))/float64(len(recs)))
	return applyP50, nil
}

// journalBatch mirrors the daemon's journal record payload.
type journalBatch struct {
	Kind   string       `json:"kind"`
	Deltas []incr.Delta `json:"deltas,omitempty"`
}

// reportSpans reports, for each named span, the median over operations of
// its self time under prefix, and the self time of every other span as
// prefix.other_ms. An operation that did not enter a phase spent no time
// in it.
func reportSpans(rep *report, prefix string, names []string, ops []map[string]float64) {
	known := map[string]bool{}
	for _, n := range names {
		known[n] = true
	}
	other := make([]float64, len(ops))
	for i, op := range ops {
		for name, v := range op {
			if !known[name] {
				other[i] += v
			}
		}
	}
	for _, n := range names {
		xs := make([]float64, len(ops))
		for i, op := range ops {
			xs[i] = op[n]
		}
		rep.set(prefix+"."+metricName(n)+"_ms", "ms", median(xs))
	}
	rep.set(prefix+".other_ms", "ms", median(other))
}

// metricName maps a span name to a metric name ('+' is not allowed).
func metricName(span string) string { return strings.ReplaceAll(span, "+", "-") }

// ledgerServer times the server layer in process: a load through
// server.Load and delta batches through the HTTP handler without a
// network hop.
func ledgerServer(ctx context.Context, e *env, rep *report) error {
	srv := server.New(server.Config{
		Params: tech.Default(), Sched: clocks.TwoPhase(1000, 0.8), Obs: obs.NewObs(),
	})
	t0 := time.Now()
	_, err := srv.Load(ctx, designName, bytes.NewReader(e.sim))
	rep.op(err == nil)
	if err != nil {
		return err
	}
	rep.set("server.load_ms", "ms", ms(time.Since(t0)))
	h := srv.Handler()
	var walls []float64
	post := func(batch []incr.Delta) ([]int64, error) {
		body, err := json.Marshal(batch)
		if err != nil {
			return nil, err
		}
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/delta", bytes.NewReader(body)))
		walls = append(walls, ms(time.Since(t0)))
		rep.op(rec.Code == http.StatusOK)
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("in-process delta: status %d: %s", rec.Code, rec.Body)
		}
		var st incr.Stats
		return st.AddedIDs, json.Unmarshal(rec.Body.Bytes(), &st)
	}
	eds := newEdits(e.nl, e.seed)
	for i := 0; i < batchesPerCycle/2; i++ {
		if err := runPair(eds.next(), post); err != nil {
			return err
		}
	}
	rep.set("server.delta_handler_ms", "ms", median(walls))
	return nil
}

// ledgerHTTP runs the eco traffic against a live tvd for half the run and
// reports per-route query latency, how reads fare beside in-flight
// batches, the writer's lag, and the HTTP cost of a batch over an
// in-process apply.
func ledgerHTTP(e *env, rep *report, applyP50 float64) error {
	c := newClient()
	d, _, err := startLoaded(e, c)
	if err != nil {
		return err
	}
	defer d.kill()
	res := driveEco(e, d, e.seconds/2)
	byRoute := sampler{}
	var blocked, lag, sent []float64
	for _, b := range res.batches {
		rep.check(b.ok, b.why)
		lag = append(lag, ms(b.sent.Sub(b.due)))
		sent = append(sent, ms(b.done.Sub(b.sent)))
	}
	for _, r := range res.reads {
		rep.check(r.ok, r.why)
		lat := ms(r.done.Sub(r.sent))
		byRoute.add(r.route, lat)
		for _, b := range res.batches {
			if r.sent.Before(b.done) && b.sent.Before(r.done) {
				blocked = append(blocked, lat)
				break
			}
		}
	}
	err = verifyAt(c, d.base, 1+res.acked)
	rep.check(err == nil, fmt.Sprint("final check: ", err))
	for _, r := range queryRoutes {
		rep.set("query."+r+"_p50_ms", "ms", byRoute.med(r))
	}
	rep.set("eco.query_blocked_frac", "ratio", float64(len(blocked))/float64(len(res.reads)))
	rep.set("eco.query_blocked_p50_ms", "ms", median(blocked))
	mean := 0.0
	for _, l := range lag {
		mean += l / float64(len(lag))
	}
	rep.set("eco.writer_lag_ms", "ms", mean)
	rep.set("server.delta_overhead_ms", "ms", median(sent)-applyP50)
	return nil
}

// span is one recorded phase on the main track, with the phases it
// contains.
type span struct {
	name     string
	ts, dur  float64 // µs
	children []*span
}

// spanTree reads a tracer's main-track spans back through its Chrome
// export and nests them by containment.
func spanTree(tr *obs.Tracer) ([]*span, error) {
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		return nil, err
	}
	var evs []struct {
		Name string  `json:"name"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Tid  int64   `json:"tid"`
	}
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		return nil, fmt.Errorf("trace export: %w", err)
	}
	var all []*span
	for _, ev := range evs {
		if ev.Tid == 0 {
			all = append(all, &span{name: ev.Name, ts: ev.Ts, dur: ev.Dur})
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].ts != all[j].ts {
			return all[i].ts < all[j].ts
		}
		return all[i].dur > all[j].dur
	})
	const eps = 1e-3
	var roots, stack []*span
	for _, sp := range all {
		for len(stack) > 0 {
			top := stack[len(stack)-1]
			if sp.ts+sp.dur <= top.ts+top.dur+eps {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			roots = append(roots, sp)
		} else {
			top := stack[len(stack)-1]
			top.children = append(top.children, sp)
		}
		stack = append(stack, sp)
	}
	return roots, nil
}

// selfTimes sums, per span name, the time in ms each span under root
// spent outside its child spans. Per-level wavefront spans ("level N")
// count as part of the phase that contains them.
func selfTimes(root *span) map[string]float64 {
	out := map[string]float64{}
	var walk func(sp *span)
	walk = func(sp *span) {
		self := sp.dur
		for _, c := range sp.children {
			if strings.HasPrefix(c.name, "level") {
				continue
			}
			self -= c.dur
			walk(c)
		}
		out[sp.name] += self / 1000
	}
	walk(root)
	return out
}

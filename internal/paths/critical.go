package paths

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"nmostv/internal/core"
)

// Ranked pairs a deadline check with the path that sets it.
type Ranked struct {
	Check core.Check
	Steps []Step
}

// Critical returns the k most constrained endpoints, worst (smallest
// slack) first: the minimum-slack latch or output check per endpoint
// node, ties broken by node index, each with its CheckPath. When the
// design has no deadline checks at all, it falls back to the k
// latest-settling nodes ranked against the cycle end, reported as
// output-style checks. Returns fewer than k entries when the design has
// fewer endpoints, nil when everything is static.
//
// Unlike the generator, this ranking follows the engine's checks: an arc
// whose worst cause misses its clock window is a missed-window check,
// not an endpoint, even where a smaller cause would still be captured.
func Critical(res *core.Result, k int) []Ranked {
	if k <= 0 {
		return nil
	}
	// res.Checks is sorted violations first, then by slack and node
	// index. A latch or output check is a violation exactly when its
	// slack is negative, so in that order each node's first deadline
	// check is its worst, and the firsts come out ranked.
	var out []Ranked
	seen := make(map[int]bool)
	for _, c := range res.Checks {
		if len(out) == k {
			return out
		}
		if (c.Kind != core.CheckLatch && c.Kind != core.CheckOutput) || seen[c.Node.Index] {
			continue
		}
		seen[c.Node.Index] = true
		out = append(out, Ranked{Check: c, Steps: CheckPath(res, c)})
	}
	if len(out) > 0 {
		return out
	}
	var picks []core.Check
	for _, n := range res.NL.Nodes {
		s := res.Settle(n)
		if n.IsSupply() || n.IsClock() || math.IsInf(s, -1) {
			continue
		}
		pol := core.Rise
		if res.FallAt[n.Index] > res.RiseAt[n.Index] {
			pol = core.Fall
		}
		p := res.Sched.Period
		picks = append(picks, core.Check{Kind: core.CheckOutput, Node: n, Pol: pol,
			Arrival: s, Deadline: p, Slack: p - s, OK: p-s >= 0})
	}
	slices.SortFunc(picks, func(x, y core.Check) int {
		if x.Slack != y.Slack {
			if x.Slack < y.Slack {
				return -1
			}
			return 1
		}
		return x.Node.Index - y.Node.Index
	})
	for _, c := range picks[:min(k, len(picks))] {
		out = append(out, Ranked{Check: c, Steps: CheckPath(res, c)})
	}
	return out
}

// CriticalPath returns the path to the design's most constrained
// endpoint — Critical's first entry — or nil for a fully static design.
func CriticalPath(res *core.Result) []Step {
	if r := Critical(res, 1); len(r) > 0 {
		return r[0].Steps
	}
	return nil
}

// CheckPath is the path that sets a check: for checks produced by an
// arc, the walk to the arc's cause plus the capture hop at the check's
// arrival; for output checks, the walk to the checked transition.
func CheckPath(res *core.Result, c core.Check) []Step {
	arc := c.Edge()
	if c.Kind == core.CheckOutput || arc < 0 {
		return walk(res, int32(c.Node.Index), c.Pol, 0)
	}
	e := &res.Model.Edges[arc]
	steps := walk(res, e.From, core.CausePol(e, c.Pol), 1)
	from := c.Arrival
	if len(steps) > 0 {
		from = steps[len(steps)-1].Arrival
	}
	wrapped := c.Kind == core.CheckLatch && c.Deadline > res.Sched.Fall(c.Phase)
	d, launch, clamped := transfer(res, arc, c.Pol, from, wrapped)
	return append(steps, Step{Node: e.To, Pol: c.Pol, Arc: arc,
		Delay: d, Launch: launch, Arrival: c.Arrival, Clamped: clamped})
}

// FormatPath renders a path as an indented multi-line listing with
// per-arc increments, naming each arc's device gate.
func FormatPath(res *core.Result, steps []Step) string {
	if len(steps) == 0 {
		return "(no path)"
	}
	var b strings.Builder
	for i, s := range steps {
		if i == 0 {
			b.WriteString("  start  ")
		} else {
			fmt.Fprintf(&b, "  +%.4f ", s.Arrival-steps[i-1].Arrival)
		}
		fmt.Fprintf(&b, "%-20s %s @ %8.4f ns", res.NL.Nodes[s.Node], s.Pol, s.Arrival)
		if s.Arc >= 0 {
			e := &res.Model.Edges[s.Arc]
			if t := res.NL.TransByID(e.Via); t != nil {
				kind := "pass"
				if e.Invert {
					kind = "gate"
				}
				fmt.Fprintf(&b, " (via %s %s)", kind, t.Gate)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

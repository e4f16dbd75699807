package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"net/url"
	"os"

	"nmostv/internal/gen"
	"nmostv/internal/incr"
	"nmostv/internal/netlist"
	"nmostv/internal/simfile"
	"nmostv/internal/tech"
)

// designTarget is the device-count floor of the benchmark chip: the tiled
// chip at this target has 103,168 transistors.
const designTarget = 100000

// designName is the name the design is loaded under in tvd.
const designName = "chip"

// jitteredDevices is how many device widths the seed perturbs, so each
// seed is a distinct but equally sized design.
const jitteredDevices = 64

// makeDesign writes the seed's variant of the tiled chip to path and
// returns the netlist parsed back from that file, so every value the
// request generator reads is exactly what the programs under test parse.
func makeDesign(seed int64, target int, path string) (*netlist.Netlist, []byte, error) {
	nl := gen.TiledChip(tech.Default(), gen.DefaultTiledChip(target))
	rng := rand.New(rand.NewSource(seed))
	widths := []float64{0.75, 1.25, 1.5, 2}
	for i := 0; i < jitteredDevices; i++ {
		t := nl.Trans[rng.Intn(len(nl.Trans))]
		t.W *= widths[rng.Intn(len(widths))]
	}
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := simfile.Write(w, nl); err != nil {
		return nil, nil, fmt.Errorf("write design: %w", err)
	}
	if err := w.Flush(); err != nil {
		return nil, nil, fmt.Errorf("write design: %w", err)
	}
	sim := buf.Bytes()
	if err := os.WriteFile(path, sim, 0o644); err != nil {
		return nil, nil, err
	}
	parsed, err := simfile.Read(bytes.NewReader(sim), path)
	if err != nil {
		return nil, nil, fmt.Errorf("parse design: %w", err)
	}
	return parsed, sim, nil
}

// pair is one edit and the edit that undoes it. Applying Fwd and then
// Inverse(added) returns the design to the state before Fwd, where added
// is the AddedIDs of Fwd's response.
type pair struct {
	Fwd        []incr.Delta
	inv        []incr.Delta
	Structural bool
}

// Inverse returns the undoing batch. A structural pair adds a device, so
// its inverse removes the device by the ID the add was assigned. No device
// has ID 0, so an add that reported no ID yields a remove that fails.
func (p pair) Inverse(added []int64) []incr.Delta {
	if !p.Structural {
		return p.inv
	}
	var id int64
	if len(added) > 0 {
		id = added[0]
	}
	return []incr.Delta{{Op: "remove", ID: id}}
}

// runPair sends p's forward batch and, if it succeeded, its inverse.
// send returns the IDs of the devices a batch added.
func runPair(p pair, send func([]incr.Delta) ([]int64, error)) error {
	added, err := send(p.Fwd)
	if err != nil {
		return err
	}
	_, err = send(p.Inverse(added))
	return err
}

// edits generates a seeded stream of self-inverting single-device edit
// pairs: resizes and capacitance changes, and one in ten a device added in
// parallel with an existing one. The kind of each pair follows a fixed
// cycle and only its target and value are seeded, so every seed asks for
// the same mix of structural and non-structural work in the same order.
// Each pair is generated against the unedited design, so it is valid as
// long as pairs are applied whole and in order.
type edits struct {
	rng   *rand.Rand
	devs  []*netlist.Transistor
	nodes []*netlist.Node
	n     int
}

// editKinds is the cycle of pair kinds: 1 add, 5 resizes, 4 setcaps.
var editKinds = []string{"add", "resize", "setcap", "resize", "setcap", "resize", "setcap", "resize", "setcap", "resize"}

func newEdits(nl *netlist.Netlist, seed int64) *edits {
	return &edits{rng: rand.New(rand.NewSource(seed)), devs: nl.Trans, nodes: signalNodes(nl)}
}

func (g *edits) next() pair {
	kind := editKinds[g.n%len(editKinds)]
	g.n++
	switch kind {
	case "add":
		t := g.devs[g.rng.Intn(len(g.devs))]
		kind := "e"
		if t.Kind == netlist.Dep {
			kind = "d"
		}
		return pair{Structural: true, Fwd: []incr.Delta{{
			Op: "add", Kind: kind, Gate: t.Gate.Name, A: t.A.Name, B: t.B.Name, W: t.W, L: t.L,
		}}}
	case "resize":
		t := g.devs[g.rng.Intn(len(g.devs))]
		scale := []float64{0.5, 1.5, 2}[g.rng.Intn(3)]
		return pair{
			Fwd: []incr.Delta{{Op: "resize", ID: t.ID, W: t.W * scale}},
			inv: []incr.Delta{{Op: "resize", ID: t.ID, W: t.W}},
		}
	default:
		n := g.nodes[g.rng.Intn(len(g.nodes))]
		return pair{
			Fwd: []incr.Delta{{Op: "setcap", Node: n.Name, Cap: n.Cap + 0.01*float64(1+g.rng.Intn(5))}},
			inv: []incr.Delta{{Op: "setcap", Node: n.Name, Cap: n.Cap}},
		}
	}
}

// signalNodes lists the nodes edits and queries may name: everything but
// the supplies and clocks.
func signalNodes(nl *netlist.Netlist) []*netlist.Node {
	var out []*netlist.Node
	for _, n := range nl.Nodes {
		if !n.IsSupply() && !n.IsClock() {
			out = append(out, n)
		}
	}
	return out
}

// Query routes of the eco reader, in the order their per-route metrics
// are reported.
var queryRoutes = []string{"critical", "paths", "why", "slack", "node", "diff"}

// query is one read request: its route name and request URI.
type query struct {
	Route string
	URI   string
}

// queries generates the eco reader's seeded request mix: the six routes
// in equal shares, with /why and /node naming a random signal node.
type queries struct {
	rng   *rand.Rand
	nodes []*netlist.Node
}

func newQueries(nl *netlist.Netlist, seed int64) *queries {
	return &queries{rng: rand.New(rand.NewSource(seed ^ 0x5eed)), nodes: signalNodes(nl)}
}

func (g *queries) next() query {
	route := queryRoutes[g.rng.Intn(len(queryRoutes))]
	node := g.nodes[g.rng.Intn(len(g.nodes))].Name
	switch route {
	case "critical":
		return query{route, "/critical?k=10"}
	case "paths":
		return query{route, "/paths?k=20"}
	case "why":
		return query{route, "/why?node=" + url.QueryEscape(node)}
	case "slack":
		return query{route, "/slack?k=10"}
	case "node":
		return query{route, "/node/" + url.PathEscape(node)}
	default:
		return query{route, "/diff"}
	}
}

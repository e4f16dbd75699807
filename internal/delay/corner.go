package delay

// Corner derivation: a PVT corner expressed as uniform R/C derates (see
// tech.Corner) scales every first-order RC delay by exactly
// rScale·cScale, because each enumerated arc delay is a sum of R·C
// products in which every R carries the rScale factor and every C the
// cScale factor. That algebraic identity means a corner model needs no
// stage re-extraction and no GND-path re-enumeration: it is the base
// model with its delay columns multiplied through. Everything structural
// — arc endpoints, phase masks, inversion, representative devices — is
// byte-identical to the base, which is what lets every corner share one
// wave plan in core.

// ScaleModel derives the timing model at a corner from the base (typical)
// model: edge delays scale by rScale·cScale, node capacitances by cScale,
// and the structural arrays (NodeFlags, NodePhase) are shared with the
// base, not copied — they are build-time snapshots both models read only.
// Infinite (impossible-transition) delays stay infinite under the
// positive scale, so the derived model fires exactly the arcs the base
// fires, and it shares the base's arc token (SameArcs). A unit scaling
// returns the base model itself.
func ScaleModel(base *Model, rScale, cScale float64) *Model {
	if rScale == 1 && cScale == 1 {
		return base
	}
	ds := rScale * cScale
	m := &Model{
		Edges:     make([]Edge, len(base.Edges)),
		Caps:      make([]float64, len(base.Caps)),
		NodeFlags: base.NodeFlags,
		NodePhase: base.NodePhase,
		Truncated: base.Truncated,
		arcs:      base.arcs,
	}
	copy(m.Edges, base.Edges)
	for i := range m.Edges {
		m.Edges[i].DRise *= ds
		m.Edges[i].DFall *= ds
	}
	for i, c := range base.Caps {
		m.Caps[i] = c * cScale
	}
	return m
}

// dynamicalu: full verification sign-off of a dynamic (precharged
// Manchester-carry) ALU slice — the workflow a 1983 chip team ran before
// tapeout, using every analysis in the library:
//
//  1. electrical rule checks (ratio rule);
//  2. charge-sharing analysis on the precharged carry rail;
//  3. worst-case timing and minimum cycle time, comparing the bare carry
//     chain against the re-buffered production design;
//  4. clock-skew tolerance from the best-case (race) analysis.
package main

import (
	"fmt"
	"log"

	"nmostv"
	"nmostv/internal/gen"
	"nmostv/internal/netlist"
)

const bits = 16

func buildALU(bufferEvery int) (*nmostv.Netlist, []*netlist.Node) {
	p := nmostv.DefaultParams()
	b := gen.New(fmt.Sprintf("dynalu%d_buf%d", bits, bufferEvery), p)
	phi1 := b.Clock("phi1", 1)
	phi2 := b.Clock("phi2", 2)

	// Operand latches feed the adder.
	var a, c []*netlist.Node
	for i := 0; i < bits; i++ {
		_, qa := b.Latch(phi1, b.Input(fmt.Sprintf("a%d", i)))
		_, qb := b.Latch(phi1, b.Input(fmt.Sprintf("b%d", i)))
		a = append(a, b.Inverter(qa))
		c = append(c, b.Inverter(qb))
	}
	sums, carries := b.ManchesterCarry(a, c, b.Input("cin"), phi1, phi2,
		gen.ManchesterOptions{BufferEvery: bufferEvery})

	// Result latches close the pipe stage.
	outs := make([]*netlist.Node, 0, bits+1)
	for _, s := range sums {
		_, q := b.Latch(phi1, s) // captured by the next φ1 (wrapped check)
		outs = append(outs, b.Output(b.Inverter(q)))
	}
	b.Output(b.Inverter(carries[len(carries)-1]))
	return b.Finish(), outs
}

func main() {
	p := nmostv.DefaultParams()
	fmt.Println("process:", p)

	for _, bufferEvery := range []int{0, 4} {
		nl, _ := buildALU(bufferEvery)
		stats := nl.ComputeStats()
		label := "bare carry rail"
		if bufferEvery > 0 {
			label = fmt.Sprintf("re-buffered every %d bits", bufferEvery)
		}
		fmt.Printf("\n=== %d-bit dynamic ALU, %s (%d transistors) ===\n",
			bits, label, stats.Transistors)

		d := nmostv.Prepare(nl, p, nmostv.PrepareOptions{})
		fmt.Println(d.Flow)

		// 1. Electrical rules.
		if findings := d.CheckERC(); len(findings) == 0 {
			fmt.Println("ERC: clean (ratio rule satisfied everywhere)")
		} else {
			for _, f := range findings {
				fmt.Println("ERC:", f)
			}
		}

		// 2. Charge sharing on the dynamic nodes.
		ch := d.CheckCharge()
		hazards := nmostv.ChargeHazards(ch)
		fmt.Printf("charge sharing: %d dynamic nodes, %d hazards\n", len(ch), len(hazards))
		for i, f := range hazards {
			if i >= 3 {
				fmt.Printf("  ... %d more\n", len(hazards)-3)
				break
			}
			fmt.Println("  ", f)
		}

		// 3. Timing: minimum cycle.
		base := nmostv.TwoPhase(5000, 0.8)
		T, res, err := d.MinPeriod(base, nmostv.AnalyzeOptions{}, 1, base.Period, 0.05)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("minimum cycle time: %.4g ns (%.3g MHz)\n", T, 1000/T)
		if tol, ok := res.SkewTolerance(); ok {
			fmt.Printf("clock skew tolerance: %.4g ns\n", tol)
		}
		path := nmostv.CriticalPath(res)
		fmt.Printf("critical path: %d arcs, ending at %s\n",
			len(path)-1, res.NL.Nodes[path[len(path)-1].Node])
	}

	fmt.Println("\nthe re-buffered rail trades a handful of devices for the quadratic")
	fmt.Println("propagate-run delay — the design point shipped in real datapaths.")
}

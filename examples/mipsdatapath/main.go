// mipsdatapath: the flagship scenario — verify a full 32-bit MIPS-like
// execution datapath (register file with decoders, operand latches,
// ripple-carry ALU, PLA-controlled barrel shifter, precharged result bus)
// exactly the way the original timing verifier was used on the MIPS chip:
// find the minimum cycle time, identify the critical path, and show the
// per-phase timing picture.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"nmostv"
	"nmostv/internal/gen"
	"nmostv/internal/report"
)

func main() {
	bits := flag.Int("bits", 32, "datapath width")
	words := flag.Int("words", 16, "register count")
	flag.Parse()

	p := nmostv.DefaultParams()
	nl := gen.MIPSDatapath(p, gen.DatapathConfig{
		Bits: *bits, Words: *words, ShiftAmounts: 4,
	})
	stats := nl.ComputeStats()
	fmt.Printf("%s: %d transistors (%d pass), %d nodes, %d precharged, %d outputs\n",
		nl.Name, stats.Transistors, stats.Passes, stats.Nodes, stats.Precharged, stats.Outputs)

	d := nmostv.Prepare(nl, p, nmostv.PrepareOptions{})
	fmt.Println(d.Flow)

	base := nmostv.TwoPhase(5000, 0.8)
	T, res, err := d.MinPeriod(base, nmostv.AnalyzeOptions{}, 1, base.Period, 0.05)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nminimum cycle time: %.4g ns (%.3g MHz at 4µm nMOS)\n", T, 1000/T)
	fmt.Printf("schedule: %s\n", res.Sched)
	slack, _ := res.MinSlack()
	fmt.Printf("worst slack: %.4g ns over %d checks\n\n", slack, len(res.Checks))

	fmt.Println("critical path (the ALU carry ripple, as on the real MIPS):")
	path := nmostv.CriticalPath(res)
	if len(path) > 14 {
		fmt.Print(nmostv.FormatPath(res, path[:7]))
		fmt.Printf("  ... %d intermediate arcs ...\n", len(path)-14)
		fmt.Print(nmostv.FormatPath(res, path[len(path)-7:]))
	} else {
		fmt.Print(nmostv.FormatPath(res, path))
	}

	// Settle-time distribution across the cycle.
	var times []float64
	for _, n := range res.NL.Nodes {
		if n.IsSupply() || n.IsClock() {
			continue
		}
		if s := res.Settle(n); !math.IsInf(s, -1) {
			times = append(times, s)
		}
	}
	fmt.Println()
	fmt.Print(report.Histogram(
		fmt.Sprintf("settle-time distribution over the %.4g ns cycle (%d nodes)", T, len(times)),
		times, 16))
}

// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives the built tv and tvd binaries on a seeded variant
// of the ~100k-transistor tiled chip and prints one JSON result line.
//
// Usage (run.sh builds the binaries and passes -bin and -work):
//
//	bash perfbench/run.sh --workload signoff|eco|restart --seed N --seconds S --trace 0|1
//
// With --trace 0 it measures the workload and reports the end-to-end
// metrics; with --trace 1 it runs the per-layer ledger instead (see
// ledger.go). NOTES.md describes the workloads, the metrics, and which
// layer each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"nmostv/internal/netlist"
)

// env is what every workload shares: the binaries, the generated design,
// and the run's parameters.
type env struct {
	tv, tvd string
	work    string
	logPath string
	simPath string
	sim     []byte
	nl      *netlist.Netlist
	seed    int64
	seconds time.Duration
}

var workloads = map[string]func(*env, *report) error{
	"signoff": runSignoff,
	"eco":     runEco,
	"restart": runRestart,
}

func main() {
	workload := flag.String("workload", "", "signoff, eco, or restart")
	seed := flag.Int64("seed", 1, "input seed: the design variant and the request stream")
	seconds := flag.Int("seconds", 10, "how long the run measures")
	trace := flag.Int("trace", 0, "1 runs the per-layer ledger instead of the end-to-end measurement")
	bin := flag.String("bin", "", "directory holding the built tv and tvd")
	work := flag.String("work", "", "scratch directory for designs, state and logs")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *bin == "" || *work == "" {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload signoff|eco|restart --seed N --seconds S --trace 0|1 -bin DIR -work DIR")
		os.Exit(2)
	}
	if *trace == 1 {
		run = runLedger
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(1)
	}()
	rep, err := execute(run, *bin, *work, *seed, time.Duration(*seconds)*time.Second)
	killAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.metrics[n]
		fmt.Printf("%-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
	out, err := json.Marshal(map[string]any{
		"correct":   rep.failed == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   rep.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// execute generates the seed's design in a fresh scratch directory, runs
// the workload, and removes the directory again.
func execute(run func(*env, *report) error, bin, work string, seed int64, seconds time.Duration) (*report, error) {
	dir := filepath.Join(work, fmt.Sprint(os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{
		tv: filepath.Join(bin, "tv"), tvd: filepath.Join(bin, "tvd"),
		work: dir, logPath: filepath.Join(dir, "tvd.log"), simPath: filepath.Join(dir, designName+".sim"),
		seed: seed, seconds: seconds,
	}
	for _, p := range []string{e.tv, e.tvd} {
		if _, err := os.Stat(p); err != nil {
			return nil, err
		}
	}
	var err error
	if e.nl, e.sim, err = makeDesign(seed, designTarget, e.simPath); err != nil {
		return nil, err
	}
	rep := newReport()
	err = run(e, rep)
	killAll()
	return rep, err
}

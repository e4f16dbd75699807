package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics and operation counts.
type report struct {
	metrics   map[string]metric
	attempted int
	failed    int
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// set records a metric. JSON has no NaN, which an empty sample's median
// is; such a metric is reported as 0 with a warning.
func (r *report) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		fmt.Fprintf(os.Stderr, "perfbench: %s has no samples\n", name)
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// op counts one attempted operation and whether it failed.
func (r *report) op(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// check is op for an operation whose failure has a description, which is
// printed for the first few failures.
func (r *report) check(ok bool, why string) {
	r.op(ok)
	if !ok && r.failed <= 10 {
		fmt.Println("failed:", why)
	}
}

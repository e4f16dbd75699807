package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"nmostv/internal/incr"
)

// signoffArgs are tv's flags in the signoff workload, before the design.
var signoffArgs = []string{"-corners", "slow,typ,fast", "-paths", "20", "-slack", "20"}

// minSamples is the fewest timed operations a run takes, however short
// --seconds is.
const minSamples = 5

// tvRun is one finished tv process.
type tvRun struct {
	wall   time.Duration
	rssMB  float64
	stdout []byte
	code   int
}

// runTV execs tv on the design with the given leading flags.
func runTV(e *env, flags ...string) (tvRun, error) {
	var out bytes.Buffer
	cmd := exec.Command(e.tv, append(flags, e.simPath)...)
	cmd.Stdout = &out
	t0 := time.Now()
	err := cmd.Run()
	wall := time.Since(t0)
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		return tvRun{}, fmt.Errorf("tv: %w", err)
	}
	ru, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	r := tvRun{wall: wall, stdout: out.Bytes(), code: cmd.ProcessState.ExitCode()}
	if ru != nil {
		r.rssMB = float64(ru.Maxrss) / 1024
	}
	return r, nil
}

// runSignoff runs tv closed-loop, one process at a time, and checks each
// report byte for byte against a serial (-j 1) golden taken at set-up.
func runSignoff(e *env, rep *report) error {
	c := newClient()
	d, err := measureSetup(e, c, rep)
	if err != nil {
		return err
	}
	d.kill()
	golden, err := runTV(e, append([]string{"-j", "1"}, signoffArgs...)...)
	if err != nil {
		return err
	}
	var walls, rss []float64
	end := time.Now().Add(e.seconds)
	for len(walls) < minSamples || time.Now().Before(end) {
		r, err := runTV(e, signoffArgs...)
		if err != nil {
			return err
		}
		rep.check(r.code == golden.code && bytes.Equal(r.stdout, golden.stdout),
			fmt.Sprintf("tv report (exit %d) differs from the -j 1 golden (exit %d)", r.code, golden.code))
		walls = append(walls, ms(r.wall))
		rss = append(rss, r.rssMB)
	}
	rep.set("op_p50_ms", "ms", median(walls))
	rep.set("peak_rss_mb", "MB", median(rss))
	fmt.Printf("signoff_p50_s %.4f s (n=%d)\nsignoff_peak_rss_mb %.1f MB\n",
		median(walls)/1000, len(walls), median(rss))
	return nil
}

// interval is one timed request: when it was due, sent, and answered,
// and for a read, its route.
type interval struct {
	due, sent, done time.Time
	route           string
	ok              bool
	// why describes a failure.
	why string
}

// ecoResult is what one eco run records.
type ecoResult struct {
	batches []interval
	reads   []interval
	acked   int64
}

// ecoRate is the open-loop writer's batch rate, about a third of what the
// daemon can apply on this design.
const ecoRate = 3

// driveEco runs the eco traffic against d for the given duration: an
// open-loop writer of edit pairs at ecoRate batches per second on one
// connection, and a closed-loop reader of the query mix on another. The
// writer always finishes the pair it started, so the design ends in its
// start state.
func driveEco(e *env, d *daemon, dur time.Duration) ecoResult {
	wc, rc := newClient(), newClient()
	defer wc.CloseIdleConnections()
	defer rc.CloseIdleConnections()
	var res ecoResult
	eds := newEdits(e.nl, e.seed)
	qs := newQueries(e.nl, e.seed)
	start := time.Now()
	end := start.Add(dur)
	stop := make(chan struct{})
	// The reader starts once the first batch is acknowledged: /diff
	// compares the last two versions, and before the first batch there
	// is only one.
	firstAck := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case <-firstAck:
		case <-stop:
			return
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			q := qs.next()
			iv := interval{route: q.Route, sent: time.Now()}
			code, body, err := do(rc, "GET", d.base+q.URI, nil)
			iv.done = time.Now()
			iv.ok = err == nil && code == http.StatusOK
			if !iv.ok {
				iv.why = fmt.Sprintf("GET %s: status %d, err %v: %.200s", q.URI, code, err, body)
			}
			res.reads = append(res.reads, iv)
			if err != nil {
				// The daemon is unreachable: stop rather than spin.
				return
			}
		}
	}()
	due := func(i int) time.Time { return start.Add(time.Duration(i) * time.Second / ecoRate) }
	sent := 0
	send := func(batch []incr.Delta) ([]int64, error) {
		at := due(sent)
		sent++
		time.Sleep(time.Until(at))
		iv := interval{due: at, sent: time.Now()}
		_, added, err := delta(wc, d.base, batch)
		iv.done = time.Now()
		iv.ok = err == nil
		if err != nil {
			iv.why = fmt.Sprintf("POST /delta %v: %v", batch, err)
		}
		res.batches = append(res.batches, iv)
		if iv.ok {
			res.acked++
			once.Do(func() { close(firstAck) })
		}
		return added, err
	}
	for len(res.batches) < 2*minSamples || due(sent).Before(end) {
		// A failed batch is recorded as such; the stream goes on.
		_ = runPair(eds.next(), send)
	}
	close(stop)
	wg.Wait()
	return res
}

// runEco measures edits beside reads on one loaded tvd.
func runEco(e *env, rep *report) error {
	c := newClient()
	d, err := measureSetup(e, c, rep)
	if err != nil {
		return err
	}
	defer d.kill()
	res := driveEco(e, d, e.seconds)
	var lat, reads []float64
	for _, b := range res.batches {
		rep.check(b.ok, b.why)
		if b.ok {
			lat = append(lat, ms(b.done.Sub(b.due)))
		}
	}
	for _, r := range res.reads {
		rep.check(r.ok, r.why)
		if r.ok {
			reads = append(reads, ms(r.done.Sub(r.sent)))
		}
	}
	// The load published version 1; every acknowledged batch adds one.
	err = verifyAt(c, d.base, 1+res.acked)
	rep.check(err == nil, fmt.Sprint("final check: ", err))
	hwm, err := d.hwmMB()
	if err != nil {
		return err
	}
	rep.set("op_p50_ms", "ms", median(lat))
	rep.set("peak_rss_mb", "MB", hwm)
	fmt.Printf("eco_delta_p50_ms %.4f ms\neco_delta_p90_ms %.4f ms (n=%d)\n", median(lat), quantile(lat, 0.9), len(lat))
	fmt.Printf("eco_query_p50_ms %.4f ms\neco_query_p99_ms %.4f ms (n=%d)\neco_tvd_rss_mb %.1f MB\n",
		median(reads), quantile(reads, 0.99), len(reads), hwm)
	return nil
}

// batchesPerCycle is how many journaled batches each restart cycle sends
// before stopping the daemon: three edit pairs.
const batchesPerCycle = 6

// minCycles is the fewest restart cycles a run makes, half of them kills.
const minCycles = 6

// runRestart cycles a durable tvd: journaled batches, then alternately a
// graceful stop (the drain writes a snapshot) or a kill (the journal keeps
// the batches), then a fresh tvd on the same state directory.
func runRestart(e *env, rep *report) error {
	c := newClient()
	d, err := measureSetup(e, c, rep)
	if err != nil {
		return err
	}
	d.kill()
	c.CloseIdleConnections()
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	args := []string{"-state-dir", filepath.Join(e.work, "state")}
	if d, err = startDaemon(e.tvd, addr, e.logPath, args...); err != nil {
		return err
	}
	defer func() { d.kill() }()
	if err := await(c, d.base, "/healthz", 30*time.Second); err != nil {
		return err
	}
	acked, err := loadDesign(c, d.base, e.sim)
	if err != nil {
		return err
	}
	eds := newEdits(e.nl, e.seed)
	var deltas, drains, graceful, crash, hwms []float64
	send := func(batch []incr.Delta) ([]int64, error) {
		t0 := time.Now()
		v, added, err := delta(c, d.base, batch)
		rep.check(err == nil, fmt.Sprint("journaled batch: ", err))
		if err != nil {
			return nil, err
		}
		deltas = append(deltas, ms(time.Since(t0)))
		acked = v
		return added, nil
	}
	end := time.Now().Add(e.seconds)
	for cycle := 0; cycle < minCycles || time.Now().Before(end); cycle++ {
		for j := 0; j < batchesPerCycle/2; j++ {
			// send records a failed batch; the cycle goes on.
			_ = runPair(eds.next(), send)
		}
		if hwm, err := d.hwmMB(); err == nil {
			hwms = append(hwms, hwm)
		}
		gracefulStop := cycle%2 == 0
		t0 := time.Now()
		if gracefulStop {
			d.cmd.Process.Signal(syscall.SIGTERM)
			err := d.wait(time.Minute)
			rep.op(err == nil)
			if err != nil {
				return fmt.Errorf("graceful stop: %w", err)
			}
			drains = append(drains, time.Since(t0).Seconds())
		} else {
			d.kill()
		}
		c.CloseIdleConnections()
		t0 = time.Now()
		if d, err = startDaemon(e.tvd, addr, e.logPath, args...); err != nil {
			return err
		}
		err := await(c, d.base, "/readyz", time.Minute)
		rep.op(err == nil)
		if err != nil {
			return err
		}
		ready := time.Since(t0).Seconds()
		if gracefulStop {
			graceful = append(graceful, ready)
		} else {
			crash = append(crash, ready)
		}
		code, _, err := do(c, "GET", d.base+"/critical?k=10", nil)
		rep.check(err == nil && code == http.StatusOK, fmt.Sprintf("/critical after restart: status %d, err %v", code, err))
		err = verifyAt(c, d.base, acked)
		rep.check(err == nil, fmt.Sprint("check after restart: ", err))
	}
	rep.set("op_p50_ms", "ms", 1000*median(crash))
	rep.set("peak_rss_mb", "MB", median(hwms))
	fmt.Printf("restart_ready_p50_s %.4f s (n=%d)\ncrash_ready_p50_s %.4f s (n=%d)\n",
		median(graceful), len(graceful), median(crash), len(crash))
	fmt.Printf("drain_p50_s %.4f s\nrestart_delta_p50_ms %.4f ms (n=%d)\n", median(drains), median(deltas), len(deltas))
	return nil
}

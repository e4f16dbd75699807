package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running tvd process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	exited chan struct{}
	// waitErr is Wait's result, readable once exited is closed.
	waitErr error
}

var (
	liveMu sync.Mutex
	live   = map[*daemon]bool{}
)

// killAll stops every daemon still running and waits for each to exit.
func killAll() {
	liveMu.Lock()
	ds := make([]*daemon, 0, len(live))
	for d := range live {
		ds = append(ds, d)
	}
	liveMu.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

// freeAddr returns a loopback address with a port that was free a moment
// ago. tvd takes its listen address as a flag, so the port is chosen here.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startDaemon execs tvd on addr with the given extra flags. Its log goes
// to logPath.
func startDaemon(bin, addr, logPath string, args ...string) (*daemon, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-quiet"}, args...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start tvd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	liveMu.Lock()
	live[d] = true
	liveMu.Unlock()
	go func() {
		d.waitErr = cmd.Wait()
		logf.Close()
		liveMu.Lock()
		delete(live, d)
		liveMu.Unlock()
		close(d.exited)
	}()
	return d, nil
}

// wait blocks until the process exits or the timeout passes.
func (d *daemon) wait(timeout time.Duration) error {
	select {
	case <-d.exited:
		return d.waitErr
	case <-time.After(timeout):
		return fmt.Errorf("tvd did not exit within %v", timeout)
	}
}

// kill sends SIGKILL and waits for the process to be reaped.
func (d *daemon) kill() {
	d.cmd.Process.Signal(syscall.SIGKILL)
	<-d.exited
}

// hwmMB reads the process's peak resident set (VmHWM) in MB.
func (d *daemon) hwmMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// newClient returns a client that holds at most one connection, so each
// client is one of the benchmark's connections to tvd.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   2 * time.Minute,
	}
}

// do sends one request and reads the whole response body.
func do(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// await polls path every 2 ms until it answers 200 or the timeout passes.
func await(c *http.Client, base, path string, timeout time.Duration) error {
	end := time.Now().Add(timeout)
	for {
		code, _, err := do(c, "GET", base+path, nil)
		if err == nil && code == http.StatusOK {
			return nil
		}
		if time.Now().After(end) {
			return fmt.Errorf("%s not ready after %v (status %d, err %v)", path, timeout, code, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// loadDesign posts the .sim text and returns the session's version.
func loadDesign(c *http.Client, base string, sim []byte) (int64, error) {
	code, body, err := do(c, "POST", base+"/load?name="+designName, sim)
	if err != nil {
		return 0, err
	}
	if code != http.StatusOK {
		return 0, fmt.Errorf("load: status %d: %s", code, body)
	}
	var info struct {
		Last struct {
			Version int64 `json:"version"`
		} `json:"last"`
	}
	if err := json.Unmarshal(body, &info); err != nil {
		return 0, fmt.Errorf("load response: %w", err)
	}
	return info.Last.Version, nil
}

// startLoaded execs a tvd and loads the design into it, returning the
// daemon and the time from exec to the load's 200.
func startLoaded(e *env, c *http.Client, args ...string) (*daemon, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	d, err := startDaemon(e.tvd, addr, e.logPath, args...)
	if err != nil {
		return nil, 0, err
	}
	if err := await(c, d.base, "/healthz", 30*time.Second); err != nil {
		d.kill()
		return nil, 0, err
	}
	if _, err := loadDesign(c, d.base, e.sim); err != nil {
		d.kill()
		return nil, 0, err
	}
	return d, time.Since(t0), nil
}

// setupRounds is how many times a run measures set-up; the median is
// reported.
const setupRounds = 7

// measureSetup reports setup_s: tvd exec to POST /load of the design
// answered 200, as the median of setupRounds fresh daemons. It returns the
// last daemon, still running with the design loaded.
func measureSetup(e *env, c *http.Client, rep *report) (*daemon, error) {
	var samples []float64
	var d *daemon
	for i := 0; i < setupRounds; i++ {
		if d != nil {
			d.kill()
			c.CloseIdleConnections()
		}
		var dt time.Duration
		var err error
		d, dt, err = startLoaded(e, c)
		if err != nil {
			return nil, err
		}
		samples = append(samples, dt.Seconds())
	}
	rep.set("setup_s", "s", median(samples))
	return d, nil
}

// delta posts one batch and returns the new version and added device IDs.
func delta(c *http.Client, base string, batch any) (version int64, added []int64, err error) {
	body, err := json.Marshal(batch)
	if err != nil {
		return 0, nil, err
	}
	code, resp, err := do(c, "POST", base+"/delta", body)
	if err != nil {
		return 0, nil, err
	}
	if code != http.StatusOK {
		return 0, nil, fmt.Errorf("delta: status %d: %s", code, resp)
	}
	var st struct {
		Version  int64   `json:"version"`
		AddedIDs []int64 `json:"added_ids"`
	}
	if err := json.Unmarshal(resp, &st); err != nil {
		return 0, nil, fmt.Errorf("delta response: %w", err)
	}
	return st.Version, st.AddedIDs, nil
}

// verifyAt checks GET /verify reports ok and the design's published
// version is want.
func verifyAt(c *http.Client, base string, want int64) error {
	code, body, err := do(c, "GET", base+"/verify", nil)
	if err != nil {
		return err
	}
	var v struct {
		OK    bool   `json:"ok"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &v); err != nil || code != http.StatusOK || !v.OK {
		return fmt.Errorf("verify: status %d: %s", code, body)
	}
	code, body, err = do(c, "GET", base+"/stats", nil)
	if err != nil {
		return err
	}
	var st struct {
		PerDesign map[string]struct {
			Last struct {
				Version int64 `json:"version"`
			} `json:"last"`
		} `json:"per_design"`
	}
	if err := json.Unmarshal(body, &st); err != nil || code != http.StatusOK {
		return fmt.Errorf("stats: status %d: %s", code, body)
	}
	if got := st.PerDesign[designName].Last.Version; got != want {
		return fmt.Errorf("version %d, want %d (last acknowledged)", got, want)
	}
	return nil
}

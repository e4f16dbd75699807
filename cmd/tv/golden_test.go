package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"nmostv/internal/gen"
	"nmostv/internal/simfile"
	"nmostv/internal/tech"
)

var update = flag.Bool("update", false, "rewrite the golden files from the current output")

// TestMain lets the golden tests run the real command: with TV_GOLDEN_ARGS
// set, the test binary re-executes itself as tv with those arguments.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("TV_GOLDEN_ARGS"); ok {
		os.Args = append([]string{"tv"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runTV runs tv with args in dir and returns its stdout and exit code.
// The child is killed and reaped on cleanup even if the test fails early.
func runTV(t *testing.T, dir string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "TV_GOLDEN_ARGS="+strings.Join(args, " "))
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := false
	t.Cleanup(func() {
		if !done {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	err := cmd.Wait()
	done = true
	code := 0
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), code
}

// checkGolden compares got with testdata/<name>, or rewrites it under
// -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s: line %d differs:\n got %q\nwant %q", name, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines, golden has %d", name, len(gl), len(wl))
	}
}

// TestGoldenTutorial pins tv's full report and exit status on the
// hand-written tutorial netlist.
func TestGoldenTutorial(t *testing.T) {
	out, code := runTV(t, "../../testdata", "tutorial.sim")
	checkGolden(t, "tutorial.golden", out+"exit "+strconv.Itoa(code)+"\n")
}

// TestGoldenMIPSSignoff pins the multi-corner signoff report — critical
// path, slack table, 20 ranked paths, per-corner summaries — on the
// flagship datapath at a period tight enough to fail.
func TestGoldenMIPSSignoff(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and analyzes the 4720-device datapath")
	}
	dir := t.TempDir()
	nl := gen.MIPSDatapath(tech.Default(), gen.DefaultDatapath())
	f, err := os.Create(filepath.Join(dir, "mips32r16.sim"))
	if err != nil {
		t.Fatal(err)
	}
	if err := simfile.Write(f, nl); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	out, code := runTV(t, dir, "-period", "100", "-corners", "slow,typ,fast",
		"-paths", "20", "-slack", "20", "mips32r16.sim")
	checkGolden(t, "mips32r16_100.golden", out+"exit "+strconv.Itoa(code)+"\n")
}

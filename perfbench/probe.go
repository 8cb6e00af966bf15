package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"

	"rocksalt/internal/core"
	"rocksalt/internal/policy"
)

// Table parsing, policy compiles and engine preparation are memoized
// per process, so they are measured in fresh child processes of this
// binary: a probe does its one job and prints the result as one JSON
// line.

// freshSetup names the workloads whose set-up exercises per-process
// memoized layers, so repeating it needs a fresh process each time.
var freshSetup = map[string]bool{"scan": true, "edit": true}

// child runs this binary with a probe and decodes its JSON output.
func child(o options, probe string, out any) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, "-probe", probe, "-workload", o.workload,
		"-seed", strconv.FormatUint(o.seed, 10), "-rocksalt", o.rocksalt, "-out", o.out)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s probe: %w", probe, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), out); err != nil {
		return fmt.Errorf("%s probe output: %w", probe, err)
	}
	return nil
}

// childSetup returns the set-up time of the workload in a fresh
// process.
func childSetup(o options) (float64, error) {
	var res struct {
		SetupS float64 `json:"setup_s"`
	}
	err := child(o, "setup", &res)
	return res.SetupS, err
}

// probeSetup builds the workload's inputs and times one set-up.
func probeSetup(o options, e *env) error {
	w, err := newWorkload(o.workload, e)
	if err != nil {
		return err
	}
	defer w.close()
	start := time.Now()
	if _, err := w.setup(nil); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(map[string]float64{"setup_s": time.Since(start).Seconds()})
}

// layerProbe is the result of the layers probe.
type layerProbe struct {
	Metrics metrics `json:"metrics"`
	Spans   []span  `json:"spans"`
}

// childLayers runs the layers probe and merges its metrics and spans.
func childLayers(o options, tr *tracer, m metrics) error {
	off := time.Since(tr.t0).Nanoseconds()
	var res layerProbe
	if err := child(o, "layers", &res); err != nil {
		return err
	}
	for k, v := range res.Metrics {
		m[k] = v
	}
	tr.adopt(res.Spans, 0, off)
	return nil
}

// probeLayers times, in this fresh process, the first checker, the
// table-bundle load, both runtime policy compiles with their checker
// construction, and engine preparation: the first verify on a fresh
// checker minus the steady-state verify of the same image.
func probeLayers(o options, e *env) error {
	tr := newTracer()
	m := metrics{}
	const req = -3
	timed := func(name string, f func() error) (float64, error) {
		sp := tr.begin(name, 0, req)
		start := time.Now()
		err := f()
		d := ms(time.Since(start))
		tr.end(sp)
		return d, err
	}
	var err error
	if m["core.tables.first_checker_ms"], err = timed("core.tables.first_checker", func() error {
		_, err := core.NewChecker()
		return err
	}); err != nil {
		return err
	}
	tables := core.EmbeddedTableBytes()
	m["core.tables.bundle_bytes"] = float64(len(tables))
	load := func() (*core.Checker, error) { return core.NewCheckerFromTables(bytes.NewReader(tables)) }
	var loads []float64
	for i := 0; i < 15; i++ {
		d, err := timed("core.tables.load", func() error { _, err := load(); return err })
		if err != nil {
			return err
		}
		loads = append(loads, d)
	}
	m.p50("core.tables.load_p50_ms", loads)
	var fromPolicy []float64
	for _, spec := range []policy.Spec{policy.NaCl16(), policy.REINS()} {
		var com *policy.Compiled
		if m["policy.compile_ms."+spec.Name], err = timed("policy.compile", func() error {
			com, err = policy.Compile(spec)
			return err
		}); err != nil {
			return err
		}
		d, err := timed("core.checker_from_policy", func() error { _, err := core.NewCheckerFromPolicy(com); return err })
		if err != nil {
			return err
		}
		fromPolicy = append(fromPolicy, d)
	}
	m.p50("core.checker_from_policy_ms", fromPolicy)

	lib := newLibrary(e.seed, []string{"nacl-32"})
	img := make([]byte, 1<<20)
	lib.tile(img, "nacl-32/medium", newRNG(e.seed, "probe/prep"))
	c, err := load()
	if err != nil {
		return err
	}
	var walls []float64
	for i := 0; i < 10; i++ {
		var rep *core.Report
		d, _ := timed("core.verify", func() error { rep = c.VerifyWith(img, core.VerifyOptions{}); return nil })
		if !rep.Safe {
			return fmt.Errorf("engine probe: compliant image rejected: %v", rep.Err())
		}
		walls = append(walls, d)
	}
	m["core.engine.prep_ms"] = walls[0] - quantile(walls[1:], 0.5)
	return json.NewEncoder(os.Stdout).Encode(layerProbe{Metrics: m, Spans: tr.spans})
}

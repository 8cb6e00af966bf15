package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// oneshot runs one fresh `rocksalt -json image` process per request:
// the paper's ncval-style deployment, where process start, table load
// and engine preparation are paid on every verdict.
type oneshot struct {
	env    *env
	items  []oneshotItem
	order  *rng
	maxRSS int64 // largest child max RSS since the last roundPeakRSSMB, bytes
	corpus string
}

type oneshotItem struct {
	path string
	size int
	want answer
}

const (
	oneshotRungs   = 40
	oneshotMin     = 1 << 10
	oneshotMax     = 4 << 20
	oneshotWarmups = 8
)

// newOneshot writes the ladder of images: oneshotRungs log-spaced sizes
// from 1 KiB to 4 MiB (the sizes are fixed, so percentiles compare
// across seeds; the seed decides content, density, order and which
// tenth of the rungs carries a violation).
func newOneshot(e *env) (*oneshot, error) {
	dir := filepath.Join(e.work, "oneshot")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r := newRNG(e.seed, "oneshot")
	bad := r.perm(oneshotRungs)[:oneshotRungs/10]
	isBad := map[int]bool{}
	for _, j := range bad {
		isBad[j] = true
	}
	l := layouts["nacl-32"]
	h := sha256.New()
	w := &oneshot{env: e, order: newRNG(e.seed, "oneshot/order")}
	for j := 0; j < oneshotRungs; j++ {
		size := ladder(j, oneshotRungs, oneshotMin, oneshotMax, l.bundle)
		img := make([]byte, size)
		g := &gen{r: r, l: l, pad: densities[j%len(densities)].pad}
		g.fill(img, 0)
		want := answer{Safe: true}
		if isBad[j] {
			k := r.intn(spliceKinds)
			want = splice(img, spliceSite(r, size, l, k), l, k)
		}
		path := filepath.Join(dir, fmt.Sprintf("img-%02d.bin", j))
		if err := os.WriteFile(path, img, 0o644); err != nil {
			return nil, err
		}
		h.Write(img)
		w.items = append(w.items, oneshotItem{path: path, size: size, want: want})
	}
	w.corpus = fmt.Sprintf("%x", h.Sum(nil))
	return w, nil
}

// ladder returns rung j of n log-spaced sizes in [lo, hi], rounded
// down to a multiple of align.
func ladder(j, n, lo, hi, align int) int {
	v := float64(lo) * math.Pow(float64(hi)/float64(lo), float64(j)/float64(n-1))
	return max(int(v)/align*align, align)
}

func (w *oneshot) digest() string { return w.corpus }

// setup is the warm-up: the three smallest images, which brings the
// binary into the page cache. Every request is a cold process, so
// nothing else can be prepared ahead.
func (w *oneshot) setup(tr *tracer) (metrics, error) {
	for j := 0; j < oneshotWarmups; j++ {
		s, err := w.request(j, -1, tr)
		if err != nil {
			return nil, err
		}
		if !s.ok {
			return nil, fmt.Errorf("oneshot warm-up on %s: wrong verdict", w.items[j].path)
		}
	}
	return metrics{}, nil
}

func (w *oneshot) round(n int, tr *tracer, out *[]sample) error {
	for _, j := range w.order.perm(len(w.items)) {
		s, err := w.request(j, n*len(w.items)+j, tr)
		if err != nil {
			return err
		}
		*out = append(*out, s)
	}
	return nil
}

// cliVerdict is the part of the rocksalt -json output the benchmark
// reads; stats is decoded generically.
type cliVerdict struct {
	Safe       bool   `json:"safe"`
	Outcome    string `json:"outcome"`
	Violations []struct {
		Offset int    `json:"offset"`
		Kind   string `json:"kind"`
	} `json:"violations"`
	ElapsedNS int64           `json:"elapsed_ns"`
	Stats     json.RawMessage `json:"stats"`
}

func (w *oneshot) request(j, req int, tr *tracer) (sample, error) {
	it := w.items[j]
	root := tr.begin("request", 0, req)
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, w.env.rocksalt, "-json", it.path)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	sp := tr.begin("rocksalt.process", root, req)
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	tr.end(sp)
	s := sample{class: "oneshot", ms: ms(wall), bytes: it.size}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			w.maxRSS = max(w.maxRSS, ru.Maxrss*1024)
		}
	}
	ck := tr.begin("bench.check", root, req)
	defer tr.end(root)
	defer tr.end(ck)
	var got verdict
	var ee *exec.ExitError
	switch {
	case err == nil || errors.As(err, &ee) && ee.ExitCode() == 1:
		var cv cliVerdict
		if jerr := json.Unmarshal(stdout.Bytes(), &cv); jerr != nil {
			got.err = fmt.Errorf("decoding -json output: %v", jerr)
			break
		}
		got.safe, got.outcome = cv.Safe, cv.Outcome
		if len(cv.Violations) > 0 {
			got.offset, got.kind = cv.Violations[0].Offset, cv.Violations[0].Kind
		}
		if (err == nil) != cv.Safe {
			got.err = fmt.Errorf("exit status disagrees with verdict safe=%v", cv.Safe)
		}
		s.cliMS = float64(cv.ElapsedNS) / 1e6
		s.stats = numbers(cv.Stats)
	default:
		got.err = fmt.Errorf("%v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	ok, jerr := w.env.judge(it.path, got, it.want)
	s.ok = ok
	return s, jerr
}

// startFloor times rocksalt invoked without arguments, which prints its
// usage and exits: the process-start cost no verdict can avoid.
func (w *oneshot) startFloor(tr *tracer) ([]float64, error) {
	var out []float64
	for i := 0; i < 15; i++ {
		sp := tr.begin("rocksalt.usage", 0, -2)
		start := time.Now()
		err := exec.Command(w.env.rocksalt).Run()
		out = append(out, ms(time.Since(start)))
		tr.end(sp)
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			return nil, fmt.Errorf("usage exit: want status 2, got %v", err)
		}
	}
	return out, nil
}

func (w *oneshot) layers(ss []sample, tr *tracer, m metrics) error {
	m.p50("rocksalt.process_p50_ms", pick(ss, func(s sample) float64 { return s.ms }, "oneshot"))
	m.p50("rocksalt.verify_p50_ms", pick(ss, func(s sample) float64 { return s.cliMS }, "oneshot"))
	m.p50("rocksalt.outside_verify_p50_ms", pick(ss, func(s sample) float64 { return s.ms - s.cliMS }, "oneshot"))
	floor, err := w.startFloor(tr)
	if err != nil {
		return err
	}
	m.p50("rocksalt.start_floor_ms", floor)
	return nil
}

func (w *oneshot) roundPeakRSSMB() float64 {
	peak := float64(w.maxRSS) / mib
	w.maxRSS = 0
	return peak
}

func (w *oneshot) close() {}

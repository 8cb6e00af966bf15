package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"time"

	"rocksalt/internal/core"
	"rocksalt/internal/policy"
)

// scan keeps one long-lived checker per policy and verifies large fresh
// images with default options, a quarter of them through the streaming
// reader: the throughput side, where stage 1 does nearly all the work.
type scan struct {
	env      *env
	lib      *library
	items    []scanItem
	checkers map[string]*core.Checker
	buf      []byte
	order    *rng
	corpus   string
	stream0  int // seeded phase of the streamed quarter
}

type scanItem struct {
	Size    int    `json:"size"`
	Policy  string `json:"policy"`
	Density string `json:"density"`
	Tiles   uint64 `json:"tiles"` // seed of the page sequence
	Splice  int    `json:"splice"`
	Site    int    `json:"site"`
	Want    answer `json:"want"`
}

const (
	scanRungs = 30
	scanMin   = 1 << 20
	scanMax   = 16 << 20
	// scanWarmup is the size of the per-checker warm-up image.
	scanWarmup = 256 << 10
)

// newScan lays out the rungs: log-spaced sizes from 1 MiB to 16 MiB,
// three in five nacl-32 and one each nacl-16 and reins-16, densities
// cycling low/medium/high. Sizes, policies and densities are fixed per
// rung so percentiles compare across seeds; the seed decides the page
// sequence of every image, the order, which tenth of the rungs carries
// a violation, and where.
func newScan(e *env) *scan {
	r := newRNG(e.seed, "scan")
	w := &scan{env: e, lib: newLibrary(e.seed, policyNames), order: newRNG(e.seed, "scan/order"), stream0: r.intn(4)}
	isBad := map[int]bool{}
	for _, j := range r.perm(scanRungs)[:scanRungs/10] {
		isBad[j] = true
	}
	h := sha256.New()
	w.lib.digest(h, policyNames)
	for j := 0; j < scanRungs; j++ {
		pol := [...]string{"nacl-32", "nacl-32", "nacl-32", "nacl-16", "reins-16"}[j%5]
		l := layouts[pol]
		it := scanItem{
			Size:    ladder(j, scanRungs, scanMin, scanMax, 4096),
			Policy:  pol,
			Density: densities[j%len(densities)].name,
			Tiles:   r.next(),
			Splice:  -1,
			Want:    answer{Safe: true},
		}
		if isBad[j] {
			it.Splice = r.intn(spliceKinds)
			it.Site = spliceSite(r, it.Size, l, it.Splice)
			it.Want = spliceAnswer(it.Site, l, it.Splice)
		}
		w.items = append(w.items, it)
	}
	w.buf = make([]byte, scanMax)
	// The digest covers the pages and each image's recipe; the image
	// bytes are a pure function of the two.
	desc, _ := json.Marshal(w.items)
	h.Write(desc)
	w.corpus = fmt.Sprintf("%x", h.Sum(nil))
	return w
}

// image builds rung j into the shared buffer.
func (w *scan) image(j int) []byte {
	it := w.items[j]
	img := w.buf[:it.Size]
	w.lib.tile(img, it.Policy+"/"+it.Density, &rng{s: it.Tiles})
	if it.Splice >= 0 {
		splice(img, it.Site, layouts[it.Policy], it.Splice)
	}
	return img
}

func (w *scan) digest() string { return w.corpus }

// setup builds the three checkers the way a long-lived verifier would
// (the embedded nacl-32 tables, and nacl-16 and reins-16 compiled at
// run time) and warms each with one in-memory and one streamed verify.
func (w *scan) setup(tr *tracer) (metrics, error) {
	root := tr.begin("setup", 0, -1)
	defer tr.end(root)
	w.checkers = map[string]*core.Checker{}
	sp := tr.begin("core.new_checker", root, -1)
	c, err := core.NewChecker()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	w.checkers["nacl-32"] = c
	for _, spec := range []policy.Spec{policy.NaCl16(), policy.REINS()} {
		sp = tr.begin("policy.compile", root, -1)
		com, err := policy.Compile(spec)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("core.checker_from_policy", root, -1)
		c, err := core.NewCheckerFromPolicy(com)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		w.checkers[spec.Name] = c
	}
	sp = tr.begin("warmup", root, -1)
	defer tr.end(sp)
	for _, p := range policyNames {
		img := w.buf[:scanWarmup]
		w.lib.tile(img, p+"/medium", newRNG(w.env.seed, "scan/warmup"))
		for _, stream := range []bool{false, true} {
			if got := w.verify(p, img, stream); !got.safe {
				return nil, fmt.Errorf("scan warm-up (%s): compliant image rejected: %v", p, got.err)
			}
		}
	}
	return metrics{}, nil
}

// verify runs one verification, in memory or streamed.
func (w *scan) verify(pol string, img []byte, stream bool) verdict {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	c := w.checkers[pol]
	if stream {
		rep, err := c.VerifyReaderContext(ctx, bytes.NewReader(img), core.VerifyOptions{StreamSize: int64(len(img))})
		if err != nil {
			return verdict{err: err}
		}
		return fromReport(rep)
	}
	return fromReport(c.VerifyContext(ctx, img, core.VerifyOptions{}))
}

func (w *scan) round(n int, tr *tracer, out *[]sample) error {
	for _, j := range w.order.perm(len(w.items)) {
		it := &w.items[j]
		img := w.image(j)
		req := n*len(w.items) + j
		stream := (j+n+w.stream0)%4 == 0
		name, class := "core.verify", "verify"
		if stream {
			name, class = "core.stream.verify", "stream"
		}
		root := tr.begin("request", 0, req)
		sp := tr.begin(name, root, req)
		start := time.Now()
		got := w.verify(it.Policy, img, stream)
		wall := time.Since(start)
		tr.end(sp)
		ck := tr.begin("bench.check", root, req)
		ok, err := w.env.judge(fmt.Sprintf("scan rung %d (%s)", j, it.Policy), got, it.Want)
		tr.end(ck)
		tr.end(root)
		if err != nil {
			return err
		}
		*out = append(*out, sample{class: class, ms: ms(wall), bytes: it.Size, stats: got.stats, ok: ok})
	}
	return nil
}

func (w *scan) layers(ss []sample, _ *tracer, m metrics) error {
	both := []string{"verify", "stream"}
	if hasStat(ss, "stage1_wall_ns", "verify") && hasStat(ss, "wall_ns", "verify") {
		s1 := sum(pick(ss, stat("stage1_wall_ns"), "verify")) / 1e9
		m.ratio("core.engine.stage1_mb_s", sum(pick(ss, func(s sample) float64 { return float64(s.bytes) }, "verify"))/mib, s1)
		m.ratio("core.engine.stage1_share", s1, sum(pick(ss, stat("wall_ns"), "verify"))/1e9)
	}
	if hasStat(ss, "shards", both...) {
		shards := sum(pick(ss, stat("shards"), both...))
		for _, r := range [][2]string{
			{"core.engine.restart_ratio", "restarts"},
			{"core.engine.scalar_fallback_ratio", "scalar_fallbacks"},
			{"core.engine.swar_batch_ratio", "swar_batches"},
		} {
			if hasStat(ss, r[1], both...) {
				m.ratio(r[0], sum(pick(ss, stat(r[1]), both...)), shards)
			}
		}
	}
	if hasStat(ss, "stage2_wall_ns", "verify") {
		m.p50("core.reconcile.stage2_p50_ms", pick(ss, func(s sample) float64 { return s.stats["stage2_wall_ns"] / 1e6 }, "verify"))
	}
	if hasStat(ss, "jumps_wall_ns", "verify") {
		m.p50("core.reconcile.jumps_p50_ms", pick(ss, func(s sample) float64 { return s.stats["jumps_wall_ns"] / 1e6 }, "verify"))
	}
	m.p50("core.stream.verify_p50_ms", pick(ss, func(s sample) float64 { return s.ms }, "stream"))
	m.ratio("core.stream.mb_s", sum(pick(ss, func(s sample) float64 { return float64(s.bytes) }, "stream"))/mib,
		sum(pick(ss, func(s sample) float64 { return s.ms }, "stream"))/1e3)
	return nil
}

func (w *scan) roundPeakRSSMB() float64 { return selfPeakRSSMB() }

func (w *scan) close() { w.buf, w.lib, w.checkers = nil, nil, nil }

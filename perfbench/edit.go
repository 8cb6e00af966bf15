package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"time"

	"rocksalt/internal/core"
	"rocksalt/internal/vcache"
)

// edit is a JIT or dynamic-loading session: a 64 MiB nacl-32 image is
// edited in place, request after request, and re-verified through the
// retained delta state, with a verdict cache attached. Every fourth
// request a second consumer verifies the current image through the
// same cache instead (no CacheKey, so it hashes the image).
type edit struct {
	env     *env
	lib     *library
	img     []byte
	script  *script
	steps   []step // the first scriptDigestSteps steps, built ahead
	chk     *core.Checker
	cache   *vcache.Cache
	state   *core.DeltaState
	pending []core.Range
	edited  int
	next    int // index of the next step
	corpus  string
}

const (
	editBase = 64 << 20
	// editGrowth caps appends over a whole session.
	editGrowth = 8 << 20
	editCache  = 24 << 20
	// scriptDigestSteps is how many steps the corpus digest covers; later
	// steps continue the same seeded stream.
	scriptDigestSteps = 256
	editRound         = 8
)

// step is one edit: bytes written at off (off == the current size is an
// append) and the known answer for the image after it.
type step struct {
	off  int
	data []byte
	want answer
}

// script generates the edits as a pure function of the seed. It tracks
// the image size and the violations it planted, never the image bytes,
// so it can run ahead of the session.
type script struct {
	r       *rng
	g       *gen
	size    int
	active  map[int]answer // planted violations by bundle offset
	reverts []revert
	n       int
}

type revert struct{ due, off int }

func newScript(seed uint64) *script {
	r := newRNG(seed, "edit/script")
	return &script{r: r, g: &gen{r: r, l: layouts["nacl-32"], pad: densities[1].pad}, size: editBase, active: map[int]answer{}}
}

// next returns the next edit. About one edit in ten plants a
// single-bundle violation that a revert one to six edits later
// overwrites with fresh compliant code; one in 32 appends up to 64
// KiB; the rest overwrite one bundle to 256 KiB at a random
// bundle-aligned offset.
func (s *script) next() step {
	const b = 32
	i := s.n
	s.n++
	var st step
	var plant *answer
	switch c := s.r.float(); {
	case len(s.reverts) > 0 && s.reverts[0].due <= i:
		st.off = s.reverts[0].off
		s.reverts = s.reverts[1:]
		st.data = s.fresh(st.off, b)
	case c < 0.1:
		// Single-bundle splices only: a later overwrite may cover part of
		// a two-bundle one and leave a stray tail behind.
		st.off = b * s.r.intn(s.size/b)
		st.data = make([]byte, b)
		a := splice(st.data, 0, s.g.l, s.r.intn(spliceSingles))
		a.Offset += st.off
		plant = &a
		s.reverts = append(s.reverts, revert{due: i + 1 + s.r.intn(6), off: st.off})
	case c < 0.1+1.0/32 && s.size < editBase+editGrowth:
		st.off = s.size
		st.data = s.fresh(st.off, b*s.r.logUniform(1, (64<<10)/b))
		s.size += len(st.data)
	default:
		n := b * s.r.logUniform(1, (256<<10)/b)
		st.off = b * s.r.intn(s.size/b-n/b+1)
		st.data = s.fresh(st.off, n)
	}
	for off := range s.active {
		if off >= st.off && off < st.off+len(st.data) {
			delete(s.active, off)
		}
	}
	if plant != nil {
		s.active[st.off] = *plant
	}
	st.want = s.answer()
	return st
}

// fresh returns n bytes of new compliant code for offset off.
func (s *script) fresh(off, n int) []byte {
	data := make([]byte, n)
	s.g.fill(data, off)
	return data
}

// answer is the expected verdict: the lowest planted violation.
func (s *script) answer() answer {
	best := answer{Safe: true}
	for _, a := range s.active {
		if best.Safe || a.Offset < best.Offset {
			best = a
		}
	}
	return best
}

func newEdit(e *env) *edit {
	w := &edit{env: e, lib: newLibrary(e.seed, []string{"nacl-32"}), script: newScript(e.seed)}
	w.img = make([]byte, editBase, editBase+editGrowth+(64<<10))
	w.lib.tile(w.img, "nacl-32/medium", newRNG(e.seed, "edit/base"))
	h := sha256.New()
	w.lib.digest(h, []string{"nacl-32"})
	for i := 0; i < scriptDigestSteps; i++ {
		st := w.script.next()
		w.steps = append(w.steps, st)
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(st.off)))
		h.Write(st.data)
		want, _ := json.Marshal(st.want)
		h.Write(want)
	}
	w.corpus = fmt.Sprintf("%x", h.Sum(nil))
	return w
}

func (w *edit) digest() string { return w.corpus }

// setup opens the session: a checker, the cache, the initial delta
// state (a full parse), a cache-priming verify and one warm-up delta
// round with nothing changed.
func (w *edit) setup(tr *tracer) (metrics, error) {
	root := tr.begin("setup", 0, -1)
	defer tr.end(root)
	sp := tr.begin("core.new_checker", root, -1)
	c, err := core.NewChecker()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	w.chk, w.cache = c, vcache.New(editCache)
	opts := core.VerifyOptions{Cache: w.cache}
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	sp = tr.begin("core.delta.init", root, -1)
	start := time.Now()
	rep, st, err := c.VerifyDeltaContext(ctx, w.img, nil, nil, opts)
	initMS := ms(time.Since(start))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if !rep.Safe {
		return nil, fmt.Errorf("edit: base image rejected: %v", rep.Err())
	}
	w.state = st
	sp = tr.begin("core.cache.prime", root, -1)
	rep = c.VerifyContext(ctx, w.img, opts)
	tr.end(sp)
	if !rep.Safe {
		return nil, fmt.Errorf("edit: base image rejected through the cache: %v", rep.Err())
	}
	sp = tr.begin("warmup", root, -1)
	rep, w.state, err = c.VerifyDeltaContext(ctx, w.img, nil, w.state, opts)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if !rep.Safe {
		return nil, fmt.Errorf("edit: warm-up round rejected the base image: %v", rep.Err())
	}
	return metrics{"core.delta.init_ms": initMS}, nil
}

func (w *edit) step() step {
	i := w.next
	w.next++
	if i < len(w.steps) {
		st := w.steps[i]
		w.steps[i] = step{} // applied once; let the bytes go
		return st
	}
	return w.script.next()
}

func (w *edit) round(n int, tr *tracer, out *[]sample) error {
	for k := 0; k < editRound; k++ {
		req := w.next
		st := w.step()
		cacheTurn := req%4 == 3
		root := tr.begin("request", 0, req)
		start := time.Now()
		sp := tr.begin("bench.edit", root, req)
		if st.off+len(st.data) > len(w.img) {
			w.img = w.img[:st.off+len(st.data)]
		}
		copy(w.img[st.off:], st.data)
		w.pending = append(w.pending, core.Range{Off: st.off, Len: len(st.data)})
		w.edited += len(st.data)
		tr.end(sp)
		ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
		s := sample{bytes: len(w.img)}
		var got verdict
		if cacheTurn {
			s.class = "cache"
			sp = tr.begin("core.cache.verify", root, req)
			got = fromReport(w.chk.VerifyContext(ctx, w.img, core.VerifyOptions{Cache: w.cache}))
			tr.end(sp)
		} else {
			s.class, s.edited = "delta", w.edited
			sp = tr.begin("core.delta.round", root, req)
			rep, st2, err := w.chk.VerifyDeltaContext(ctx, w.img, w.pending, w.state, core.VerifyOptions{Cache: w.cache})
			tr.end(sp)
			if err != nil {
				got.err = err
			} else {
				got = fromReport(rep)
				w.state = st2
				w.pending, w.edited = w.pending[:0], 0
			}
		}
		s.ms = ms(time.Since(start))
		cancel()
		ck := tr.begin("bench.check", root, req)
		ok, err := w.env.judge(fmt.Sprintf("edit request %d", req), got, st.want)
		tr.end(ck)
		tr.end(root)
		if err != nil {
			return err
		}
		s.stats, s.ok = got.stats, ok
		*out = append(*out, s)
	}
	return nil
}

func (w *edit) layers(ss []sample, _ *tracer, m metrics) error {
	walls := func(field string) func(sample) float64 {
		return func(s sample) float64 { return s.stats[field] / 1e6 }
	}
	delta := pick(ss, func(s sample) float64 { return s.ms }, "delta")
	m.p50("core.delta.round_p50_ms", delta)
	if len(delta) > 0 {
		m["core.delta.round_p90_ms"] = quantile(delta, 0.9)
	}
	if hasStat(ss, "stage1_wall_ns", "delta") {
		m.p50("core.delta.stage1_p50_ms", pick(ss, walls("stage1_wall_ns"), "delta"))
	}
	if hasStat(ss, "stage2_wall_ns", "delta") {
		m.p50("core.delta.stage2_p50_ms", pick(ss, walls("stage2_wall_ns"), "delta"))
	}
	rounds := float64(len(delta))
	for _, c := range [][2]string{
		{"core.delta.chunks_reparsed", "delta_chunks_reparsed"},
		{"core.delta.chunks_replayed", "delta_chunks_replayed"},
	} {
		if hasStat(ss, c[1], "delta") {
			m.ratio(c[0], sum(pick(ss, stat(c[1]), "delta")), rounds)
		}
	}
	if hasStat(ss, "delta_bytes_reparsed", "delta") {
		m.ratio("core.delta.reparse_amplification", sum(pick(ss, stat("delta_bytes_reparsed"), "delta")),
			sum(pick(ss, func(s sample) float64 { return float64(s.edited) }, "delta")))
	}
	m.p50("core.cache.verify_p50_ms", pick(ss, func(s sample) float64 { return s.ms }, "cache"))
	if hasStat(ss, "cache_chunk_hits", "cache") && hasStat(ss, "cache_chunk_misses", "cache") {
		hits := sum(pick(ss, stat("cache_chunk_hits"), "cache"))
		m.ratio("core.cache.chunk_hit_ratio", hits, hits+sum(pick(ss, stat("cache_chunk_misses"), "cache")))
	}
	if hasStat(ss, "cache_bytes_saved", "cache") {
		m.ratio("core.cache.bytes_saved_ratio", sum(pick(ss, stat("cache_bytes_saved"), "cache")),
			sum(pick(ss, func(s sample) float64 { return float64(s.bytes) }, "cache")))
	}
	// vcache.Counters is read through JSON for the same reason as Stats.
	data, err := json.Marshal(w.cache.Counters())
	if err != nil {
		return err
	}
	cn := numbers(data)
	for _, f := range [][2]string{{"vcache.hits", "Hits"}, {"vcache.misses", "Misses"}, {"vcache.evictions", "Evictions"}, {"vcache.bytes", "Bytes"}} {
		if v, ok := cn[f[1]]; ok {
			m[f[0]] = v
		}
	}
	return nil
}

func (w *edit) roundPeakRSSMB() float64 { return selfPeakRSSMB() }

func (w *edit) close() { w.img, w.lib, w.steps, w.state, w.cache, w.chk = nil, nil, nil, nil, nil, nil }

package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"rocksalt/internal/core"
)

// requestTimeout bounds one request; a request past it counts as
// failed.
const requestTimeout = 30 * time.Second

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 5

// minSamples keeps p90 ten samples clear of the maximum.
const minSamples = 100

// errUnsound marks a SAFE verdict on an image known to be unsafe.
var errUnsound = errors.New("soundness failure: SAFE verdict on a known-unsafe image")

// workload is one benchmark scenario. Its inputs are built, untimed,
// by its constructor; setup is timed; round issues one round of timed
// requests.
type workload interface {
	digest() string
	setup(tr *tracer) (metrics, error)
	round(n int, tr *tracer, out *[]sample) error
	// layers derives per-layer metrics from a traced phase's samples.
	layers(ss []sample, tr *tracer, m metrics) error
	// roundPeakRSSMB returns the peak RSS, in MB, of the process doing
	// the verifying since the previous call.
	roundPeakRSSMB() float64
	close()
}

var workloadNames = []string{"oneshot", "scan", "edit"}

// env is what every workload shares.
type env struct {
	seed     uint64
	rocksalt string
	work     string
	reported int
}

func newWorkload(name string, e *env) (workload, error) {
	switch name {
	case "oneshot":
		return newOneshot(e)
	case "scan":
		return newScan(e), nil
	case "edit":
		return newEdit(e), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want oneshot, scan or edit)", name)
}

// verdict is what a request returned.
type verdict struct {
	safe    bool
	outcome string
	offset  int
	kind    string
	stats   map[string]float64
	err     error
}

func fromReport(rep *core.Report) verdict {
	v := verdict{safe: rep.Safe, outcome: rep.Outcome.String(), stats: statsOf(rep.Stats)}
	if f := rep.First(); f != nil {
		v.offset, v.kind = f.Offset, f.Kind.String()
	}
	if rep.Interrupted() {
		v.err = rep.Err()
	}
	return v
}

// judge compares a verdict with the known answer. A mismatch is a
// failed request; a SAFE verdict on an unsafe image is errUnsound.
func (e *env) judge(what string, got verdict, want answer) (bool, error) {
	outcome := "rejected"
	if want.Safe {
		outcome = "safe"
	}
	var why string
	switch {
	case got.err != nil:
		why = got.err.Error()
	case got.safe && !want.Safe:
		fmt.Fprintf(os.Stderr, "perfbench: %s: SAFE, but a violation (%s) was planted at %#x\n", what, want.Kind, want.Offset)
		return false, errUnsound
	case got.safe != want.Safe || got.outcome != outcome:
		why = fmt.Sprintf("verdict %s, want %s", got.outcome, outcome)
	case !want.Safe && (got.offset != want.Offset || got.kind != want.Kind):
		why = fmt.Sprintf("first violation %s at %#x, want %s at %#x", got.kind, got.offset, want.Kind, want.Offset)
	default:
		return true, nil
	}
	if e.reported < 10 {
		e.reported++
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", what, why)
	}
	return false, nil
}

// phase is the outcome of a run of rounds.
type phase struct {
	samples []sample
	// ends holds len(samples) after each round.
	ends []int
	// peaks holds each round's peak RSS in MB.
	peaks  []float64
	rounds int
}

// roundSamples returns each round's samples.
func (p phase) roundSamples() [][]sample {
	out := make([][]sample, len(p.ends))
	start := 0
	for i, end := range p.ends {
		out[i], start = p.samples[start:end], end
	}
	return out
}

// blocks groups whole rounds into blocks of at least minSamples
// requests each (a short tail joins the last block), so a block's p90
// still has ten samples beyond it.
func (p phase) blocks() [][]sample {
	var out [][]sample
	start, last := 0, 0
	for _, end := range p.ends {
		if end-start >= minSamples {
			out = append(out, p.samples[start:end])
			last, start = start, end
		}
	}
	if len(out) == 0 {
		return [][]sample{p.samples}
	}
	out[len(out)-1] = p.samples[last:]
	return out
}

// medianOver is the median of f over groups of samples. Taken over
// rounds or blocks, a host slowdown that covers less than half of a
// run leaves it unmoved, which a figure over the pooled samples would
// not.
func medianOver(groups [][]sample, f func([]sample) float64) float64 {
	var vs []float64
	for _, g := range groups {
		vs = append(vs, f(g))
	}
	return quantile(vs, 0.5)
}

// loop runs rounds, numbered from first, until at least seconds have
// passed and minSamples requests were made, always finishing the round
// it is in, so every rung of a ladder is sampled equally often.
func loop(w workload, seconds float64, tr *tracer, first int) (phase, error) {
	p := phase{rounds: first}
	w.roundPeakRSSMB()
	start := time.Now()
	for len(p.samples) == 0 || time.Since(start).Seconds() < seconds || len(p.samples) < minSamples {
		if err := w.round(p.rounds, tr, &p.samples); err != nil {
			return p, err
		}
		p.ends = append(p.ends, len(p.samples))
		p.peaks = append(p.peaks, w.roundPeakRSSMB())
		p.rounds++
	}
	return p, nil
}

type options struct {
	workload     string
	seed         uint64
	seconds      float64
	trace        int
	rocksalt     string
	out          string
	commit       string
	sourceDigest string
	probe        string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: oneshot, scan or edit")
	flag.Uint64Var(&o.seed, "seed", 1, "corpus seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long to measure")
	flag.IntVar(&o.trace, "trace", 0, "1 for the traced per-layer run")
	flag.StringVar(&o.rocksalt, "rocksalt", "", "the rocksalt binary under test")
	flag.StringVar(&o.out, "out", "", "directory for results, spans and scratch inputs")
	flag.StringVar(&o.commit, "commit", "unknown", "commit under test, for the provenance stamp")
	flag.StringVar(&o.sourceDigest, "source-digest", "unknown", "digest of the sources under test")
	flag.StringVar(&o.probe, "probe", "", "internal: run one fresh-process probe (setup or layers) and print it as JSON")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.rocksalt == "" || o.out == "" || (o.trace != 0 && o.trace != 1) || o.seconds <= 0 {
		return errors.New("usage: perfbench -workload w -seed n -seconds s -trace 0|1 -rocksalt bin -out dir")
	}
	if !slices.Contains(workloadNames, o.workload) {
		return fmt.Errorf("unknown workload %q (want oneshot, scan or edit)", o.workload)
	}
	work, err := os.MkdirTemp(o.out, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	e := &env{seed: o.seed, rocksalt: o.rocksalt, work: work}
	switch o.probe {
	case "setup":
		return probeSetup(o, e)
	case "layers":
		return probeLayers(o, e)
	case "":
	default:
		return fmt.Errorf("unknown probe %q", o.probe)
	}
	if o.trace == 1 {
		return traced(o, e)
	}
	return untraced(o, e)
}

// untraced is the end-to-end run.
func untraced(o options, e *env) error {
	var setups []float64
	if freshSetup[o.workload] {
		// Fresh-process set-ups run before this process builds its own
		// inputs, so the two never hold their memory at once.
		for i := 0; i < setupRepeats-1; i++ {
			s, err := childSetup(o)
			if err != nil {
				return err
			}
			setups = append(setups, s)
		}
	}
	w, err := newWorkload(o.workload, e)
	if err != nil {
		return err
	}
	defer w.close()
	digests := map[string]string{o.workload: w.digest()}
	for len(setups) < setupRepeats {
		start := time.Now()
		if _, err := w.setup(nil); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	p, err := loop(w, o.seconds, nil, 0)
	if err != nil {
		return err
	}
	ss := p.samples
	m := metrics{
		"verdict_p50_ms":  medianOver(p.blocks(), func(b []sample) float64 { return quantile(latencies(b), 0.5) }),
		"verdict_p90_ms":  medianOver(p.blocks(), func(b []sample) float64 { return quantile(latencies(b), 0.9) }),
		"throughput_mb_s": medianOver(p.roundSamples(), func(r []sample) float64 { return imageMiB(r) / (sum(latencies(r)) / 1e3) }),
		"setup_s":         quantile(setups, 0.5),
		"peak_rss_mb":     quantile(p.peaks, 0.5),
	}
	counts := map[string]int{"verdict": len(ss), "blocks": len(p.blocks()), "setup": len(setups), "rounds": p.rounds}
	for _, s := range ss {
		counts["class."+s.class]++
	}
	return report(o, digests, counts, ss, m, endToEnd)
}

// traced is the per-layer run: the chosen workload untraced and then
// traced (their difference is the tracing overhead), the other two
// workloads traced for shorter phases so every layer is measured, and
// a fresh-process probe of table load, policy compile and engine
// preparation.
func traced(o options, e *env) error {
	tr := newTracer()
	m := metrics{}
	counts := map[string]int{}
	digests := map[string]string{}
	var all []sample
	if err := childLayers(o, tr, m); err != nil {
		return err
	}
	order := []string{o.workload}
	for _, n := range workloadNames {
		if n != o.workload {
			order = append(order, n)
		}
	}
	for i, name := range order {
		w, err := newWorkload(name, e)
		if err != nil {
			return err
		}
		digests[name] = w.digest()
		extra, err := w.setup(tr)
		if err != nil {
			return fmt.Errorf("%s set-up: %w", name, err)
		}
		for k, v := range extra {
			m[k] = v
		}
		share := 0.125
		var base phase
		if i == 0 {
			share = 0.5
			if base, err = loop(w, o.seconds/4, nil, 0); err != nil {
				return err
			}
			all = append(all, base.samples...)
			counts["untraced."+name] = len(base.samples)
		}
		p, err := loop(w, o.seconds*share, tr, base.rounds)
		if err != nil {
			return err
		}
		ss := p.samples
		if i == 0 {
			m["trace.overhead_p50_ms"] = quantile(latencies(ss), 0.5) - quantile(latencies(base.samples), 0.5)
		}
		all = append(all, ss...)
		counts["traced."+name] = len(ss)
		if err := w.layers(ss, tr, m); err != nil {
			return err
		}
		w.close()
	}
	self := tr.selfTimes()
	for _, n := range selfSpans {
		m.p50("trace.self_p50_ms."+n, self[n])
		counts["span."+n] = len(self[n])
	}
	if err := tr.write(filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))); err != nil {
		return err
	}
	return report(o, digests, counts, all, m, perLayer)
}

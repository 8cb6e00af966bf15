package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// metricSpec names a metric and its unit, in print order.
type metricSpec struct{ name, unit string }

// endToEnd is what the untraced run reports; BENCHMARK.json lists the
// same names.
var endToEnd = []metricSpec{
	{"verdict_p50_ms", "ms"},
	{"verdict_p90_ms", "ms"},
	{"throughput_mb_s", "MB/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// selfSpans are the request-path spans whose self time the traced run
// reports.
var selfSpans = []string{
	"request", "rocksalt.process", "core.verify", "core.stream.verify",
	"core.delta.round", "core.cache.verify", "bench.edit", "bench.check",
}

// perLayer is what the traced run reports; BENCHMARK.json lists the
// same names. A metric whose source the program under test no longer
// has (a Stats field, say) is left out rather than invented.
var perLayer = func() []metricSpec {
	out := []metricSpec{
		{"rocksalt.process_p50_ms", "ms"},
		{"rocksalt.verify_p50_ms", "ms"},
		{"rocksalt.outside_verify_p50_ms", "ms"},
		{"rocksalt.start_floor_ms", "ms"},
		{"core.tables.first_checker_ms", "ms"},
		{"core.tables.load_p50_ms", "ms"},
		{"core.tables.bundle_bytes", "bytes"},
		{"policy.compile_ms.nacl-16", "ms"},
		{"policy.compile_ms.reins-16", "ms"},
		{"core.checker_from_policy_ms", "ms"},
		{"core.engine.prep_ms", "ms"},
		{"core.engine.stage1_mb_s", "MB/s"},
		{"core.engine.stage1_share", "ratio"},
		{"core.engine.restart_ratio", "ratio"},
		{"core.engine.scalar_fallback_ratio", "ratio"},
		{"core.engine.swar_batch_ratio", "ratio"},
		{"core.reconcile.stage2_p50_ms", "ms"},
		{"core.reconcile.jumps_p50_ms", "ms"},
		{"core.stream.verify_p50_ms", "ms"},
		{"core.stream.mb_s", "MB/s"},
		{"core.delta.round_p50_ms", "ms"},
		{"core.delta.round_p90_ms", "ms"},
		{"core.delta.stage1_p50_ms", "ms"},
		{"core.delta.stage2_p50_ms", "ms"},
		{"core.delta.chunks_reparsed", "count/round"},
		{"core.delta.chunks_replayed", "count/round"},
		{"core.delta.reparse_amplification", "ratio"},
		{"core.delta.init_ms", "ms"},
		{"core.cache.verify_p50_ms", "ms"},
		{"core.cache.chunk_hit_ratio", "ratio"},
		{"core.cache.bytes_saved_ratio", "ratio"},
		{"vcache.hits", "count"},
		{"vcache.misses", "count"},
		{"vcache.evictions", "count"},
		{"vcache.bytes", "bytes"},
		{"trace.overhead_p50_ms", "ms"},
	}
	for _, n := range selfSpans {
		out = append(out, metricSpec{"trace.self_p50_ms." + n, "ms"})
	}
	return out
}()

func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.ms
	}
	return out
}

func imageMiB(ss []sample) float64 {
	t := 0.0
	for _, s := range ss {
		t += float64(s.bytes)
	}
	return t / mib
}

// provenance names the code, inputs and host behind every number.
type provenance struct {
	Workload     string            `json:"workload"`
	Trace        int               `json:"trace"`
	Seed         uint64            `json:"seed"`
	Seconds      float64           `json:"seconds"`
	Commit       string            `json:"commit"`
	SourceDigest string            `json:"source_digest"`
	CorpusDigest map[string]string `json:"corpus_digest"`
	NProc        int               `json:"nproc"`
	GOMAXPROCS   int               `json:"gomaxprocs"`
	CPU          string            `json:"cpu"`
	GoVersion    string            `json:"go_version"`
	// Samples is the count behind each percentile and median.
	Samples map[string]int `json:"samples"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the provenance and every metric in specs, writes the
// result file, and prints the result line last.
func report(o options, digests map[string]string, counts map[string]int, ss []sample, m metrics, specs []metricSpec) error {
	p := provenance{
		Workload: o.workload, Trace: o.trace, Seed: o.seed, Seconds: o.seconds,
		Commit: o.commit, SourceDigest: o.sourceDigest, CorpusDigest: digests,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel(),
		GoVersion: runtime.Version(), Samples: counts,
	}
	res := result{Attempted: len(ss), Metrics: map[string]metricValue{}}
	for _, s := range ss {
		if !s.ok {
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0
	failedShare := float64(res.Failed) / float64(max(res.Attempted, 1))
	for _, spec := range specs {
		if v, ok := m[spec.name]; ok {
			res.Metrics[spec.name] = metricValue{v, spec.unit}
		}
	}
	prov, err := json.Marshal(p)
	if err != nil {
		return err
	}
	fmt.Printf("# provenance %s\n", prov)
	for name, d := range digests {
		fmt.Printf("# corpus %s sha256 %s\n", name, d)
	}
	for _, spec := range specs {
		if v, ok := res.Metrics[spec.name]; ok {
			fmt.Printf("%-40s %14.4f %s\n", spec.name, v.Value, v.Unit)
		}
	}
	fmt.Printf("%-40s %14.4f share (%d of %d requests)\n", "failed_share", failedShare, res.Failed, res.Attempted)
	file := struct {
		Provenance  provenance             `json:"provenance"`
		Metrics     map[string]metricValue `json:"metrics"`
		FailedShare float64                `json:"failed_share"`
		Attempted   int                    `json:"attempted"`
		Failed      int                    `json:"failed"`
	}{p, res.Metrics, failedShare, res.Attempted, res.Failed}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(o.out, fmt.Sprintf("result-%s-seed%d-trace%d.json", o.workload, o.seed, o.trace))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// cpuModel returns the first CPU model name the kernel reports.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// selfPeakRSSMB returns this process's peak RSS in MB since the
// previous call, and resets the kernel's high-water mark for the next.
// Where the mark cannot be reset it stays the peak since process start.
func selfPeakRSSMB() float64 {
	peak := 0.0
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
				peak = kb * 1024 / mib
			}
		}
	}
	if peak == 0 {
		var ru syscall.Rusage
		if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
			peak = float64(ru.Maxrss) * 1024 / mib
		}
	}
	// Writing 5 to clear_refs resets the peak RSS (Linux 4.0 and later).
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	return peak
}

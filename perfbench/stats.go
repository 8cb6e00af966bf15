package main

import (
	"encoding/json"
	"sort"
	"time"

	"rocksalt/internal/core"
)

// sample is one timed request.
type sample struct {
	class string  // oneshot, verify, stream, delta or cache
	ms    float64 // time to verdict
	bytes int     // image bytes the verdict covers
	// edited is the number of bytes changed since the previous delta
	// round (delta requests only).
	edited int
	// cliMS is the CLI's own verify time from its -json elapsed_ns
	// (oneshot requests only).
	cliMS float64
	// stats is Report.Stats read through its JSON encoding, so a field
	// a later version drops reads as absent instead of failing the
	// build.
	stats map[string]float64
	ok    bool
}

// statsOf decodes core.Stats through its JSON form.
func statsOf(s core.Stats) map[string]float64 {
	data, err := json.Marshal(s)
	if err != nil {
		return nil
	}
	return numbers(data)
}

// numbers returns the top-level numeric fields of a JSON object.
func numbers(data []byte) map[string]float64 {
	var m map[string]any
	if json.Unmarshal(data, &m) != nil {
		return nil
	}
	out := map[string]float64{}
	for k, v := range m {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics; NaN-free for len(xs) >= 1.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// pick returns f applied to the samples of the given classes.
func pick(ss []sample, f func(sample) float64, classes ...string) []float64 {
	var out []float64
	for _, s := range ss {
		for _, c := range classes {
			if s.class == c {
				out = append(out, f(s))
			}
		}
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// stat reads a field of a sample's stats (0 when absent; callers check
// hasStat first).
func stat(name string) func(sample) float64 {
	return func(s sample) float64 { return s.stats[name] }
}

// hasStat reports whether every sample of the classes carries name.
func hasStat(ss []sample, name string, classes ...string) bool {
	n := 0
	for _, s := range ss {
		for _, c := range classes {
			if s.class == c {
				if _, ok := s.stats[name]; !ok {
					return false
				}
				n++
			}
		}
	}
	return n > 0
}

// metrics collects named values for the result line.
type metrics map[string]float64

// p50 sets name to the median of xs, when there are any.
func (m metrics) p50(name string, xs []float64) {
	if len(xs) > 0 {
		m[name] = quantile(xs, 0.5)
	}
}

// ratio sets name to num/den when den is positive.
func (m metrics) ratio(name string, num, den float64) {
	if den > 0 {
		m[name] = num / den
	}
}

const mib = 1 << 20

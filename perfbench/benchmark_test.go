package main

import (
	"encoding/json"
	"os"
	"testing"

	"rocksalt/internal/core"
)

// TestBenchmarkJSONMatches keeps the metric names and units the harness
// prints in step with the ones BENCHMARK.json declares.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the harness %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if got[i].Name != w.name || got[i].Unit != w.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the harness %s (%s)", kind, i, got[i].Name, got[i].Unit, w.name, w.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json has %s, the harness %s", i, w.Name, workloadNames[i])
		}
	}
}

// TestEditScriptAnswers replays the start of a fixed-seed edit script
// through delta rounds and holds core's verdict after every edit to the
// script's answer; the first few rejected states are also verified from
// scratch.
func TestEditScriptAnswers(t *testing.T) {
	e := &env{seed: 3}
	w := newEdit(e)
	c, _ := checkerFor(t, "nacl-32")
	img := w.img
	_, state, err := c.VerifyDelta(img, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	full, rejected := 0, 0
	for i, st := range w.steps {
		if st.off+len(st.data) > len(img) {
			img = img[:st.off+len(st.data)]
		}
		copy(img[st.off:], st.data)
		rep, next, err := c.VerifyDelta(img, []core.Range{{Off: st.off, Len: len(st.data)}}, state)
		if err != nil {
			t.Fatal(err)
		}
		state = next
		if ok, err := e.judge("delta", fromReport(rep), st.want); !ok || err != nil {
			t.Fatalf("step %d: delta verdict does not match the script's answer %+v", i, st.want)
		}
		if !st.want.Safe {
			rejected++
			if full < 4 {
				full++
				if ok, err := e.judge("full", fromReport(c.VerifyWith(img, core.VerifyOptions{})), st.want); !ok || err != nil {
					t.Fatalf("step %d: verdict does not match the script's answer %+v", i, st.want)
				}
			}
		}
	}
	if rejected == 0 {
		t.Fatal("the script planted no violation")
	}
}

package main

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestWorkloadsToySize runs every workload traced at toy size and checks
// that every correctness check passes and every metric is measured, with its
// unit, in both the end-to-end and the per-layer result lines.
func TestWorkloadsToySize(t *testing.T) {
	for name, run := range workloads {
		t.Run(name, func(t *testing.T) {
			res, err := run(options{seed: 7, seconds: 0.4, trace: true, ringPackets: 1 << 15, setups: 1})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			for _, c := range res.checks {
				if !c.ok {
					t.Errorf("check %s failed: %s", c.name, c.detail)
				}
			}
			if !res.correct() {
				t.Errorf("result not correct")
			}
			if res.attempted == 0 {
				t.Errorf("no operations attempted")
			}
			if len(res.recs) == 0 {
				t.Errorf("traced run kept no spans")
			}
			for _, traced := range []bool{false, true} {
				want := endToEnd
				if traced {
					want = perLayer
				}
				line, err := render(res, traced)
				if err != nil {
					t.Fatalf("render: %v", err)
				}
				var out struct {
					Correct   bool  `json:"correct"`
					Attempted int64 `json:"attempted"`
					Failed    int64 `json:"failed"`
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				dec := json.NewDecoder(strings.NewReader(line))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&out); err != nil {
					t.Fatalf("result line %q: %v", line, err)
				}
				if len(out.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(out.Metrics), len(want))
				}
				for _, s := range want {
					m, ok := out.Metrics[s.name]
					switch {
					case !ok || m.Value == nil:
						t.Errorf("traced=%v: metric %s missing", traced, s.name)
					case m.Unit != s.unit:
						t.Errorf("metric %s unit %q, want %q", s.name, m.Unit, s.unit)
					case math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0):
						t.Errorf("metric %s = %v", s.name, *m.Value)
					case !traced && *m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", s.name, *m.Value)
					}
				}
			}
		})
	}
}

// TestSummarize checks self time and uncovered time on a hand-built trace.
func TestSummarize(t *testing.T) {
	r := &recorder{spans: []span{
		{start: 0, end: 100, parent: -1, name: rootRound},
		{start: 10, end: 40, parent: 0, name: layerUpdateBatch},
		{start: 50, end: 70, parent: 0, name: layerUpdateBatch},
		{start: 0, end: 30, parent: -1, name: layerProcessBatch},
	}}
	ts := summarize([]*recorder{r})
	if ts.rootNs != 100 || ts.uncoveredNs != 50 {
		t.Errorf("root %v uncovered %v, want 100 and 50", ts.rootNs, ts.uncoveredNs)
	}
	if got := ts.selfNs[layerUpdateBatch]; got != 50 {
		t.Errorf("UpdateBatch self time %v, want 50", got)
	}
	if got := ts.selfNs[layerProcessBatch]; got != 0 {
		t.Errorf("a span outside any root counted %v", got)
	}
}

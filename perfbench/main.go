// Command perfbench is the repository's benchmark. It runs one workload
// against the library's public surfaces (rhhh, internal/core,
// internal/vswitch, internal/telemetry) from one process, checks the
// outputs against the exact reference, and prints every metric with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// records a span around every call into a layer, writes the spans to --out,
// and reports the per-layer metrics instead. See README.md for the
// workloads and what each metric measures.
//
// Build and run from the repository root with perfbench/run.sh.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

type spec struct{ name, unit string }

// endToEnd is what a user of the system sees; every workload reports each
// one (README.md maps them onto each workload's own figures).
var endToEnd = []spec{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"mpps", "Mpps"},
	{"hhh_recall", "ratio"},
	{"hhh_precision", "ratio"},
	{"visible_p50_ms", "ms"},
	{"read_p50_us", "us"},
}

// perLayer is reported by traced runs. A layer a workload does not call
// reads 0 there.
var perLayer = func() []spec {
	s := []spec{
		{"rhhh.batch_ns_per_pkt", "ns/pkt"},
		{"rhhh.publish_batch_us_p50", "us"},
		{"rhhh.publish_batch_us_p99", "us"},
		{"rhhh.publish_per_mpkt", "1/Mpkt"},
		{"rhhh.scaling_eff", "ratio"},
		{"rhhh.query_fresh_share", "ratio"},
		{"rhhh.hhh_per_query", "count"},
		{"rhhh.snapshot_us_p50", "us"},
		{"rhhh.marshal_us_p50", "us"},
		{"rhhh.watch_deltas_per_s", "1/s"},
		{"telemetry.gather_us_p50", "us"},
		{"core.samples_per_pkt", "ratio"},
		{"spacesaving.evictions_per_sample", "ratio"},
		{"spacesaving.occupancy", "ratio"},
		{"chk.decays_per_sample", "ratio"},
		{"chk.takeovers_per_sample", "ratio"},
		{"vswitch.bare_ns_per_pkt", "ns/pkt"},
		{"vswitch.hook_ns_per_pkt", "ns/pkt"},
		{"vswitch.emc_hit_ratio", "ratio"},
		{"vswitch.report_build_us_p50", "us"},
		{"vswitch.report_build_us_p99", "us"},
		{"vswitch.apply_us_p50", "us"},
		{"vswitch.apply_us_p99", "us"},
		{"vswitch.collector_query_us_p50", "us"},
		{"vswitch.collector_query_us_p99", "us"},
		{"vswitch.delta_share", "ratio"},
		{"vswitch.bytes_per_report", "B"},
		{"vswitch.delta_nodes_per_report", "count"},
		{"go.allocs_per_pkt", "allocs/pkt"},
		{"go.gc_per_s", "1/s"},
		{"trace_overhead_pct", "%"},
		{"unaccounted_pct", "%"},
	}
	for l := layerUpdateBatch; l < numLayers; l++ {
		s = append(s, spec{selfMetric(l), "%"})
	}
	return s
}()

var workloads = map[string]func(options) (*result, error){
	"ingest":    runIngest,
	"query-mix": runQueryMix,
	"sync":      runSync,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: ingest, query-mix or sync")
		seed     = flag.Uint64("seed", 1, "seed the inputs are generated from")
		seconds  = flag.Float64("seconds", 10, "length of the measured phase, in seconds")
		traced   = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
		out      = flag.String("out", ".bench_build/perfbench", "directory for span files")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload ingest|query-mix|sync --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: *seconds, trace: *traced == 1, out: *out,
		ringPackets: 1 << 18, setups: 3}
	fmt.Println(machineStamp())
	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if o.trace && o.out != "" {
		path := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.tsv", *workload, *seed))
		if err := writeSpans(path, res.recs); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("spans: %s\n", path)
	}
	line, err := render(res, o.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

// render prints the checks and the workload's own figures, then returns the
// result line.
func render(res *result, traced bool) (string, error) {
	for _, c := range res.checks {
		verdict := "pass"
		if !c.ok {
			verdict = "FAIL"
		}
		fmt.Printf("check %-22s %s  %s\n", c.name, verdict, c.detail)
	}
	fmt.Printf("failed %d of %d operations (%.4f%%)\n", res.failed, res.attempted,
		100*ratio(float64(res.failed), float64(res.attempted)))
	for _, m := range res.report {
		fmt.Printf("%-34s %14.4f %s\n", m.name, m.value, m.unit)
	}
	want, got := endToEnd, res.e2e
	if traced {
		want, got = perLayer, res.layers
	}
	vals := make(map[string]float64, len(got))
	for _, m := range got {
		vals[m.name] = m.value
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]jsonMetric, len(want))
	for _, s := range want {
		v, ok := vals[s.name]
		if !ok {
			return "", fmt.Errorf("%s did not measure %s", res.workload, s.name)
		}
		ms[s.name] = jsonMetric{v, s.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted uint64                `json:"attempted"`
		Failed    uint64                `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{res.correct(), max(res.attempted, 1), res.failed, ms})
	return string(b), err
}

// layerMetrics turns a layer set into metrics in catalogue order, reading 0
// for layers the workload does not call.
func layerMetrics(ls layerSet) []metric {
	out := make([]metric, 0, len(perLayer))
	for _, s := range perLayer {
		out = append(out, metric{s.name, ls[s.name], s.unit})
	}
	return out
}

// machineStamp describes the machine and the source tree the run measured.
func machineStamp() string {
	model, mhz := "unknown", "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			k, v, ok := strings.Cut(line, ":")
			if !ok {
				continue
			}
			switch strings.TrimSpace(k) {
			case "model name":
				if model == "unknown" {
					model = strings.TrimSpace(v)
				}
			case "cpu MHz":
				if mhz == "unknown" {
					mhz = strings.TrimSpace(v)
				}
			}
		}
	}
	b, _ := json.Marshal(map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  model,
		"cpu_mhz":    mhz,
		"go":         runtime.Version(),
		"commit":     sourceDigest("."),
	})
	return "machine " + string(b)
}

// sourceDigest identifies the source tree under root: a SHA-256 over the
// path and contents of every Go source and go.mod file, skipping hidden
// directories (the checkout the benchmark runs in is not a git repository).
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}

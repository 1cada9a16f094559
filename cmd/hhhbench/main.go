// Command hhhbench regenerates the paper's evaluation figures. Each -fig
// value prints the rows/series of the corresponding figure; the README's
// "Reproducing the paper" section lists every value. It is the one command
// that runs the deterministic baselines (MST and the ancestry tries).
//
// Usage:
//
//	hhhbench -fig 5                    # update-speed comparison (Figure 5)
//	hhhbench -fig all -quick           # everything, scaled down
//	hhhbench -fig 2 -epsilon 0.001 -packets 100000000   # paper-scale run
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"rhhh/internal/experiments"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "figure to regenerate: 2|3|4|5|6|7|8|r-updates|backends|worstcase|recall|space|weighted|converge|scale|all")
		quick    = flag.Bool("quick", false, "scale stream lengths down for a fast smoke run")
		epsilon  = flag.Float64("epsilon", 0, "override ε (default: per-figure)")
		delta    = flag.Float64("delta", 0, "override δ")
		theta    = flag.Float64("theta", 0, "override θ")
		packets  = flag.Int("packets", 0, "override packets per speed measurement")
		maxN     = flag.Uint64("n", 0, "override the largest sweep checkpoint")
		runs     = flag.Int("runs", 1, "repetitions per speed point (5 gives paper-style 95% CIs)")
		duration = flag.Duration("duration", 0, "time per vswitch configuration (default 1s)")
		udp      = flag.Bool("udp", false, "run Figure 8 over real loopback UDP")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		seed     = flag.Uint64("seed", 0, "override the experiment seed")
		workers  = flag.String("workers", "", "scale sweep: comma-separated producer counts (default 1,2,4,NumCPU)")
		busy     = flag.Bool("busy", false, "scale sweep: run a concurrent HeavyHitters query load during each measurement")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hhhbench: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "hhhbench: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	sweep := experiments.SweepConfig{Epsilon: *epsilon, Delta: *delta, Theta: *theta, Seed: *seed}
	if *quick {
		sweep.Checkpoints = []uint64{25_000, 100_000, 400_000}
		sweep.Profiles = []string{"sanjose14"}
		if sweep.Epsilon == 0 {
			sweep.Epsilon = 0.02
		}
	}
	if *maxN != 0 {
		var cps []uint64
		for n := *maxN; n >= 50_000; n /= 4 {
			cps = append([]uint64{n}, cps...)
		}
		sweep.Checkpoints = cps
	}

	speed := experiments.SpeedConfig{Packets: *packets, Runs: *runs, Delta: *delta, Seed: *seed}
	if *quick {
		if speed.Packets == 0 {
			speed.Packets = 100_000
		}
		speed.Profiles = []string{"sanjose14"}
		speed.Epsilons = []float64{0.001, 0.01, 0.1}
	}

	ovs := experiments.OVSConfig{
		Epsilon: *epsilon, Delta: *delta, Duration: *duration, UseUDP: *udp, Seed: *seed,
	}
	if *quick {
		if ovs.Duration == 0 {
			ovs.Duration = 200 * time.Millisecond
		}
		ovs.VMultipliers = []int{1, 2, 5, 10}
	}

	scale := experiments.ScalingConfig{
		Packets: *packets, Epsilon: *epsilon, Delta: *delta, Theta: *theta,
		Busy: *busy, Seed: *seed,
	}
	if *workers != "" {
		for _, s := range strings.Split(*workers, ",") {
			w, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || w < 1 {
				fmt.Fprintf(os.Stderr, "hhhbench: -workers: bad count %q\n", s)
				os.Exit(2)
			}
			scale.Workers = append(scale.Workers, w)
		}
	}
	if *quick && scale.Packets == 0 {
		scale.Packets = 100_000
	}

	run := func(name string, f func() []experiments.Table) {
		start := time.Now()
		tables := f()
		for _, t := range tables {
			if *csv {
				fmt.Printf("# %s\n", t.Title)
				t.CSV(os.Stdout)
			} else {
				t.Print(os.Stdout)
			}
		}
		fmt.Printf("\n[%s finished in %v]\n", name, time.Since(start).Round(time.Millisecond))
	}

	figures := map[string]func(){
		"2":         func() { run("figure 2", func() []experiments.Table { return experiments.Fig2Accuracy(sweep) }) },
		"3":         func() { run("figure 3", func() []experiments.Table { return experiments.Fig3Coverage(sweep) }) },
		"4":         func() { run("figure 4", func() []experiments.Table { return experiments.Fig4FalsePositives(sweep) }) },
		"5":         func() { run("figure 5", func() []experiments.Table { return experiments.Fig5Speed(speed) }) },
		"6":         func() { run("figure 6", func() []experiments.Table { return experiments.Fig6Dataplane(ovs) }) },
		"7":         func() { run("figure 7", func() []experiments.Table { return experiments.Fig7DataplaneV(ovs) }) },
		"8":         func() { run("figure 8", func() []experiments.Table { return experiments.Fig8DistributedV(ovs) }) },
		"r-updates": func() { run("r-updates", func() []experiments.Table { return experiments.AblationMultiUpdate(sweep) }) },
		"backends":  func() { run("backends", func() []experiments.Table { return experiments.AblationBackends(speed) }) },
		"worstcase": func() { run("worstcase", func() []experiments.Table { return experiments.AblationWorstCase(speed) }) },
		"recall":    func() { run("recall", func() []experiments.Table { return experiments.AblationRecall(sweep) }) },
		"space":     func() { run("space", func() []experiments.Table { return experiments.AblationSpace(speed) }) },
		"weighted":  func() { run("weighted", func() []experiments.Table { return experiments.AblationWeighted(sweep) }) },
		"converge":  func() { run("converge", func() []experiments.Table { return experiments.AblationConvergence(sweep) }) },
		"scale":     func() { run("scale", func() []experiments.Table { return experiments.ScalingSweep(scale) }) },
	}

	order := []string{"2", "3", "4", "5", "6", "7", "8", "r-updates", "backends", "worstcase", "recall", "space", "weighted", "converge", "scale"}
	switch *fig {
	case "all":
		for _, k := range order {
			figures[k]()
		}
	default:
		for _, k := range strings.Split(*fig, ",") {
			f, ok := figures[k]
			if !ok {
				fmt.Fprintf(os.Stderr, "hhhbench: unknown figure %q (valid: %s, all)\n",
					k, strings.Join(order, ", "))
				os.Exit(2)
			}
			f()
		}
	}
}

package experiments

import (
	"rhhh/internal/baseline/ancestry"
	"rhhh/internal/baseline/mst"
	"rhhh/internal/core"
	"rhhh/internal/evalmetrics"
	"rhhh/internal/exact"
	"rhhh/internal/hierarchy"
	"rhhh/internal/trace"
)

// AblationSpace tabulates memory use across ε — Theorem 6.19's
// O(H/εa) flow-table entries for the Space Saving based algorithms, and the
// measured trie size for the Ancestry baselines after a fixed stream.
func AblationSpace(cfg SpeedConfig) []Table {
	cfg = cfg.withDefaults()
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	h := dom.Size()
	gen := trace.NewSynthetic(trace.Profile(cfg.Profiles[0]))
	keys := make([]uint64, cfg.Packets)
	for i := range keys {
		p, _ := gen.Next()
		keys[i] = p.Key2()
	}
	t := Table{
		Title: "Ablation: table entries by ε (2D bytes, H=25; Theorem 6.19)",
		Headers: []string{"epsilon",
			"RHHH/MST entries (H·⌈(1+ε)/ε⌉)",
			"Full Ancestry trie", "Partial Ancestry trie"},
	}
	for _, eps := range cfg.Epsilons {
		fa := ancestry.New(dom, eps, ancestry.Full)
		pa := ancestry.New(dom, eps, ancestry.Partial)
		for _, k := range keys {
			fa.Update(k)
			pa.Update(k)
		}
		t.Add(fmtF(eps), h*core.CountersFor(eps), fa.Size(), pa.Size())
	}
	return []Table{t}
}

// AblationWeighted exercises the weighted-input extension: finding
// byte-volume HHHs instead of packet-count HHHs. The paper analyzes unitary
// streams; this table shows the weighted estimator stays useful — RHHH's
// byte-share estimates for the true byte-volume HHH prefixes against the
// exact oracle, alongside the deterministic MST reference.
func AblationWeighted(cfg SweepConfig) []Table {
	cfg = cfg.withDefaults()
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	gen := trace.NewSynthetic(withAggregates(trace.Profile(cfg.Profiles[0])))
	oracle := exact.New(dom)

	eng := core.New(dom, core.Config{Epsilon: cfg.Epsilon, Delta: cfg.Delta, Seed: cfg.Seed})
	ms := mst.New(dom, cfg.Epsilon)

	n := cfg.Checkpoints[len(cfg.Checkpoints)-1]
	for i := uint64(0); i < n; i++ {
		p, _ := gen.Next()
		k := p.Key2()
		w := uint64(p.Length)
		oracle.AddWeighted(k, w)
		eng.UpdateWeighted(k, w)
		ms.UpdateWeighted(k, w)
	}
	exactSet := oracle.HHH(cfg.Theta)

	t := Table{
		Title:   "Ablation: byte-volume HHH (weighted updates extension)",
		Headers: []string{"algorithm", "recall", "false-positive ratio", "outputs", "exact HHHs"},
	}
	outR := eng.Output(cfg.Theta)
	t.Add("RHHH (weighted)", evalmetrics.Recall(outR, exactSet),
		evalmetrics.FalsePositiveRatio(outR, exactSet), len(outR), len(exactSet))
	outM := ms.Output(cfg.Theta)
	t.Add("MST (weighted)", evalmetrics.Recall(outM, exactSet),
		evalmetrics.FalsePositiveRatio(outM, exactSet), len(outM), len(exactSet))
	return []Table{t}
}

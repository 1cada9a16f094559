package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// layer names one span kind: a call from the benchmark into a layer's public
// function, or a benchmark-side root that stands for one unit of end-to-end
// work (a closed-loop round on one goroutine, or one open-loop request).
type layer uint16

const (
	rootRound   layer = iota // bench.round: one closed-loop round on one goroutine
	rootRequest              // bench.request: one read, from its due time to its end

	layerUpdateBatch  // rhhh.Worker.UpdateBatch
	layerHeavyHitters // rhhh.Sharded.HeavyHitters
	layerShardedN     // rhhh.Sharded.N
	layerSnapshot     // rhhh.Sharded.Snapshot
	layerMarshal      // rhhh.Snapshot.MarshalBinary
	layerGather       // telemetry.Registry.Gather
	layerProcessBatch // vswitch.Datapath.ProcessBatch
	layerPump         // vswitch.CollectorLink.Pump
	layerOutputInto   // vswitch.Collector.OutputInto

	numLayers
)

var layerNames = [numLayers]string{
	rootRound:         "bench.round",
	rootRequest:       "bench.request",
	layerUpdateBatch:  "rhhh.Worker.UpdateBatch",
	layerHeavyHitters: "rhhh.Sharded.HeavyHitters",
	layerShardedN:     "rhhh.Sharded.N",
	layerSnapshot:     "rhhh.Sharded.Snapshot",
	layerMarshal:      "rhhh.Snapshot.MarshalBinary",
	layerGather:       "telemetry.Registry.Gather",
	layerProcessBatch: "vswitch.Datapath.ProcessBatch",
	layerPump:         "vswitch.CollectorLink.Pump",
	layerOutputInto:   "vswitch.Collector.OutputInto",
}

// Span flags mark the calls the per-layer metrics split on.
const (
	flagPublished uint16 = 1 << iota // UpdateBatch advanced the worker's epoch
	flagReport                       // ProcessBatch built a report
)

// span is one recorded call. Times are nanoseconds since the recorder's base.
type span struct {
	start, end int64
	id         uint64 // batch or request id
	parent     int32  // index of the parent span in the same recorder, -1 for none
	name       layer
	flag       uint16
}

// recorder keeps one goroutine's spans in memory. It is owned by that
// goroutine; when off, begin and end cost one branch.
type recorder struct {
	role  string
	on    bool
	base  time.Time
	spans []span
}

func newRecorder(role string, base time.Time) *recorder {
	return &recorder{role: role, base: base}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// begin opens a span and returns its index, or -1 when tracing is off.
func (r *recorder) begin(name layer, parent int32, id uint64) int32 {
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{start: r.now(), id: id, parent: parent, name: name})
	return int32(len(r.spans) - 1)
}

// end closes span i.
func (r *recorder) end(i int32) {
	if i >= 0 {
		r.spans[i].end = r.now()
	}
}

// flag marks span i.
func (r *recorder) flag(i int32, f uint16) {
	if i >= 0 {
		r.spans[i].flag |= f
	}
}

// beginAt opens a span whose start was taken earlier, as a request's due time.
func (r *recorder) beginAt(name layer, id uint64, start time.Time) int32 {
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{start: int64(start.Sub(r.base)), id: id, parent: -1, name: name})
	return int32(len(r.spans) - 1)
}

// traceSummary is what the per-layer metrics read from the spans of a run.
type traceSummary struct {
	// selfNs is each layer's self time: its spans' durations minus the part
	// their child spans cover, summed over spans that have a root parent.
	selfNs [numLayers]float64
	// rootNs is the summed duration of all root spans; uncoveredNs the part
	// of it that no child span covers.
	rootNs, uncoveredNs float64
}

// summarize walks every recorder's spans. Children of one root never overlap
// (each goroutine makes one call at a time), so covered time is the sum of
// their durations.
func summarize(recs []*recorder) traceSummary {
	var ts traceSummary
	for _, r := range recs {
		covered := make([]float64, len(r.spans))
		for _, s := range r.spans {
			if s.parent >= 0 {
				covered[s.parent] += float64(s.end - s.start)
			}
		}
		for i, s := range r.spans {
			dur := float64(s.end - s.start)
			self := dur - covered[i]
			if s.parent < 0 {
				if s.name == rootRound || s.name == rootRequest {
					ts.rootNs += dur
					ts.uncoveredNs += self
				}
				continue
			}
			ts.selfNs[s.name] += self
		}
	}
	return ts
}

// writeSpans writes every recorded span as tab-separated text.
func writeSpans(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "role\tindex\tname\tparent\tid\tstart_ns\tend_ns\tflag")
	for _, r := range recs {
		for i, s := range r.spans {
			fmt.Fprintf(w, "%s\t%d\t%s\t%d\t%d\t%d\t%d\t%d\n",
				r.role, i, layerNames[s.name], s.parent, s.id, s.start, s.end, s.flag)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

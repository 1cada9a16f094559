package telemetry

import (
	"fmt"
	"io"
	"strconv"
	"sync"
)

// Kind is the Prometheus metric type of a family.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one exposed time series (or, for collectors, a producer of
// several series with dynamic labels).
type series struct {
	labels  string // rendered label set, `{a="b"}` or ""
	cell    *Cell
	fnU     func() uint64
	fnF     func() float64
	isFloat bool
	hist    *Histogram
	collect func(*Appender)
}

// family groups the series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   Kind
	series []series
}

// Registry holds registered metric families and renders them in the
// Prometheus text exposition format. Registration happens at setup time;
// WritePrometheus may be called concurrently with publications (it reads
// only atomic cells and scrape closures over synchronized state). All
// methods are nil-safe no-ops so telemetry.Disabled can be threaded
// through every Instrument call.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
	buf    []byte
	app    Appender // reused across collect calls: a fresh &Appender{}
	// would escape into the collector closure and cost one allocation
	// per collector series per scrape
}

// Disabled is the no-op registry: instrumenting with it wires nothing and
// leaves every hot path on its uninstrumented branch.
var Disabled *Registry

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// famFor returns the family for name, creating it with help/kind on first
// registration and validating consistency afterwards.
func (r *Registry) famFor(name, help string, kind Kind) *family {
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.byName[name] = f
		r.fams = append(r.fams, f)
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: %s registered as %s and %s", name, f.kind, kind))
	}
	return f
}

func (r *Registry) add(name, labels, help string, kind Kind, s series) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.famFor(name, help, kind)
	for _, prev := range f.series {
		if prev.labels == labels && prev.collect == nil && s.collect == nil {
			panic(fmt.Sprintf("telemetry: duplicate series %s%s", name, labels))
		}
	}
	s.labels = labels
	f.series = append(f.series, s)
}

// Counter registers a published-cell counter series.
func (r *Registry) Counter(name, labels, help string, c *Cell) {
	r.add(name, labels, help, KindCounter, series{cell: c})
}

// CounterFunc registers a counter whose value is computed at scrape time.
// fn must be safe to call from any goroutine and must not allocate if the
// zero-alloc scrape property matters for this registry.
func (r *Registry) CounterFunc(name, labels, help string, fn func() uint64) {
	r.add(name, labels, help, KindCounter, series{fnU: fn})
}

// Gauge registers a published-cell gauge series.
func (r *Registry) Gauge(name, labels, help string, c *Cell) {
	r.add(name, labels, help, KindGauge, series{cell: c})
}

// GaugeFunc registers a gauge computed lazily at scrape time from existing
// state. fn must be safe to call from any goroutine.
func (r *Registry) GaugeFunc(name, labels, help string, fn func() float64) {
	r.add(name, labels, help, KindGauge, series{fnF: fn, isFloat: true})
}

// Histogram registers a histogram series.
func (r *Registry) Histogram(name, labels, help string, h *Histogram) {
	r.add(name, labels, help, KindHistogram, series{hist: h})
}

// CollectCounter registers a scrape-time collector emitting counter
// samples with dynamic label sets (e.g. one series per vswitch sender).
func (r *Registry) CollectCounter(name, help string, fn func(*Appender)) {
	r.add(name, "", help, KindCounter, series{collect: fn})
}

// CollectGauge is CollectCounter for gauges.
func (r *Registry) CollectGauge(name, help string, fn func(*Appender)) {
	r.add(name, "", help, KindGauge, series{collect: fn})
}

// Appender lets a collector emit samples during a scrape.
type Appender struct {
	r   *Registry
	fam *family
}

// U64 emits one integer sample with the given rendered label set.
func (a *Appender) U64(labels string, v uint64) {
	a.r.buf = appendSample(a.r.buf, a.fam.name, labels, v)
}

// F64 emits one float sample with the given rendered label set.
func (a *Appender) F64(labels string, v float64) {
	a.r.buf = append(a.r.buf, a.fam.name...)
	a.r.buf = append(a.r.buf, labels...)
	a.r.buf = append(a.r.buf, ' ')
	a.r.buf = strconv.AppendFloat(a.r.buf, v, 'g', -1, 64)
	a.r.buf = append(a.r.buf, '\n')
}

// bucketLE holds the prerendered le label values in seconds, one per
// finite bucket, shared by every histogram family.
var bucketLE = func() [HistBuckets]string {
	var out [HistBuckets]string
	for i := range out {
		out[i] = strconv.FormatFloat(float64(BucketBound(i))/1e9, 'g', -1, 64)
	}
	return out
}()

func appendSample(buf []byte, name, labels string, v uint64) []byte {
	buf = append(buf, name...)
	buf = append(buf, labels...)
	buf = append(buf, ' ')
	buf = strconv.AppendUint(buf, v, 10)
	return append(buf, '\n')
}

// appendLabeled renders name + labels with one extra le pair merged in.
func appendBucketLine(buf []byte, name, labels, le string, v uint64) []byte {
	buf = append(buf, name...)
	buf = append(buf, "_bucket"...)
	if labels == "" {
		buf = append(buf, `{le="`...)
	} else {
		buf = append(buf, labels[:len(labels)-1]...)
		buf = append(buf, `,le="`...)
	}
	buf = append(buf, le...)
	buf = append(buf, `"} `...)
	buf = strconv.AppendUint(buf, v, 10)
	return append(buf, '\n')
}

// render writes the full exposition into r.buf (reused across scrapes, so
// a steady-state scrape performs no allocation).
func (r *Registry) render() {
	r.buf = r.buf[:0]
	for _, f := range r.fams {
		r.buf = append(r.buf, "# HELP "...)
		r.buf = append(r.buf, f.name...)
		r.buf = append(r.buf, ' ')
		r.buf = append(r.buf, f.help...)
		r.buf = append(r.buf, "\n# TYPE "...)
		r.buf = append(r.buf, f.name...)
		r.buf = append(r.buf, ' ')
		r.buf = append(r.buf, f.kind.String()...)
		r.buf = append(r.buf, '\n')
		for i := range f.series {
			s := &f.series[i]
			switch {
			case s.collect != nil:
				r.app.r, r.app.fam = r, f
				s.collect(&r.app)
			case s.hist != nil:
				var v histView
				s.hist.load(&v)
				cum := uint64(0)
				for b, c := range v.cnt {
					cum += c
					r.buf = appendBucketLine(r.buf, f.name, s.labels, bucketLE[b], cum)
				}
				r.buf = appendBucketLine(r.buf, f.name, s.labels, "+Inf", v.count)
				r.buf = append(r.buf, f.name...)
				r.buf = append(r.buf, "_sum"...)
				r.buf = append(r.buf, s.labels...)
				r.buf = append(r.buf, ' ')
				r.buf = strconv.AppendFloat(r.buf, float64(v.sum)/1e9, 'g', -1, 64)
				r.buf = append(r.buf, '\n')
				r.buf = append(r.buf, f.name...)
				r.buf = append(r.buf, "_count"...)
				r.buf = append(r.buf, s.labels...)
				r.buf = append(r.buf, ' ')
				r.buf = strconv.AppendUint(r.buf, v.count, 10)
				r.buf = append(r.buf, '\n')
			case s.isFloat:
				r.buf = append(r.buf, f.name...)
				r.buf = append(r.buf, s.labels...)
				r.buf = append(r.buf, ' ')
				r.buf = strconv.AppendFloat(r.buf, s.fnF(), 'g', -1, 64)
				r.buf = append(r.buf, '\n')
			case s.fnU != nil:
				r.buf = appendSample(r.buf, f.name, s.labels, s.fnU())
			default:
				r.buf = appendSample(r.buf, f.name, s.labels, s.cell.Load())
			}
		}
	}
}

// WritePrometheus renders every registered family in the Prometheus text
// exposition format and writes it to w.
func (r *Registry) WritePrometheus(w io.Writer) (int, error) {
	if r == nil {
		return 0, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.render()
	return w.Write(r.buf)
}

// Gather renders the exposition and appends it to dst, returning the
// result. With a non-nil dst of sufficient capacity, a scrape pass
// performs zero allocations once the internal buffer has reached its
// steady-state size.
func (r *Registry) Gather(dst []byte) []byte {
	if r == nil {
		return dst
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.render()
	return append(dst, r.buf...)
}

// histogram sum precision note: _sum is exposed in seconds as Prometheus
// conventions require; the internal accumulation is integer nanoseconds,
// so no float drift accumulates across publications.

// Names returns the registered family names in registration order (for
// golden tests against the documented catalogue).
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.fams))
	for i, f := range r.fams {
		out[i] = f.name
	}
	return out
}

// Package telemetry is the fleet's unified metrics plane: a registry of
// labeled series (counters, gauges, power-of-two-bucket histograms)
// whose update paths are single atomic operations on pre-registered
// cells — zero allocations, no locks — following the word-API
// discipline of internal/mem. Every stats-bearing subsystem (rb,
// ghumvee, ikb, ipmon, policy, mem arena, vnet, fleet, chaos) feeds the
// registry either through a direct cell (hot-path instrumentation) or
// through a scrape-time collector that samples the subsystem's existing
// atomic Stats() counters — the hot paths those counters live on are
// untouched.
//
// Consistency model (DESIGN.md §11): a scrape holds the registry lock,
// so series sets are stable during rendering, but individual cell reads
// are independent atomic loads — a scrape is a per-cell-consistent,
// not cross-cell-consistent, snapshot, exactly like the Stats()
// surfaces it aggregates.
//
// Naming follows the Prometheus convention: cumulative counters end in
// "_total"; everything else emitted by a collector is a gauge. The
// convention is load-bearing: collector bridges infer the series kind
// from the suffix, so the Emit methods scattered across packages never
// import this one.
package telemetry

import (
	"math"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is a series family's metric type.
type Kind uint8

// Family kinds.
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
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Label is one key="value" pair.
type Label struct {
	Key, Value string
}

// Labels is an ordered label set. Build with L; the rendered form is
// computed once at registration so hot-path updates never format
// strings.
type Labels []Label

// L builds a one-label set.
func L(key, value string) Labels { return Labels{{key, value}} }

// render formats the label set as {k="v",...}; empty set renders empty.
func (ls Labels) render() string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// Counter is a monotonically increasing cell. Add/Inc are one atomic
// RMW; no allocation, no lock.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the cell.
func (c *Counter) Value() uint64 { return c.v.Load() }

// set overwrites the cell (collector bridges sampling an external
// cumulative counter).
func (c *Counter) set(n uint64) { c.v.Store(n) }

// Gauge is a settable cell storing a float64 as its bit pattern. Set is
// one atomic store; no allocation, no lock.
type Gauge struct {
	bits atomic.Uint64
}

// Set overwrites the gauge.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value reads the gauge.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// HistBuckets is the number of power-of-two histogram buckets: bucket i
// counts observations v with bits.Len64(v) == i, i.e. bucket 0 holds
// v == 0 and bucket i (i ≥ 1) holds v in [2^(i-1), 2^i - 1]. The
// rendered upper bound of bucket i is 2^i - 1. 33 buckets cover
// [0, 2^32-1] exactly; larger observations clamp into the last bucket
// (its rendered le is still finite — the +Inf bucket is the count).
const HistBuckets = 33

// Histogram is a power-of-two-bucket latency/size histogram. Observe is
// three atomic RMWs and a bit-length — no allocation, no lock, no
// float math on the hot path.
type Histogram struct {
	buckets [HistBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

// Observe records one value (typically nanoseconds or bytes).
func (h *Histogram) Observe(v uint64) {
	i := bits.Len64(v)
	if i >= HistBuckets {
		i = HistBuckets - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum reports the sum of observations.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// BucketBound reports bucket i's inclusive upper bound (2^i - 1).
func BucketBound(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return math.MaxUint64
	}
	return uint64(1)<<uint(i) - 1
}

// series is one labeled cell within a family.
type series struct {
	labels string // rendered
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
}

// family is one metric name: a kind, a help string and its series.
type family struct {
	name   string
	help   string
	kind   Kind
	series map[string]*series // rendered labels -> cell
	order  []*series          // insertion order; sorted lazily at render
}

func (f *family) get(labels string) *series {
	if s, ok := f.series[labels]; ok {
		return s
	}
	s := &series{labels: labels}
	switch f.kind {
	case KindCounter:
		s.ctr = &Counter{}
	case KindGauge:
		s.gauge = &Gauge{}
	case KindHistogram:
		s.hist = &Histogram{}
	}
	f.series[labels] = s
	f.order = append(f.order, s)
	return s
}

// Collector is a scrape-time callback: it samples a subsystem's counters
// into the registry through the Sampler. Collectors run under the
// registry lock — they must not call registration methods themselves.
type Collector func(s *Sampler)

type collectorEntry struct {
	labels Labels
	fn     Collector
}

// Registry holds the metric families. Registration and scrape take the
// registry lock; the returned cells are stable pointers the hot paths
// update lock-free.
type Registry struct {
	mu         sync.Mutex
	families   map[string]*family
	names      []string // family names; sorted lazily at render
	collectors []collectorEntry
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// familyLocked interns (name, kind); help sticks at first non-empty.
func (r *Registry) familyLocked(name, help string, kind Kind) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, kind: kind, series: map[string]*series{}}
		r.families[name] = f
		r.names = append(r.names, name)
	}
	if f.help == "" {
		f.help = help
	}
	return f
}

// Counter registers (or finds) a counter series and returns its cell.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.familyLocked(name, help, KindCounter).get(labels.render()).ctr
}

// Gauge registers (or finds) a gauge series and returns its cell.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.familyLocked(name, help, KindGauge).get(labels.render()).gauge
}

// Histogram registers (or finds) a histogram series and returns its cell.
func (r *Registry) Histogram(name, help string, labels Labels) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.familyLocked(name, help, KindHistogram).get(labels.render()).hist
}

// RegisterCollector adds a scrape-time sampler running with the given
// base label set. Each scrape invokes every collector before rendering,
// so collector-fed series always show the sample taken at that scrape.
func (r *Registry) RegisterCollector(labels Labels, fn Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, collectorEntry{labels: labels, fn: fn})
}

// Sampler is the upsert surface handed to collectors at scrape time.
type Sampler struct {
	r        *Registry
	labels   Labels
	rendered string
}

// Metric upserts one sample under the collector's label set, inferring
// the kind from the Prometheus naming convention: a "_total" suffix is
// a cumulative counter (the sampled value is stored absolutely),
// anything else is a gauge.
func (s *Sampler) Metric(name string, v float64) {
	if strings.HasSuffix(name, "_total") {
		s.counterLocked(name).set(uint64(v))
		return
	}
	s.gaugeLocked(name).Set(v)
}

// MetricU is Metric for uint64 sources (the Emit convention across the
// stats packages).
func (s *Sampler) MetricU(name string, v uint64) {
	if strings.HasSuffix(name, "_total") {
		s.counterLocked(name).set(v)
		return
	}
	s.gaugeLocked(name).Set(float64(v))
}

// MetricWith upserts one sample under the collector's label set plus
// extra labels — the per-network / per-component refinement path. Kind
// inference follows Metric.
func (s *Sampler) MetricWith(name string, extra Labels, v float64) {
	rendered := append(append(Labels{}, s.labels...), extra...).render()
	if strings.HasSuffix(name, "_total") {
		s.r.familyLocked(name, "", KindCounter).get(rendered).ctr.set(uint64(v))
		return
	}
	s.r.familyLocked(name, "", KindGauge).get(rendered).gauge.Set(v)
}

// Help attaches a help string to a family (first writer wins).
func (s *Sampler) Help(name, help string) {
	s.r.familyLocked(name, help, inferKind(name))
}

func inferKind(name string) Kind {
	if strings.HasSuffix(name, "_total") {
		return KindCounter
	}
	return KindGauge
}

func (s *Sampler) counterLocked(name string) *Counter {
	return s.r.familyLocked(name, "", KindCounter).get(s.rendered).ctr
}

func (s *Sampler) gaugeLocked(name string) *Gauge {
	return s.r.familyLocked(name, "", KindGauge).get(s.rendered).gauge
}

// collectLocked runs every collector; r.mu must be held.
func (r *Registry) collectLocked() {
	for _, ce := range r.collectors {
		ce.fn(&Sampler{r: r, labels: ce.labels, rendered: ce.labels.render()})
	}
}

// WriteProm renders the registry in Prometheus text exposition format
// (version 0.0.4): families sorted by name, series sorted by label
// string, histograms expanded into cumulative _bucket/_sum/_count. The
// returned string is deterministic for a fixed set of cell values.
func (r *Registry) WriteProm(b *strings.Builder) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectLocked()
	sort.Strings(r.names)
	for _, name := range r.names {
		f := r.families[name]
		if len(f.order) == 0 {
			continue
		}
		if f.help != "" {
			b.WriteString("# HELP ")
			b.WriteString(f.name)
			b.WriteByte(' ')
			b.WriteString(f.help)
			b.WriteByte('\n')
		}
		b.WriteString("# TYPE ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(f.kind.String())
		b.WriteByte('\n')
		sort.Slice(f.order, func(i, j int) bool { return f.order[i].labels < f.order[j].labels })
		for _, s := range f.order {
			switch f.kind {
			case KindCounter:
				writeSample(b, f.name, "", s.labels, float64(s.ctr.Value()))
			case KindGauge:
				writeSample(b, f.name, "", s.labels, s.gauge.Value())
			case KindHistogram:
				writeHistogram(b, f.name, s)
			}
		}
	}
}

// PromText renders the registry to a string (the /metrics payload).
func (r *Registry) PromText() string {
	var b strings.Builder
	r.WriteProm(&b)
	return b.String()
}

func writeSample(b *strings.Builder, name, suffix, labels string, v float64) {
	b.WriteString(name)
	b.WriteString(suffix)
	b.WriteString(labels)
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

// writeHistogram expands a histogram series: cumulative buckets with
// le = 2^i - 1, the +Inf bucket, then _sum and _count.
func writeHistogram(b *strings.Builder, name string, s *series) {
	var cum uint64
	for i := 0; i < HistBuckets; i++ {
		n := s.hist.buckets[i].Load()
		cum += n
		if n == 0 && i != HistBuckets-1 {
			continue // sparse rendering: empty interior buckets elided
		}
		writeSample(b, name, "_bucket", spliceLabel(s.labels, "le", formatUint(BucketBound(i))), float64(cum))
	}
	writeSample(b, name, "_bucket", spliceLabel(s.labels, "le", "+Inf"), float64(s.hist.Count()))
	writeSample(b, name, "_sum", s.labels, float64(s.hist.Sum()))
	writeSample(b, name, "_count", s.labels, float64(s.hist.Count()))
}

// spliceLabel inserts key="value" into a rendered label string.
func spliceLabel(rendered, key, value string) string {
	if rendered == "" {
		return "{" + key + `="` + value + `"}`
	}
	return rendered[:len(rendered)-1] + "," + key + `="` + value + `"}`
}

func formatUint(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// formatFloat renders integers without a fraction (the common case for
// counters) and everything else via strconv-compatible shortest form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		if v < 0 {
			return "-" + formatUint(uint64(-v))
		}
		return formatUint(uint64(v))
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

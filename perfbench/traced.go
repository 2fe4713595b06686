package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"hypertrio/internal/core"
	"hypertrio/internal/device"
	"hypertrio/internal/iommu"
	"hypertrio/internal/mem"
	"hypertrio/internal/obs"
	"hypertrio/internal/pipeline"
	"hypertrio/internal/sim"
	"hypertrio/internal/tlb"
	"hypertrio/internal/trace"
	"hypertrio/internal/workload"
)

// span is one timed call into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the workload's root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spans records nested spans in memory; the traced run writes them out
// when it ends. All methods are no-ops on a nil *spans, so timed code
// paths pass nil and pay nothing.
type spans struct {
	t0   time.Time
	list []span
	open []int
}

func newSpans() *spans { return &spans{t0: time.Now()} }

func (s *spans) begin(name string) int {
	if s == nil {
		return -1
	}
	parent := -1
	if n := len(s.open); n > 0 {
		parent = s.open[n-1]
	}
	id := len(s.list)
	s.list = append(s.list, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(s.t0))})
	s.open = append(s.open, id)
	return id
}

func (s *spans) end(id int) {
	if s == nil {
		return
	}
	s.list[id].End = int64(time.Since(s.t0))
	s.open = s.open[:len(s.open)-1]
}

// seconds is a closed span's duration.
func (s *spans) seconds(id int) float64 {
	return float64(s.list[id].End-s.list[id].Start) / 1e9
}

// layerTime is one layer's share of a traced run.
type layerTime struct {
	Layer string  `json:"layer"`
	Spans int     `json:"spans"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"` // total minus the time its child spans cover
}

// layer is the span name up to its first '.' or ':'.
func layer(name string) string {
	if i := strings.IndexAny(name, ".:"); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes aggregates span and self time per layer. Children of one span
// never overlap (the run is single-threaded between spans), so a span's
// self time is its duration minus its children's.
func (s *spans) selfTimes() []layerTime {
	child := make([]int64, len(s.list))
	for _, sp := range s.list {
		if sp.Parent >= 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	by := map[string]*layerTime{}
	var order []string
	for i, sp := range s.list {
		l := layer(sp.Name)
		lt := by[l]
		if lt == nil {
			lt = &layerTime{Layer: l}
			by[l] = lt
			order = append(order, l)
		}
		lt.Spans++
		lt.Total += float64(sp.End-sp.Start) / 1e9
		lt.Self += float64(sp.End-sp.Start-child[i]) / 1e9
	}
	out := make([]layerTime, 0, len(order))
	for _, l := range order {
		out = append(out, *by[l])
	}
	return out
}

// recorder parses the model's own NDJSON event trace (internal/obs) as it
// is written, keeping what the layer replays need: the chipset-bound
// demand requests in walk order, and the event kernel's queue depth.
type recorder struct {
	partial    []byte
	walks      []pipeline.Request
	pending    int64
	fires      uint64
	pendingSum float64 // queue depth summed over fires
	err        error
}

var (
	evSched  = []byte(`"ev":"sched"`)
	evFire   = []byte(`"ev":"fire"`)
	evCancel = []byte(`"ev":"cancel"`)
	evWalk   = []byte(`"ev":"walk_start"`)
)

func (r *recorder) Write(p []byte) (int, error) {
	data := p
	if len(r.partial) > 0 {
		data = append(r.partial, p...)
	}
	for {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			r.partial = append(r.partial[:0:0], data...)
			return len(p), nil
		}
		r.line(data[:i])
		data = data[i+1:]
	}
}

func (r *recorder) line(l []byte) {
	switch {
	case bytes.Contains(l, evSched):
		r.pending++
	case bytes.Contains(l, evFire):
		r.pendingSum += float64(r.pending)
		r.fires++
		r.pending--
	case bytes.Contains(l, evCancel):
		r.pending--
	case bytes.Contains(l, evWalk):
		var ev obs.Event
		if err := json.Unmarshal(l, &ev); err != nil {
			r.err = err
			return
		}
		iova, err := strconv.ParseUint(strings.TrimPrefix(ev.IOVA, "0x"), 16, 64)
		if err != nil {
			r.err = err
			return
		}
		r.walks = append(r.walks, pipeline.Request{SID: mem.SID(ev.SID), IOVA: iova, Shift: ev.Shift})
	}
}

// meanPending is the kernel's mean queue depth at a fire.
func (r *recorder) meanPending() float64 { return ratio(r.pendingSum, float64(r.fires)) }

// record reruns the reference cell with the model's event tracer and
// kernel probe attached. Observability only reads model state, so the
// Result must equal the untraced one bit for bit.
func (in *inputs) record() (*recorder, core.Result, error) {
	rec := &recorder{}
	tr := obs.NewTracer(rec)
	sys, _, err := in.build(nil, &obs.Options{Tracer: tr, EngineEvents: true})
	if err != nil {
		return nil, core.Result{}, err
	}
	res, err := sys.Run()
	if err != nil {
		return nil, res, err
	}
	if err := tr.Flush(); err != nil {
		return nil, res, err
	}
	if rec.err != nil {
		return nil, res, fmt.Errorf("parsing the event trace: %w", rec.err)
	}
	return rec, res, nil
}

// chipset returns the run's chipset stage.
func chipset(sys *core.System) *pipeline.ChipsetStage {
	for _, st := range sys.Chain().Stages() {
		if cs, ok := st.(*pipeline.ChipsetStage); ok {
			return cs
		}
	}
	return nil
}

// streamOf collects the accepted-order packet stream of a fresh source:
// every packet is accepted exactly once, in stream order.
func (in *inputs) streamOf() ([]workload.Packet, error) {
	src, err := trace.NewStream(in.tc)
	if err != nil {
		return nil, err
	}
	pkts := make([]workload.Packet, 0, in.packets)
	for {
		p, ok := src.Next()
		if !ok {
			return pkts, nil
		}
		pkts = append(pkts, p)
	}
}

// buildTables builds the workload's tenant page tables the way
// core.NewSystemSource does: one shared template per ring-window slot
// without a fault plan, private per-tenant tables with one.
func (in *inputs) buildTables() (*mem.Space, *mem.ContextTable, *mem.TenantTables, error) {
	n := in.tc.Tenants
	profile := workload.ProfileFor(in.tc.Benchmark)
	levels := in.cfg.PageTableLevels
	if levels == 0 {
		levels = mem.Levels
	}
	host := mem.NewSpace("host", 0x1_0000_0000, 0)
	ct := mem.NewContextTable()
	ct.Reserve(mem.SID(n))
	tenants := mem.NewTenantTables(mem.SID(n))
	if in.w.faults {
		for i := 1; i <= n; i++ {
			as, err := workload.BuildAddressSpaceLevels(profile, mem.SID(i), host, ct, levels)
			if err != nil {
				return nil, nil, nil, err
			}
			tenants.Set(mem.SID(i), as.Nested)
		}
		return host, ct, tenants, nil
	}
	slots := workload.RingSlots
	if n < slots {
		slots = n
	}
	templates := make([]*mem.NestedTable, slots)
	for c := range templates {
		as, err := workload.BuildAddressSpaceLevels(profile, mem.SID(1+c), host, nil, levels)
		if err != nil {
			return nil, nil, nil, err
		}
		templates[c] = as.Nested
	}
	for i := 1; i <= n; i++ {
		nt := templates[(i-1)%slots]
		tenants.Set(mem.SID(i), nt)
		ct.Set(mem.SID(i), mem.ContextEntry{DID: uint32(i), GuestRoot: nt.GuestRoot(), HostRoot: nt.HostRoot()})
	}
	return host, ct, tenants, nil
}

// nopSink is the event kernel replay's handler.
type nopSink struct{}

func (nopSink) HandleEvent(*sim.Engine, sim.Time, uint64) {}

// overheadCells is how many untraced cells the traced run makes first,
// as the baseline its tracing overhead is reported against.
const overheadCells = 3

// maxReplay caps the event kernel replay's length.
const maxReplay = 2_000_000

// tracedRun makes the per-layer measurement: a traced cell with spans
// around each call into a layer, a recording rerun that captures the
// workload's chipset-bound request stream and queue depth, replays of
// the workload's own streams through each layer's public functions, and
// a pass of the quick suite for the sweep layers (runner, experiments),
// which exist only there. Untraced cells made first are the baseline
// the tracing overhead is reported against. The span report is written
// under dir.
func tracedRun(in *inputs, dir string, env envInfo, stderr io.Writer) (*result, error) {
	r := newResult()
	var untraced []float64
	for i := 0; i < overheadCells; i++ {
		s, err := in.cell()
		r.tally(err, stderr, in.w.name+" cell")
		if err == nil {
			untraced = append(untraced, s.run)
		}
	}

	sp := newSpans()
	root := sp.begin("workload:" + in.w.name)
	ct, err := traceCell(in, sp, r, stderr)
	if err != nil {
		return nil, err
	}
	traceSuite(in, sp, r, stderr)
	sp.end(root)
	overhead := ct.runS/median(untraced) - 1
	r.set("core.trace_overhead_frac", overhead, "ratio")

	rep := traceReport{
		Env: env, Workload: in.w.name, Seed: in.seed,
		Layers: sp.selfTimes(), Attribution: ct.attr, Unattributed: ct.unattributed,
		UntracedRunS: untraced, TracedRunS: ct.runS, TraceOverhead: overhead,
		Spans: sp.list,
	}
	path, err := rep.write(dir)
	if err != nil {
		return nil, err
	}
	rep.print(stderr, path)
	return r, nil
}

// cellTrace is what the traced cell contributes to the span report.
type cellTrace struct {
	runS         float64
	attr         []attribution
	unattributed float64
}

// traceCell traces one reference cell and replays its streams through
// each layer, recording the cell's per-layer metrics into r.
func traceCell(in *inputs, sp *spans, r *result, stderr io.Writer) (cellTrace, error) {
	// The traced cell.
	id := sp.begin("setup")
	sys, plan, err := in.build(sp, nil)
	sp.end(id)
	if err != nil {
		return cellTrace{}, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	runID := sp.begin("core.run")
	res, err := sys.Run()
	sp.end(runID)
	runtime.ReadMemStats(&m1)
	if err == nil {
		err = in.check(sys, res, plan)
	}
	r.tally(err, stderr, in.w.name+" traced cell")
	runS := sp.seconds(runID)
	slots := float64(res.Packets + res.Drops)

	id = sp.begin("record")
	rec, recRes, err := in.record()
	sp.end(id)
	if err == nil && digest(recRes) != digest(res) {
		err = fmt.Errorf("the run with the event tracer attached gave a different Result")
	}
	r.tally(err, stderr, in.w.name+" recording cell")
	if err != nil {
		return cellTrace{}, err
	}

	pkts, err := in.streamOf()
	if err != nil {
		return cellTrace{}, err
	}

	// trace: drain a fresh stream.
	src, err := trace.NewStream(in.tc)
	if err != nil {
		return cellTrace{}, err
	}
	id = sp.begin("trace.drain")
	drained := 0
	for {
		if _, ok := src.Next(); !ok {
			break
		}
		drained++
	}
	sp.end(id)
	traceNs := sp.seconds(id) * 1e9 / float64(drained)

	// sim: the hold model at the workload's mean queue depth — each step
	// fires the earliest event and schedules one a full queue ahead.
	depth := int(rec.meanPending() + 0.5)
	if depth < 1 {
		depth = 1
	}
	gap := in.cfg.Params.Interarrival()
	eng := sim.NewEngine()
	for i := 0; i < depth; i++ {
		eng.ScheduleEvent(sim.Duration(i)*gap, nopSink{}, 0)
	}
	nEv := rec.fires
	if nEv > maxReplay {
		nEv = maxReplay
	}
	id = sp.begin("sim.schedule_step")
	for i := uint64(0); i < nEv; i++ {
		eng.Step()
		eng.ScheduleEvent(sim.Duration(depth)*gap, nopSink{}, 0)
	}
	sp.end(id)
	simNs := sp.seconds(id) * 1e9 / float64(nEv)

	// tlb: the request stream through the design's DevTLB.
	keys := make([]tlb.Key, 0, len(pkts)*workload.RequestsPerPacket)
	for _, p := range pkts {
		keys = append(keys,
			iommu.PageKey(p.SID, p.Ring, workload.PageShiftOf(p.Ring)),
			iommu.PageKey(p.SID, p.Data, workload.PageShiftOf(p.Data)),
			iommu.PageKey(p.SID, p.Mailbox, workload.PageShiftOf(p.Mailbox)))
	}
	devtlb := tlb.New(in.cfg.DevTLB)
	id = sp.begin("tlb.lookup")
	for _, k := range keys {
		if _, ok := devtlb.Lookup(k); !ok {
			devtlb.Insert(tlb.Entry{Key: k})
		}
	}
	sp.end(id)
	tlbNs := sp.seconds(id) * 1e9 / float64(len(keys))

	// mem: the workload's tenant tables, then walks and resume-point
	// lookups on the recorded chipset requests.
	id = sp.begin("mem.build")
	host, ct, tenants, err := in.buildTables()
	sp.end(id)
	if err != nil {
		return cellTrace{}, err
	}
	buildS := sp.seconds(id)
	walks := rec.walks
	if len(walks) == 0 {
		return cellTrace{}, fmt.Errorf("%s: the recording run made no chipset walk", in.w.name)
	}
	buf := make([]mem.NestedAccess, 0, 64)
	id = sp.begin("mem.walk")
	for _, rq := range walks {
		res, err := tenants.Get(rq.SID).WalkInto(rq.IOVA, buf[:0])
		if err != nil {
			return cellTrace{}, fmt.Errorf("walking recorded request: %w", err)
		}
		buf = res.Accesses[:0]
	}
	sp.end(id)
	walkNs := sp.seconds(id) * 1e9 / float64(len(walks))
	hpaCalls := 0
	id = sp.begin("mem.table_hpa")
	for _, rq := range walks {
		nt := tenants.Get(rq.SID)
		if _, err := nt.TableHPA(rq.IOVA, 2); err == nil {
			hpaCalls++
		}
		if rq.Shift == mem.PageShift {
			if _, err := nt.TableHPA(rq.IOVA, 1); err == nil {
				hpaCalls++
			}
		}
	}
	sp.end(id)
	hpaNs := sp.seconds(id) * 1e9 / float64(hpaCalls)

	// iommu: the recorded chipset requests through a fresh chipset over
	// the same tables.
	u := iommu.New(in.cfg.IOMMU, ct, tenants)
	id = sp.begin("iommu.translate")
	for _, rq := range walks {
		if _, err := u.Translate(rq.SID, rq.IOVA, rq.Shift, true); err != nil {
			return cellTrace{}, fmt.Errorf("translating recorded request: %w", err)
		}
	}
	sp.end(id)
	translateNs := sp.seconds(id) * 1e9 / float64(len(walks))

	// device: the accepted-SID sequence through the SID predictor.
	hist := 0
	if in.cfg.Prefetch != nil {
		hist = in.cfg.Prefetch.HistoryLen
	}
	pred := device.NewSIDPredictor(hist)
	id = sp.begin("device.predict")
	for _, p := range pkts {
		pred.Observe(p.SID)
		pred.Predict(p.SID)
	}
	sp.end(id)
	predictNs := sp.seconds(id) * 1e9 / float64(len(pkts))

	// trace.Construct: the materializing drain every cache miss of the
	// quick suite pays, on this workload's trace config.
	id = sp.begin("trace.construct")
	_, err = trace.Construct(in.tc)
	sp.end(id)
	if err != nil {
		return cellTrace{}, err
	}
	constructS := sp.seconds(id)

	// Exact counts from the traced cell's Result, registry and memo.
	reg := sys.Registry()
	counter := func(name string) float64 { v, _ := reg.CounterValue(name); return float64(v) }
	var memo iommu.MemoStats
	if cs := chipset(sys); cs != nil {
		memo = cs.IOMMU().MemoStats()
	}
	st := res.IOMMU

	r.set("trace.ns_per_pkt", traceNs, "ns")
	r.set("trace.pkts", float64(drained), "count")
	r.set("trace.construct_s", constructS, "s")
	r.set("sim.ns_per_event", simNs, "ns")
	r.set("sim.events", float64(rec.fires), "count")
	r.set("sim.pending_depth", rec.meanPending(), "count")
	r.set("core.run_s", runS, "s")
	r.set("core.ns_per_slot", runS*1e9/slots, "ns")
	r.set("core.slots_per_pkt", slots/float64(res.Packets), "ratio")
	r.set("core.drop_ratio", float64(res.Drops)/slots, "ratio")
	r.set("core.allocs_per_pkt", float64(m1.Mallocs-m0.Mallocs)/float64(res.Packets), "count")
	r.set("tlb.ns_per_lookup", tlbNs, "ns")
	r.set("tlb.devtlb_hit_ratio", res.DevTLB.HitRate(), "ratio")
	r.set("iommu.ns_per_translate", translateNs, "ns")
	r.set("iommu.translations", float64(st.Translations), "count")
	r.set("iommu.accesses_per_walk", ratio(float64(st.MemAccesses), float64(st.Walks)), "count")
	r.set("iommu.memo_hit_ratio", ratio(float64(memo.Hits), float64(memo.Hits+memo.Misses)), "ratio")
	r.set("iommu.l2pwc_hit_ratio", st.L2PWC.HitRate(), "ratio")
	r.set("iommu.l3pwc_hit_ratio", st.L3PWC.HitRate(), "ratio")
	r.set("iommu.context_hit_ratio", st.ContextCache.HitRate(), "ratio")
	r.set("mem.ns_per_walk", walkNs, "ns")
	r.set("mem.ns_per_table_hpa", hpaNs, "ns")
	r.set("mem.build_s", buildS, "s")
	r.set("mem.arena_bytes_per_tenant", float64(host.ArenaBytes())/float64(in.tc.Tenants), "bytes")
	r.set("device.ns_per_predict", predictNs, "ns")
	r.set("device.prefetch_useful_ratio", ratio(float64(res.Prefetch.Served), float64(res.Prefetch.Installed)), "ratio")
	r.set("device.ptb_reject_ratio", ratio(float64(res.PTB.Rejected), float64(res.PTB.Allocs+res.PTB.Rejected)), "ratio")
	r.set("fault.events_applied", counter("fault.applied"), "count")
	r.set("fault.rewalks", counter("fault.rewalks"), "count")
	r.set("fault.entries_dropped", counter("fault.dropped"), "count")

	// Attribution: each layer's replayed cost per call times the exact
	// number of calls the traced cell made; what is left is core's own
	// work plus everything the replays do not cover.
	attr := []attribution{
		{Layer: "trace", NsPerCall: traceNs, Calls: float64(drained)},
		{Layer: "sim", NsPerCall: simNs, Calls: float64(rec.fires)},
		{Layer: "tlb", NsPerCall: tlbNs, Calls: float64(res.DevTLB.Lookups)},
		{Layer: "iommu", NsPerCall: translateNs, Calls: float64(st.Translations)},
		{Layer: "device", NsPerCall: predictNs, Calls: float64(res.Prefetch.Predictor.Predictions)},
	}
	explained := 0.0
	for i := range attr {
		attr[i].Share = attr[i].NsPerCall * attr[i].Calls / (runS * 1e9)
		explained += attr[i].Share
	}
	unattributed := 1 - explained
	r.set("core.unattributed_frac", unattributed, "ratio")
	return cellTrace{runS: runS, attr: attr, unattributed: unattributed}, nil
}

// traceSuite times each experiment of one quick-suite pass and records
// the trace cache's hit ratio.
func traceSuite(in *inputs, sp *spans, r *result, stderr io.Writer) {
	suiteID := sp.begin("runner.suite")
	suite, err := runSuite(in, sp, nil)
	sp.end(suiteID)
	r.tally(err, stderr, "quick suite")
	r.set("runner.trace_cache_hit_ratio", suite.cache.HitRate(), "ratio")
	for _, s := range sp.list {
		if s.Parent == suiteID {
			r.set(s.Name+"_s", float64(s.End-s.Start)/1e9, "s")
		}
	}
}

// attribution is one layer's estimated share of core.run_s.
type attribution struct {
	Layer     string  `json:"layer"`
	NsPerCall float64 `json:"ns_per_call"`
	Calls     float64 `json:"calls"`
	Share     float64 `json:"share_of_run"`
}

// traceReport is the traced run's span file.
type traceReport struct {
	Env           envInfo       `json:"env"`
	Workload      string        `json:"workload"`
	Seed          int64         `json:"seed"`
	Layers        []layerTime   `json:"layers"`
	Attribution   []attribution `json:"attribution"`
	Unattributed  float64       `json:"unattributed_frac"`
	UntracedRunS  []float64     `json:"untraced_run_s"`
	TracedRunS    float64       `json:"traced_run_s"`
	TraceOverhead float64       `json:"trace_overhead_frac"`
	Spans         []span        `json:"spans"`
}

func (t traceReport) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", t.Workload, t.Seed))
	b, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

func (t traceReport) print(w io.Writer, path string) {
	fmt.Fprintf(w, "traced run of %s (seed %d), spans written to %s\n", t.Workload, t.Seed, path)
	layers := append([]layerTime(nil), t.Layers...)
	sort.SliceStable(layers, func(i, j int) bool { return layers[i].Self > layers[j].Self })
	fmt.Fprintf(w, "%-12s %6s %10s %10s\n", "layer", "spans", "total_s", "self_s")
	for _, l := range layers {
		fmt.Fprintf(w, "%-12s %6d %10.4f %10.4f\n", l.Layer, l.Spans, l.Total, l.Self)
	}
	fmt.Fprintf(w, "core.run_s %.4f traced vs %.4f untraced median (overhead %+.2f%%)\n",
		t.TracedRunS, median(t.UntracedRunS), 100*t.TraceOverhead)
	fmt.Fprintf(w, "%-8s %12s %12s %8s\n", "layer", "ns/call", "calls", "share")
	for _, a := range t.Attribution {
		fmt.Fprintf(w, "%-8s %12.1f %12.0f %7.1f%%\n", a.Layer, a.NsPerCall, a.Calls, 100*a.Share)
	}
	fmt.Fprintf(w, "%-8s %12s %12s %7.1f%%\n", "core+rest", "", "", 100*t.Unattributed)
}

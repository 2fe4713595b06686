package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"hypertrio/internal/core"
	"hypertrio/internal/fault"
	"hypertrio/internal/mem"
	"hypertrio/internal/obs"
	"hypertrio/internal/sim"
	"hypertrio/internal/trace"
	"hypertrio/internal/workload"
)

// defaultSeed is the seed whose outputs are pinned: result digests in
// digests.json and, for the quick suite, the repository's golden
// manifest (internal/experiments/testdata/quick-suite.sha256).
const defaultSeed = 42

// Workload definitions. The tenant count, interleave and design define
// each workload (README.md gives the reasons); the trace scales size one
// cell at one to two host seconds on a 2-core x86 container.
var workloads = []benchWorkload{
	{
		name:   "ht-1k",
		design: core.HyperTRIOConfig,
		trace:  trace.Config{Benchmark: workload.Websearch, Tenants: 1024, Interleave: trace.RR1, Scale: 0.01},
	},
	{
		name:   "base-1k",
		design: core.BaseConfig,
		trace:  trace.Config{Benchmark: workload.Websearch, Tenants: 1024, Interleave: trace.RR1, Scale: 0.01},
	},
	{
		name:   "ht-64-faults",
		design: core.HyperTRIOConfig,
		trace:  trace.Config{Benchmark: workload.Websearch, Tenants: 64, Interleave: trace.RAND1, Scale: 0.1},
		faults: true,
	},
	{
		// The reference cell is the quick suite's own headline point:
		// Fig. 10's HyperTRIO run at its largest quick tenant count
		// (128), whose quick trace holds 120 packets per tenant.
		name:   "quick-suite",
		design: core.HyperTRIOConfig,
		trace:  trace.Config{Benchmark: workload.Websearch, Tenants: 128, Interleave: trace.RR1, Scale: quickScale(120)},
		suite:  true,
	},
}

// quickScale is the trace scale that gives ppt packets per tenant to the
// websearch tenant with the smallest request budget.
func quickScale(ppt int) float64 {
	return float64(ppt*workload.RequestsPerPacket) / float64(workload.ProfileFor(workload.Websearch).MinRequests)
}

// benchWorkload is one benchmark input set: a reference cell (a streaming
// source over trace, replayed by design, with a seeded fault plan when
// faults is set), plus the whole quick experiment suite when suite is
// set.
type benchWorkload struct {
	name   string
	design func() core.Config
	trace  trace.Config
	faults bool
	suite  bool
}

func lookupWorkload(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

//go:embed digests.json
var digestsJSON []byte

// recordedDigests maps a workload to the digest of its reference cell's
// Result at defaultSeed.
func recordedDigests() (map[string]string, error) {
	m := map[string]string{}
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return m, nil
}

// inputs are everything one run derives from its seed before timing
// starts: the trace config, the packet count a fresh stream yields (the
// check every operation's accepted count must meet) and the simulated
// span the fault plan is spread over.
type inputs struct {
	w       benchWorkload
	seed    int64
	cfg     core.Config
	tc      trace.Config
	packets uint64
	span    sim.Duration

	want     string // recorded digest at defaultSeed; empty skips the check
	firstDig string // digest of the run's first good cell
	manifest map[string]string
}

func prepare(w benchWorkload, seed int64, repo string) (*inputs, error) {
	in := &inputs{w: w, seed: seed, cfg: w.design(), tc: w.trace}
	in.tc.Seed = seed
	n, err := drain(in.tc)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("%s: seed %d yields an empty trace", w.name, seed)
	}
	in.packets = uint64(n)
	in.span = sim.Duration(n) * in.cfg.Params.Interarrival()
	if seed == defaultSeed {
		d, err := recordedDigests()
		if err != nil {
			return nil, err
		}
		if in.want = d[w.name]; in.want == "" {
			return nil, fmt.Errorf("digests.json has no entry for %s", w.name)
		}
		if in.manifest, err = loadManifest(repo); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// drain counts the packets of a fresh stream of tc.
func drain(tc trace.Config) (int, error) {
	src, err := trace.NewStream(tc)
	if err != nil {
		return 0, err
	}
	n := 0
	for {
		if _, ok := src.Next(); !ok {
			return n, nil
		}
		n++
	}
}

// faultEvery is the fault plan's density: one scripted event per this
// many packet slots of the run's span.
const faultEvery = 64

// faultPlan scripts the ht-64-faults writes from the seed: events evenly
// spaced over the first 90% of the simulated span (so every one fires
// while traffic flows), each a page invalidation, a remap of a mapped
// ring or mailbox page (followed by its invalidation), or a tenant-wide
// invalidation, on a seeded tenant.
func faultPlan(seed int64, tenants int, span sim.Duration, packets uint64) *fault.Plan {
	p := &fault.Plan{Seed: seed, Retry: fault.DefaultRetryPolicy()}
	n := int(packets / faultEvery)
	if n == 0 {
		return p
	}
	rng := rand.New(rand.NewSource(seed ^ 0x66_61_75_6c_74))
	period := span * 9 / 10 / sim.Duration(n+1)
	for i := 1; i <= n; i++ {
		sid := mem.SID(rng.Intn(tenants) + 1)
		page := workload.RingPageFor(sid)
		if rng.Intn(2) == 1 {
			page = workload.MailboxFor(sid)
		}
		ev := fault.Event{At: sim.Time(period * sim.Duration(i)), SID: sid, IOVA: page, Shift: workload.PageShiftOf(page)}
		switch k := rng.Intn(5); {
		case k < 2:
			ev.Kind = fault.InvalidatePage
		case k < 4:
			ev.Kind = fault.Remap
		default:
			ev.Kind, ev.IOVA, ev.Shift = fault.InvalidateTenant, 0, 0
		}
		p.Events = append(p.Events, ev)
	}
	return p
}

// cellSample is one built-and-run reference cell.
type cellSample struct {
	setup, run float64 // host seconds
	liveBytes  float64 // GC-settled heap growth while the System is held
	res        core.Result
}

// build is the set-up the setup_s metric times: the source, the fault
// plan and the System (page tables and the translation chain). sp, when
// non-nil, records a span around each part; o attaches observability.
func (in *inputs) build(sp *spans, o *obs.Options) (*core.System, *fault.Plan, error) {
	id := sp.begin("trace.new_stream")
	src, err := trace.NewStream(in.tc)
	sp.end(id)
	if err != nil {
		return nil, nil, err
	}
	cfg := in.cfg
	cfg.Obs = o
	if in.w.faults {
		id = sp.begin("fault.plan")
		cfg.Fault = faultPlan(in.seed, in.tc.Tenants, in.span, in.packets)
		sp.end(id)
	}
	id = sp.begin("core.new_system")
	sys, err := core.NewSystemSource(cfg, src)
	sp.end(id)
	return sys, cfg.Fault, err
}

// cell builds and runs the reference cell once with tracing off and
// checks its output.
func (in *inputs) cell() (cellSample, error) {
	var s cellSample
	runtime.GC()
	base := heapAlloc()
	t0 := time.Now()
	sys, plan, err := in.build(nil, nil)
	s.setup = time.Since(t0).Seconds()
	if err != nil {
		return s, err
	}
	runtime.GC()
	s.liveBytes = float64(int64(heapAlloc()) - int64(base))
	t1 := time.Now()
	res, err := sys.Run()
	s.run = time.Since(t1).Seconds()
	if err != nil {
		return s, err
	}
	s.res = res
	return s, in.check(sys, res, plan)
}

func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// check is the per-operation output check of a reference cell:
// conservation of packets and requests, every scripted fault applied,
// the same Result as the run's first cell, and at defaultSeed the
// recorded digest.
func (in *inputs) check(sys *core.System, res core.Result, plan *fault.Plan) error {
	if res.Packets != in.packets {
		return fmt.Errorf("accepted %d packets, a fresh stream holds %d", res.Packets, in.packets)
	}
	if res.Requests != workload.RequestsPerPacket*res.Packets {
		return fmt.Errorf("%d requests for %d packets", res.Requests, res.Packets)
	}
	reg := sys.Registry()
	var served uint64
	for _, name := range []string{"core.devtlb_served", "core.prefetch_served", "core.misses"} {
		v, ok := reg.CounterValue(name)
		if !ok {
			return fmt.Errorf("registry has no %s", name)
		}
		served += v
	}
	if served != res.Requests {
		return fmt.Errorf("%d requests but %d served by DevTLB, prefetch buffer and chipset", res.Requests, served)
	}
	if res.PTB.Allocs != res.Packets || res.PTB.Rejected != res.Drops {
		return fmt.Errorf("PTB allocs/rejects %d/%d != packets/drops %d/%d",
			res.PTB.Allocs, res.PTB.Rejected, res.Packets, res.Drops)
	}
	if plan != nil {
		st, ok := sys.FaultStats()
		if !ok || st.Applied != uint64(len(plan.Events)) {
			return fmt.Errorf("%d of %d scripted fault events applied", st.Applied, len(plan.Events))
		}
	}
	d := digest(res)
	if in.firstDig == "" {
		in.firstDig = d
	} else if d != in.firstDig {
		return fmt.Errorf("result digest %s differs from the run's first cell %s", d, in.firstDig)
	}
	if in.want != "" && d != in.want {
		return fmt.Errorf("result digest %s, digests.json records %q for %s at seed %d", d, in.want, in.w.name, defaultSeed)
	}
	return nil
}

// digest hashes every field of a Result.
func digest(res core.Result) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%+v", res)))
	return hex.EncodeToString(h[:])
}

// timedRun measures operations until the budget is spent and reports the
// medians of the end-to-end metrics. An operation of a single-run
// workload is one reference cell; an operation of the suite workload is
// one suite pass, with a reference cell after each experiment so the
// cells sample the whole run.
func timedRun(in *inputs, seconds float64, stderr io.Writer) *result {
	w := in.w
	r := newResult()
	var setups, rates, lives, walls []float64
	cell := func() {
		s, err := in.cell()
		r.tally(err, stderr, w.name+" cell")
		if err != nil {
			return
		}
		setups = append(setups, s.setup)
		rates = append(rates, float64(s.res.Packets)/s.run)
		lives = append(lives, s.liveBytes/float64(in.tc.Tenants))
		if !w.suite {
			walls = append(walls, s.setup+s.run)
		}
	}
	start := time.Now()
	for ops := 1; ; ops++ {
		if w.suite {
			sr, err := runSuite(in, nil, cell)
			r.tally(err, stderr, "quick suite")
			if err == nil {
				walls = append(walls, sr.wall)
			}
		} else {
			cell()
		}
		// Stop once the next operation, at the mean length so far, would
		// end more than half an operation past the budget.
		elapsed := time.Since(start).Seconds()
		if elapsed+elapsed/float64(ops)/2 > seconds {
			break
		}
	}
	r.set("sim_pkts_per_s", median(rates), "1/s")
	r.set("setup_s", median(setups), "s")
	r.set("live_bytes_per_tenant", median(lives), "bytes")
	r.set("suite_s", median(walls), "s")
	return r
}

package core

import (
	"math"
	"reflect"
	"testing"

	"hypertrio/internal/sim"
	"hypertrio/internal/tlb"
	"hypertrio/internal/trace"
	"hypertrio/internal/workload"
)

func makeTrace(t *testing.T, kind workload.Kind, tenants int, iv trace.Interleave, scale float64) *trace.Trace {
	t.Helper()
	tr, err := trace.Construct(trace.Config{
		Benchmark: kind, Tenants: tenants, Interleave: iv, Seed: 42, Scale: scale,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func run(t *testing.T, cfg Config, tr *trace.Trace) Result {
	t.Helper()
	s, err := NewSystem(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestDefaultParamsMatchPaper(t *testing.T) {
	p := DefaultParams()
	if p.PCIeOneWay != 450*sim.Nanosecond {
		t.Errorf("PCIe one-way = %v, want 450ns (Table II)", p.PCIeOneWay)
	}
	if p.DRAMLatency != 50*sim.Nanosecond {
		t.Errorf("DRAM latency = %v, want 50ns (Table II)", p.DRAMLatency)
	}
	if p.TLBHit != 2*sim.Nanosecond {
		t.Errorf("TLB hit = %v, want 2ns (Table II)", p.TLBHit)
	}
	if p.PacketBytes != 1542 {
		t.Errorf("packet = %dB, want 1542B (Table II)", p.PacketBytes)
	}
	if p.LinkGbps != 200 {
		t.Errorf("link = %vGb/s, want 200 (Table II)", p.LinkGbps)
	}
	// 1542B at 200Gb/s: 61.68ns inter-arrival.
	if p.Interarrival() != sim.FromNanos(61.68) {
		t.Errorf("interarrival = %v, want 61.68ns", p.Interarrival())
	}
}

func TestTable4Configs(t *testing.T) {
	b := BaseConfig()
	h := HyperTRIOConfig()
	if b.DevTLB.Entries() != 64 || b.DevTLB.Ways != 8 || b.DevTLB.Policy != tlb.LFU {
		t.Errorf("Base DevTLB %+v does not match Table IV", b.DevTLB)
	}
	if b.DevTLB.Index != tlb.ByAddress || h.DevTLB.Index != tlb.BySID {
		t.Error("partitioning: Base must index by address, HyperTRIO by SID")
	}
	if h.DevTLB.Sets != 8 {
		t.Errorf("HyperTRIO DevTLB partitions = %d, want 8", h.DevTLB.Sets)
	}
	if b.PTBEntries != 1 || h.PTBEntries != 32 {
		t.Errorf("PTB entries base=%d hyper=%d, want 1/32", b.PTBEntries, h.PTBEntries)
	}
	if b.Prefetch != nil {
		t.Error("Base must not prefetch")
	}
	if h.Prefetch == nil || h.Prefetch.BufferEntries != 8 || h.Prefetch.HistoryLen != 48 {
		t.Errorf("HyperTRIO prefetch %+v does not match Table IV", h.Prefetch)
	}
	if h.IOMMU.L2PWC.Entries() != 512 || h.IOMMU.L2PWC.Sets != 32 {
		t.Errorf("L2TLB %+v does not match Table IV", h.IOMMU.L2PWC)
	}
	if h.IOMMU.L3PWC.Entries() != 1024 || h.IOMMU.L3PWC.Sets != 64 {
		t.Errorf("L3TLB %+v does not match Table IV", h.IOMMU.L3PWC)
	}
}

func TestConfigValidation(t *testing.T) {
	good := BaseConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.PTBEntries = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero PTB accepted")
	}
	bad = good
	bad.Params.LinkGbps = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero link rate accepted")
	}
	bad = good
	bad.Params.ArrivalGbps = 300
	if err := bad.Validate(); err == nil {
		t.Error("arrival above link accepted")
	}
}

// TestParamsRejectNonFiniteRates: rates whose packet gap the picosecond
// clock cannot hold fail validation. Accepted, a NaN link rate gives a
// -2^63 ps gap (a negative-delay panic) and +Inf a 0 ps gap (an arrival
// loop spinning at t=0).
func TestParamsRejectNonFiniteRates(t *testing.T) {
	cases := []struct {
		name        string
		link, arriv float64
		ok          bool
	}{
		{"default link, arrival at link rate", 200, 0, true},
		{"arrival below link", 200, 20, true},
		{"NaN link", math.NaN(), 0, false},
		{"+Inf link", math.Inf(1), 0, false},
		{"-Inf link", math.Inf(-1), 0, false},
		{"NaN arrival", 200, math.NaN(), false},
		{"+Inf arrival", 200, math.Inf(1), false},
		{"negative arrival", 200, -1, false},
		{"gap under 1 ps", 1e20, 0, false},
		{"gap past the clock", 1e-12, 0, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := BaseConfig()
			cfg.Params.LinkGbps, cfg.Params.ArrivalGbps = c.link, c.arriv
			err := cfg.Validate()
			if (err == nil) != c.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, c.ok)
			}
			if err == nil && cfg.Params.Interarrival() <= 0 {
				t.Fatalf("accepted params give a %v gap", cfg.Params.Interarrival())
			}
		})
	}
}

func TestSingleTenantSaturatesLink(t *testing.T) {
	tr := makeTrace(t, workload.Iperf3, 1, trace.RR1, 0.02)
	r := run(t, HyperTRIOConfig(), tr)
	if r.Utilization < 0.95 {
		t.Fatalf("single tenant utilization %.1f%%, want ~100%%", r.Utilization*100)
	}
	if r.Drops > r.Packets/100 {
		t.Fatalf("single tenant dropped %d of %d packets", r.Drops, r.Packets)
	}
}

func TestBaseCollapsesAtHighTenantCount(t *testing.T) {
	tr := makeTrace(t, workload.Iperf3, 128, trace.RR1, 0.002)
	r := run(t, BaseConfig(), tr)
	// Fig. 10: Base at >32 tenants is at most ~15% of the link.
	if r.Utilization > 0.2 {
		t.Fatalf("Base at 128 tenants reached %.1f%% utilization, expected collapse", r.Utilization*100)
	}
	if r.Drops == 0 {
		t.Fatal("Base under overload should drop packets")
	}
}

func TestHyperTRIOBeatsBaseAtScale(t *testing.T) {
	tr := makeTrace(t, workload.Iperf3, 128, trace.RR1, 0.002)
	base := run(t, BaseConfig(), tr)
	hyper := run(t, HyperTRIOConfig(), tr)
	if hyper.AchievedGbps <= 2*base.AchievedGbps {
		t.Fatalf("HyperTRIO %.1f Gb/s not decisively above Base %.1f Gb/s",
			hyper.AchievedGbps, base.AchievedGbps)
	}
}

func TestNativeModeLineRate(t *testing.T) {
	tr := makeTrace(t, workload.Iperf3, 8, trace.RR1, 0.005)
	cfg := BaseConfig()
	cfg.TranslationOff = true
	r := run(t, cfg, tr)
	if r.Utilization < 0.99 {
		t.Fatalf("native mode utilization %.2f%%, want ~100%%", r.Utilization*100)
	}
	if r.Drops != 0 {
		t.Fatalf("native mode dropped %d packets", r.Drops)
	}
}

func TestAccountingInvariants(t *testing.T) {
	tr := makeTrace(t, workload.Mediastream, 16, trace.RR4, 0.01)
	r := run(t, HyperTRIOConfig(), tr)
	if r.Packets != uint64(len(tr.Packets)) {
		t.Fatalf("processed %d packets, trace has %d", r.Packets, len(tr.Packets))
	}
	if r.Requests != r.Packets*workload.RequestsPerPacket {
		t.Fatalf("requests %d != packets*3 %d", r.Requests, r.Packets*3)
	}
	if r.Bytes != r.Packets*uint64(DefaultParams().PacketBytes) {
		t.Fatalf("bytes %d inconsistent", r.Bytes)
	}
	if r.DevTLBServed+r.PrefetchServed > r.Requests {
		t.Fatal("served counts exceed requests")
	}
	if r.Utilization < 0 || r.Utilization > 1.001 {
		t.Fatalf("utilization %.3f out of range", r.Utilization)
	}
	if r.PTB.Peak > HyperTRIOConfig().PTBEntries {
		t.Fatalf("PTB peak %d beyond capacity", r.PTB.Peak)
	}
}

func TestDeterministicRuns(t *testing.T) {
	tr := makeTrace(t, workload.Websearch, 32, trace.RAND1, 0.004)
	a := run(t, HyperTRIOConfig(), tr)
	b := run(t, HyperTRIOConfig(), tr)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestPrefetcherServesRequests(t *testing.T) {
	tr := makeTrace(t, workload.Websearch, 64, trace.RR1, 0.004)
	r := run(t, HyperTRIOConfig(), tr)
	if r.Prefetch.Issued == 0 {
		t.Fatal("no prefetches issued at 64 tenants")
	}
	if r.PrefetchServed == 0 {
		t.Fatal("prefetch buffer served nothing under round-robin interleaving")
	}
}

func TestDevTLBDisabled(t *testing.T) {
	tr := makeTrace(t, workload.Iperf3, 4, trace.RR1, 0.002)
	cfg := BaseConfig()
	cfg.DevTLB.Sets = 0 // disable: every request goes to the chipset
	cfg.PTBEntries = 64
	cfg.IOMMU.IOTLB = tlb.Config{Name: "iotlb", Sets: 128, Ways: 8, Policy: tlb.LRU}
	r := run(t, cfg, tr)
	if r.DevTLBServed != 0 {
		t.Fatal("disabled DevTLB served requests")
	}
	if r.IOMMU.IOTLB.Lookups == 0 {
		t.Fatal("chipset IOTLB unused")
	}
	if r.IOMMU.Translations != r.Requests {
		t.Fatalf("IOMMU saw %d translations, want all %d requests", r.IOMMU.Translations, r.Requests)
	}
}

func TestOracleDevTLBRuns(t *testing.T) {
	tr := makeTrace(t, workload.Iperf3, 8, trace.RR1, 0.002)
	cfg := BaseConfig()
	cfg.DevTLB.Policy = tlb.Oracle
	lru := run(t, BaseConfig(), tr)
	oracle := run(t, cfg, tr)
	if oracle.DevTLB.Misses > lru.DevTLB.Misses {
		t.Fatalf("oracle misses %d > LFU misses %d", oracle.DevTLB.Misses, lru.DevTLB.Misses)
	}
}

func TestEmptyTraceRejected(t *testing.T) {
	if _, err := NewSystem(BaseConfig(), &trace.Trace{}); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestRunTwiceRejected(t *testing.T) {
	tr := makeTrace(t, workload.Iperf3, 1, trace.RR1, 0.001)
	s, err := NewSystem(BaseConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil {
		t.Fatal("second Run accepted")
	}
}

func TestArrivalRateCap(t *testing.T) {
	// Fig. 5 machinery: capping the offered load must cap the result.
	tr := makeTrace(t, workload.Iperf3, 2, trace.RR1, 0.005)
	cfg := HyperTRIOConfig()
	cfg.Params.ArrivalGbps = 20
	r := run(t, cfg, tr)
	if r.AchievedGbps > 21 {
		t.Fatalf("achieved %.1f Gb/s above the 20 Gb/s offered load", r.AchievedGbps)
	}
	if r.AchievedGbps < 18 {
		t.Fatalf("achieved %.1f Gb/s, expected ~20 with ample translation headroom", r.AchievedGbps)
	}
}

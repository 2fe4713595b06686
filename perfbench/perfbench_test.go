package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"hypertrio/internal/fault"
)

// repoRoot is the source tree the benchmark measures, seen from this
// package's directory.
const repoRoot = ".."

// exactMetrics are the per-layer metrics read from simulated counts; they
// must repeat bit for bit across runs of one seed.
var exactMetrics = []string{
	"trace.pkts", "sim.events", "sim.pending_depth",
	"core.slots_per_pkt", "core.drop_ratio",
	"tlb.devtlb_hit_ratio",
	"iommu.translations", "iommu.accesses_per_walk", "iommu.memo_hit_ratio",
	"iommu.l2pwc_hit_ratio", "iommu.l3pwc_hit_ratio", "iommu.context_hit_ratio",
	"mem.arena_bytes_per_tenant",
	"device.prefetch_useful_ratio", "device.ptb_reject_ratio",
	"fault.events_applied", "fault.rewalks", "fault.entries_dropped",
	"runner.trace_cache_hit_ratio",
}

// reducedInputs prepares a workload at a tenth of its trace scale. The
// recorded digests pin the full-scale cells, so the reduced run checks
// everything else.
func reducedInputs(t *testing.T, name string, seed int64) *inputs {
	t.Helper()
	w, ok := lookupWorkload(name)
	if !ok {
		t.Fatalf("unknown workload %s", name)
	}
	w.trace.Scale /= 10
	in, err := prepare(w, seed, repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	in.want = ""
	return in
}

type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// sameMetrics fails unless r reports exactly the named metrics, each in
// its declared unit.
func sameMetrics(t *testing.T, r *result, want []struct{ Name, Unit string }) {
	t.Helper()
	seen := map[string]bool{}
	for _, m := range want {
		seen[m.Name] = true
		got, ok := r.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("metric %s in %s, BENCHMARK.json says %s", m.Name, got.Unit, m.Unit)
		}
	}
	for name := range r.Metrics {
		if !seen[name] {
			t.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
}

// TestOutputCheckTwoSeeds runs every workload at reduced length at the
// default seed and one other, and requires every operation to pass its
// output check and every end-to-end metric to be reported.
func TestOutputCheckTwoSeeds(t *testing.T) {
	spec := loadSpec(t)
	for _, name := range workloadNames() {
		for _, seed := range []int64{defaultSeed, 7} {
			in := reducedInputs(t, name, seed)
			r := timedRun(in, 1e-3, io.Discard)
			if r.Attempted == 0 || r.Failed != 0 {
				t.Errorf("%s seed %d: %d of %d operations failed", name, seed, r.Failed, r.Attempted)
			}
			sameMetrics(t, r, spec.EndToEnd)
		}
	}
}

// TestRecordedDigests pins each full-scale reference cell at the default
// seed to digests.json. A change that moves simulated results fails here
// and must re-record the digests, saying why they moved.
func TestRecordedDigests(t *testing.T) {
	for _, name := range workloadNames() {
		w, _ := lookupWorkload(name)
		in, err := prepare(w, defaultSeed, repoRoot)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := in.cell(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// cellLayers are the layers a traced cell records spans for; the fault
// injector exists only where a plan is loaded.
func cellLayers(faults bool) string {
	l := "core device iommu mem record setup sim tlb trace"
	if faults {
		l = "core device fault iommu mem record setup sim tlb trace"
	}
	return l
}

func spanLayers(ls []layerTime) string {
	var names []string
	for _, l := range ls {
		names = append(names, l.Layer)
	}
	sort.Strings(names)
	return strings.Join(names, " ")
}

// TestExactMetricsRepeat traces each workload's reference cell twice at
// one seed: every exact metric must repeat, and the spans must cover
// every layer the cell calls into.
func TestExactMetricsRepeat(t *testing.T) {
	for _, name := range workloadNames() {
		var runs [2]*result
		for i := range runs {
			in := reducedInputs(t, name, 11)
			runs[i] = newResult()
			sp := newSpans()
			if _, err := traceCell(in, sp, runs[i], io.Discard); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if runs[i].Failed != 0 {
				t.Fatalf("%s: traced cell failed its output check", name)
			}
			if got, want := spanLayers(sp.selfTimes()), cellLayers(in.w.faults); got != want {
				t.Errorf("%s: span layers %q, want %q", name, got, want)
			}
		}
		for _, m := range exactMetrics {
			if !strings.HasPrefix(m, "runner.") && runs[0].Metrics[m] != runs[1].Metrics[m] {
				t.Errorf("%s: exact metric %s differs across runs: %v vs %v", name, m, runs[0].Metrics[m], runs[1].Metrics[m])
			}
		}
	}
}

// TestTracedRun makes two full traced runs of the quick-suite workload:
// both must report exactly the declared per-layer metrics, repeat every
// exact one, write their span file with a root span and spans for the
// cell's layers and the sweep layers, and pass every output check.
func TestTracedRun(t *testing.T) {
	spec := loadSpec(t)
	env, err := environment(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := lookupWorkload("quick-suite")
	var runs [2]*result
	for i := range runs {
		in, err := prepare(w, 5, repoRoot)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		runs[i], err = tracedRun(in, dir, env, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if runs[i].Attempted == 0 || runs[i].Failed != 0 {
			t.Fatalf("%d of %d operations failed", runs[i].Failed, runs[i].Attempted)
		}
		sameMetrics(t, runs[i], spec.PerLayer)
		b, err := os.ReadFile(filepath.Join(dir, "trace-quick-suite-seed5.json"))
		if err != nil {
			t.Fatal(err)
		}
		var rep traceReport
		if err := json.Unmarshal(b, &rep); err != nil {
			t.Fatal(err)
		}
		want := "core device experiments iommu mem record runner setup sim tlb trace workload"
		if got := spanLayers(rep.Layers); got != want {
			t.Errorf("span layers %q, want %q", got, want)
		}
		if rep.Spans[0].Parent != -1 || rep.Spans[0].Name != "workload:quick-suite" {
			t.Errorf("first span %+v is not the workload root", rep.Spans[0])
		}
	}
	for _, m := range exactMetrics {
		if runs[0].Metrics[m] != runs[1].Metrics[m] {
			t.Errorf("exact metric %s differs across runs: %v vs %v", m, runs[0].Metrics[m], runs[1].Metrics[m])
		}
	}
}

// TestFaultPlan checks the ht-64-faults plan is a pure function of its
// seed, valid, inside the span, and mixes its three event kinds.
func TestFaultPlan(t *testing.T) {
	const span, packets = 1_000_000_000, 64_000
	a := faultPlan(3, 64, span, packets)
	b := faultPlan(3, 64, span, packets)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(a.Events) != packets/faultEvery {
		t.Fatalf("%d events, want %d", len(a.Events), packets/faultEvery)
	}
	kinds := map[fault.Kind]int{}
	for i, ev := range a.Events {
		if ev != b.Events[i] {
			t.Fatalf("event %d differs between two plans of one seed", i)
		}
		if ev.At <= 0 || int64(ev.At) >= span {
			t.Fatalf("event %d at %v outside the span", i, ev.At)
		}
		kinds[ev.Kind]++
	}
	for _, k := range []fault.Kind{fault.InvalidatePage, fault.Remap, fault.InvalidateTenant} {
		if kinds[k] == 0 {
			t.Errorf("plan has no %s event", k)
		}
	}
	if c := faultPlan(4, 64, span, packets); c.Events[0] == a.Events[0] && c.Events[1] == a.Events[1] {
		t.Error("plans of different seeds start identically")
	}
}

// TestCLIRejectsBadFlags checks flag errors exit non-zero without a
// result line.
func TestCLIRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "ht-1k", "--seconds", "0"},
		{"--workload", "ht-1k", "--trace", "2"},
		{"--bogus"},
	} {
		var out strings.Builder
		if code := cliMain(args, &out, io.Discard); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

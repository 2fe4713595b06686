package device

import (
	"math/rand"
	"testing"

	"hypertrio/internal/mem"
	"hypertrio/internal/obs"
)

// refPredictor is the map-backed SID predictor the dense table replaced,
// kept as the reference the dense version must match decision for
// decision.
type refPredictor struct {
	successor  map[mem.SID]mem.SID
	last       mem.SID
	haveLast   bool
	burstEWMA  float64
	runLen     int
	historyLen int

	predictions, unknowns uint64
}

func newRefPredictor(historyLen int) *refPredictor {
	if historyLen <= 0 {
		historyLen = 48
	}
	return &refPredictor{successor: map[mem.SID]mem.SID{}, burstEWMA: 1, historyLen: historyLen}
}

func (p *refPredictor) setHistoryLen(n int) {
	if n > 0 {
		p.historyLen = n
	}
}

func (p *refPredictor) observe(sid mem.SID) {
	if !p.haveLast {
		p.last, p.haveLast, p.runLen = sid, true, 1
		return
	}
	if sid == p.last {
		p.runLen++
		return
	}
	p.successor[p.last] = sid
	p.burstEWMA = (1-0.125)*p.burstEWMA + 0.125*float64(p.runLen)
	p.last = sid
	p.runLen = 1
}

func (p *refPredictor) hops() int {
	burst := p.burstEWMA
	if burst < 1 {
		burst = 1
	}
	hops := int(float64(p.historyLen)/(requestsPerPacket*burst) + 0.5)
	if hops < 1 {
		hops = 1
	}
	return hops
}

func (p *refPredictor) predict(current mem.SID) (mem.SID, bool) {
	p.predictions++
	sid := current
	for i := 0; i < p.hops(); i++ {
		next, ok := p.successor[sid]
		if !ok {
			p.unknowns++
			return 0, false
		}
		sid = next
	}
	return sid, true
}

func (p *refPredictor) forget(sid mem.SID) {
	delete(p.successor, sid)
	for from, to := range p.successor {
		if to == sid {
			delete(p.successor, from)
		}
	}
	if p.haveLast && p.last == sid {
		p.haveLast = false
		p.runLen = 0
	}
}

func (p *refPredictor) stats() PredictorStats {
	return PredictorStats{Predictions: p.predictions, Unknowns: p.unknowns,
		Entries: len(p.successor), BurstEWMA: p.burstEWMA}
}

// sparseSIDs mixes dense tenants with far-apart SIDs (0, 7, 10⁶) so the
// dense tables grow across gaps and index SID 0.
var sparseSIDs = []mem.SID{0, 1, 2, 3, 7, 8, 1_000_000}

// TestPredictorMatchesMapReference drives the dense predictor and the
// map reference through identical random Observe/Predict/Forget/
// SetHistoryLen sequences over sparse SIDs: every prediction, every
// Hops value and the final Stats must agree exactly.
func TestPredictorMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		hist := []int{0, 3, 48, 200}[seed-1]
		p, ref := NewSIDPredictor(hist), newRefPredictor(hist)
		// Round-robin stretches teach long chains; random picks break them.
		rr := 0
		for op := 0; op < 3000; op++ {
			sid := sparseSIDs[rng.Intn(len(sparseSIDs))]
			switch r := rng.Intn(100); {
			case r < 55:
				if rng.Intn(2) == 0 {
					rr = (rr + 1) % len(sparseSIDs)
					sid = sparseSIDs[rr]
				}
				for n := rng.Intn(3) + 1; n > 0; n-- {
					p.Observe(sid)
					ref.observe(sid)
				}
			case r < 90:
				got, ok := p.Predict(sid)
				want, wantOK := ref.predict(sid)
				if got != want || ok != wantOK {
					t.Fatalf("seed %d op %d: Predict(%d) = %d,%v; reference %d,%v", seed, op, sid, got, ok, want, wantOK)
				}
			case r < 97: // rare: Forget scans the table up to SID 10⁶
				p.Forget(sid)
				ref.forget(sid)
			default:
				n := rng.Intn(100)
				p.SetHistoryLen(n)
				ref.setHistoryLen(n)
			}
			if p.Hops() != ref.hops() {
				t.Fatalf("seed %d op %d: Hops %d, reference %d", seed, op, p.Hops(), ref.hops())
			}
			if got, want := p.Stats(), ref.stats(); got != want {
				t.Fatalf("seed %d op %d: Stats %+v, reference %+v", seed, op, got, want)
			}
		}
		if p.Stats().Entries == 0 || p.Stats().Predictions == p.Stats().Unknowns {
			t.Fatalf("seed %d: run never learned a usable chain: %+v", seed, p.Stats())
		}
	}
}

// TestInflightGaugeExact: the dense in-flight marks must suppress
// duplicates exactly as a set would, and the inflight gauge must equal
// that set's size after every operation.
func TestInflightGaugeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	u := NewPrefetchUnit(PrefetchConfig{HistoryLen: 3, AdaptiveHistory: false})
	reg := obs.NewRegistry()
	u.Register(reg, "pf")
	ref := map[mem.SID]bool{}
	for op := 0; op < 2000; op++ {
		sid := sparseSIDs[rng.Intn(len(sparseSIDs))]
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			u.Predictor().Observe(sid)
		case 4, 5:
			target, ok := u.ShouldPrefetch(sid)
			if ok {
				if ref[target] {
					t.Fatalf("op %d: second prefetch issued for in-flight SID %d", op, target)
				}
				ref[target] = true
			}
		case 6, 7, 8:
			if rng.Intn(2) == 0 {
				u.Complete(sid, nil, 0)
			} else {
				u.Abort(sid)
			}
			delete(ref, sid)
		default: // InvalidateSID scans the successor table up to SID 10⁶
			u.InvalidateSID(sid)
			delete(ref, sid)
		}
		if got := reg.Snapshot().Gauges["pf.inflight"]; got != float64(len(ref)) {
			t.Fatalf("op %d: inflight gauge %v, reference set holds %d", op, got, len(ref))
		}
	}
	if s := u.Stats(); s.Issued == 0 || s.Suppressed == 0 {
		t.Fatalf("run never exercised issue and suppression: %+v", s)
	}
}

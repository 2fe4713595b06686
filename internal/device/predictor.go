package device

import (
	"hypertrio/internal/mem"
	"hypertrio/internal/obs"
)

// SIDPredictor is the Prefetch Unit's table mapping the currently active
// Source ID to the SID predicted to be active again soon, plus the
// host-configured history-length register (§III). Learning happens on
// tenant switches, so with round-robin arbitration the table converges to
// the arbiter's successor relation regardless of burst length; with
// random interleaving its predictions are noise, which is exactly the
// degradation the paper reports for RAND1.
type SIDPredictor struct {
	// successor is indexed by SID and grown on demand, so a prediction's
	// hops are indexed loads instead of map probes; entries counts the
	// known links.
	successor []successorLink
	entries   int
	last      mem.SID
	haveLast  bool

	// burstEWMA estimates how many consecutive packets one tenant sends,
	// so the predictor can convert the history length (in requests) into
	// tenant hops.
	burstEWMA float64
	runLen    int

	historyLen int

	predictions obs.Counter
	unknowns    obs.Counter
}

// NewSIDPredictor creates a predictor with the given history-length
// register value (the paper finds 48 requests optimal, §V-D).
func NewSIDPredictor(historyLen int) *SIDPredictor {
	if historyLen <= 0 {
		historyLen = 48
	}
	return &SIDPredictor{
		burstEWMA:  1,
		historyLen: historyLen,
	}
}

// successorLink is one successor-table slot: the SID predicted to follow
// the slot's SID, valid when known.
type successorLink struct {
	next  mem.SID
	known bool
}

// HistoryLen returns the configured history length.
func (p *SIDPredictor) HistoryLen() int { return p.historyLen }

// SetHistoryLen updates the register (the hypervisor reconfigures it when
// tenants are added or removed).
func (p *SIDPredictor) SetHistoryLen(n int) {
	if n > 0 {
		p.historyLen = n
	}
}

// Observe feeds one accepted packet's SID in arrival order.
func (p *SIDPredictor) Observe(sid mem.SID) {
	if !p.haveLast {
		p.last, p.haveLast, p.runLen = sid, true, 1
		return
	}
	if sid == p.last {
		p.runLen++
		return
	}
	for int(p.last) >= len(p.successor) {
		p.successor = append(p.successor, successorLink{})
	}
	l := &p.successor[p.last]
	if !l.known {
		p.entries++
	}
	*l = successorLink{next: sid, known: true}
	const alpha = 0.125
	p.burstEWMA = (1-alpha)*p.burstEWMA + alpha*float64(p.runLen)
	p.last = sid
	p.runLen = 1
}

// requestsPerPacket mirrors workload.RequestsPerPacket without importing
// the workload package: every packet costs three translation requests.
const requestsPerPacket = 3

// Hops converts the history-length register (a look-ahead expressed in
// translation requests) into tenant switches: each switch covers one
// burst of packets, and each packet three requests.
func (p *SIDPredictor) Hops() int {
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

// Predict chases the successor table Hops() steps from the current SID,
// returning the SID expected to be active about historyLen requests in
// the future. ok is false when the chain has a gap (not yet learned).
func (p *SIDPredictor) Predict(current mem.SID) (mem.SID, bool) {
	p.predictions.Inc()
	sid := current
	for hops := p.Hops(); hops > 0; hops-- {
		if int(sid) >= len(p.successor) || !p.successor[sid].known {
			p.unknowns.Inc()
			return 0, false
		}
		sid = p.successor[sid].next
	}
	return sid, true
}

// Forget drops a detached tenant from the successor table: entries keyed
// by the SID and entries predicting it (the PTag flush of §III applied to
// the predictor). The last-seen state is cleared too if it names the
// tenant, so the next observation starts a fresh burst.
func (p *SIDPredictor) Forget(sid mem.SID) {
	for from := range p.successor {
		if l := &p.successor[from]; l.known && (mem.SID(from) == sid || l.next == sid) {
			*l = successorLink{}
			p.entries--
		}
	}
	if p.haveLast && p.last == sid {
		p.haveLast = false
		p.runLen = 0
	}
}

// PredictorStats reports predictor traffic.
type PredictorStats struct {
	Predictions uint64
	Unknowns    uint64
	Entries     int
	BurstEWMA   float64
}

// Stats returns a snapshot of the counters.
func (p *SIDPredictor) Stats() PredictorStats {
	return PredictorStats{
		Predictions: p.predictions.Value(),
		Unknowns:    p.unknowns.Value(),
		Entries:     p.entries,
		BurstEWMA:   p.burstEWMA,
	}
}

// Register publishes the predictor's metrics into a registry under prefix.
func (p *SIDPredictor) Register(r *obs.Registry, prefix string) {
	r.Counter(prefix+".predictions", &p.predictions)
	r.Counter(prefix+".unknowns", &p.unknowns)
	r.Gauge(prefix+".entries", func() float64 { return float64(p.entries) })
	r.Gauge(prefix+".burst_ewma", func() float64 { return p.burstEWMA })
	r.Gauge(prefix+".history_len", func() float64 { return float64(p.historyLen) })
}

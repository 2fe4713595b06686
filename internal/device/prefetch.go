package device

import (
	"hypertrio/internal/iommu"
	"hypertrio/internal/mem"
	"hypertrio/internal/obs"
	"hypertrio/internal/tlb"
)

// PrefetchConfig parametrizes the Prefetch Unit (Table IV: 8-entry
// buffer, 48-access stride, 2 pages of history per tenant).
type PrefetchConfig struct {
	// BufferEntries is the Prefetch Buffer size; it is fully associative
	// and shared by all tenants, so it must stay small.
	BufferEntries int
	// HistoryLen is the SID-predictor's look-ahead, in requests.
	HistoryLen int
	// Degree is how many most-recent pages the IOVA history reader
	// fetches and translates per prefetch request.
	Degree int
	// AdaptiveHistory lets the host retune the history-length register
	// from observed prefetch latency (the paper notes the register is
	// host-configured precisely so prefetches can be issued early enough
	// to hide translation latency; adapting it keeps prefetches
	// just-in-time across tenant counts and link speeds). When false the
	// register stays at HistoryLen.
	AdaptiveHistory bool
}

// DefaultPrefetchConfig returns the paper's tuned parameters (Table IV),
// with the history-length register under host (adaptive) control.
func DefaultPrefetchConfig() PrefetchConfig {
	return PrefetchConfig{BufferEntries: 8, HistoryLen: 48, Degree: 2, AdaptiveHistory: true}
}

// PrefetchUnit is the on-device prefetcher: a small fully-associative
// Prefetch Buffer holding prefetched gIOVA->hPA translations, the
// SID-predictor, and bookkeeping for in-flight prefetch requests.
type PrefetchUnit struct {
	cfg       PrefetchConfig
	buffer    *tlb.Cache
	predictor *SIDPredictor

	// inflight marks SIDs with an outstanding prefetch, indexed by SID
	// and grown on demand; inflightN counts the set marks.
	inflight  []bool
	inflightN int

	issued     obs.Counter // prefetch requests sent to the chipset
	served     obs.Counter // demand requests answered from the buffer
	installed  obs.Counter // translations installed into the buffer
	suppressed obs.Counter // prefetches skipped (in flight or already buffered)
}

// NewPrefetchUnit builds the unit.
func NewPrefetchUnit(cfg PrefetchConfig) *PrefetchUnit {
	if cfg.BufferEntries <= 0 {
		cfg.BufferEntries = 8
	}
	if cfg.Degree <= 0 {
		cfg.Degree = 2
	}
	return &PrefetchUnit{
		cfg: cfg,
		buffer: tlb.New(tlb.Config{
			Name: "prefetch-buffer", Sets: 1, Ways: cfg.BufferEntries, Policy: tlb.LRU,
		}),
		predictor: NewSIDPredictor(cfg.HistoryLen),
	}
}

// Config returns the unit's configuration.
func (u *PrefetchUnit) Config() PrefetchConfig { return u.cfg }

// Predictor exposes the SID-predictor (the host reconfigures its
// history-length register through it).
func (u *PrefetchUnit) Predictor() *SIDPredictor { return u.predictor }

// Lookup consults the Prefetch Buffer for a demand request; it is checked
// concurrently with the DevTLB.
func (u *PrefetchUnit) Lookup(key tlb.Key) (tlb.Entry, bool) {
	e, ok := u.buffer.Lookup(key)
	if ok {
		u.served.Inc()
	}
	return e, ok
}

// ShouldPrefetch decides, on a demand miss by current, whether to issue a
// prefetch and for which SID. It suppresses duplicates: at most one
// outstanding prefetch per predicted SID.
func (u *PrefetchUnit) ShouldPrefetch(current mem.SID) (mem.SID, bool) {
	target, ok := u.predictor.Predict(current)
	if !ok {
		return 0, false
	}
	for int(target) >= len(u.inflight) {
		u.inflight = append(u.inflight, false)
	}
	if u.inflight[target] {
		u.suppressed.Inc()
		return 0, false
	}
	u.inflight[target] = true
	u.inflightN++
	u.issued.Inc()
	return target, true
}

// historySlack is how many extra requests of look-ahead the adaptive
// register keeps beyond the observed prefetch latency, so a fill lands
// shortly before its use rather than exactly at it.
const historySlack = 2 * requestsPerPacket

// Complete installs the translations a finished prefetch brought back and
// clears the in-flight marker. latencyRequests is the observed trigger-
// to-fill latency expressed in translation requests; with AdaptiveHistory
// the host uses it to retune the history-length register just above the
// latency it must hide.
func (u *PrefetchUnit) Complete(target mem.SID, entries []tlb.Entry, latencyRequests int) {
	u.clearInflight(target)
	for _, e := range entries {
		u.buffer.Insert(e)
		u.installed.Inc()
	}
	if u.cfg.AdaptiveHistory && latencyRequests > 0 {
		// EWMA toward the observed latency plus slack.
		old := float64(u.predictor.HistoryLen())
		want := float64(latencyRequests + historySlack)
		u.predictor.SetHistoryLen(int(0.75*old + 0.25*want))
	}
}

// Abort clears the in-flight marker without installing anything (the
// predicted tenant had no history yet).
func (u *PrefetchUnit) Abort(target mem.SID) { u.clearInflight(target) }

func (u *PrefetchUnit) clearInflight(sid mem.SID) {
	if int(sid) < len(u.inflight) && u.inflight[sid] {
		u.inflight[sid] = false
		u.inflightN--
	}
}

// Invalidate drops a page from the buffer on driver unmap.
func (u *PrefetchUnit) Invalidate(sid mem.SID, iova uint64, pageShift uint8) {
	u.buffer.Invalidate(iommu.PageKey(sid, iova, pageShift))
}

// InvalidateSID flushes every per-tenant structure of the unit: buffered
// translations, the predictor's successor knowledge, and the in-flight
// marker (a prefetch completing after the teardown re-installs nothing
// useful; dropping the marker lets the re-attached tenant prefetch
// again). Returns how many buffer entries were dropped.
func (u *PrefetchUnit) InvalidateSID(sid mem.SID) int {
	n := u.buffer.InvalidateSID(uint32(sid))
	u.predictor.Forget(sid)
	u.clearInflight(sid)
	return n
}

// FlushAll empties the Prefetch Buffer (broadcast invalidation). The
// predictor's learned successor relation survives — it names tenants, not
// translations.
func (u *PrefetchUnit) FlushAll() int { return u.buffer.Flush() }

// PrefetchStats reports the unit's effectiveness.
type PrefetchStats struct {
	Issued     uint64
	Served     uint64
	Installed  uint64
	Suppressed uint64
	Buffer     tlb.Stats
	Predictor  PredictorStats
}

// Stats returns a snapshot of the counters.
func (u *PrefetchUnit) Stats() PrefetchStats {
	return PrefetchStats{
		Issued:     u.issued.Value(),
		Served:     u.served.Value(),
		Installed:  u.installed.Value(),
		Suppressed: u.suppressed.Value(),
		Buffer:     u.buffer.Stats(),
		Predictor:  u.predictor.Stats(),
	}
}

// Register publishes the unit's counters, its buffer's cache traffic
// and the predictor's metrics into a registry under prefix.
func (u *PrefetchUnit) Register(r *obs.Registry, prefix string) {
	r.Counter(prefix+".issued", &u.issued)
	r.Counter(prefix+".served", &u.served)
	r.Counter(prefix+".installed", &u.installed)
	r.Counter(prefix+".suppressed", &u.suppressed)
	r.Gauge(prefix+".inflight", func() float64 { return float64(u.inflightN) })
	u.buffer.Register(r, prefix+".buffer")
	u.predictor.Register(r, prefix+".predictor")
}

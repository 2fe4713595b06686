package iommu

import "hypertrio/internal/mem"

// DefaultHistoryDepth is how many recently used gIOVA pages the chipset
// keeps per DID in main memory; the IOVA history reader fetches the two
// most recent on a prefetch request (§III).
const DefaultHistoryDepth = 4

// HistoryEntry is one recently translated page of a tenant.
type HistoryEntry struct {
	IOVA      uint64 // page base
	PageShift uint8
}

// History is the per-DID store of recently accessed gIOVA pages. The
// paper keeps it in main memory precisely because it scales with tenant
// count; reading it costs one DRAM access, charged by the core model.
//
// Storage is dense and SID-indexed, grown on demand: SID s owns the
// depth-entry row pages[s*depth:(s+1)*depth], most recent first, of
// which the first n[s] are live. A record or read is index arithmetic,
// not a map probe, and a tenant costs depth entries plus one length.
type History struct {
	depth int
	pages []HistoryEntry
	n     []int32
}

// NewHistory creates a store remembering depth pages per tenant.
func NewHistory(depth int) *History {
	if depth <= 0 {
		depth = DefaultHistoryDepth
	}
	return &History{depth: depth}
}

// row returns sid's live entries, or nil when it has none.
func (h *History) row(sid mem.SID) []HistoryEntry {
	if int(sid) >= len(h.n) {
		return nil
	}
	off := int(sid) * h.depth
	return h.pages[off : off+int(h.n[sid])]
}

// Record notes that sid translated iova. Consecutive accesses to the same
// page deduplicate, so the history holds the most recent *distinct* pages
// (a packet's ring/data/mailbox pages rather than three copies of one).
func (h *History) Record(sid mem.SID, iova uint64, pageShift uint8) {
	for int(sid) >= len(h.n) {
		h.n = append(h.n, 0)
		h.pages = append(h.pages, make([]HistoryEntry, h.depth)...)
	}
	base := iova &^ (uint64(1)<<pageShift - 1)
	off := int(sid) * h.depth
	n := int(h.n[sid])
	full := h.pages[off : off+h.depth]
	i := 0
	for i < n && full[i].IOVA != base {
		i++
	}
	switch {
	case i < n: // seen: move to front
	case n < h.depth: // new: the shift below grows the row by one
		h.n[sid]++
	default: // new, row full: the oldest falls off
		i = n - 1
	}
	copy(full[1:i+1], full[:i])
	full[0] = HistoryEntry{IOVA: base, PageShift: pageShift}
}

// Recent returns up to n most recently used distinct pages for sid,
// most recent first.
func (h *History) Recent(sid mem.SID, n int) []HistoryEntry {
	entries := h.row(sid)
	if n > len(entries) {
		n = len(entries)
	}
	out := make([]HistoryEntry, n)
	copy(out, entries[:n])
	return out
}

// AppendRecent appends up to n most recently used distinct pages for
// sid to dst (most recent first) and returns the extended slice. Passing
// a reused buffer as dst makes steady-state history reads
// allocation-free.
func (h *History) AppendRecent(dst []HistoryEntry, sid mem.SID, n int) []HistoryEntry {
	entries := h.row(sid)
	if n > len(entries) {
		n = len(entries)
	}
	return append(dst, entries[:n]...)
}

// Drop removes an unmapped page from sid's history so the prefetcher
// does not chase stale translations.
func (h *History) Drop(sid mem.SID, iova uint64, pageShift uint8) {
	base := iova &^ (uint64(1)<<pageShift - 1)
	entries := h.row(sid)
	for i, e := range entries {
		if e.IOVA == base {
			copy(entries[i:], entries[i+1:])
			h.n[sid]--
			return
		}
	}
}

// DropSID forgets a tenant's whole history (tenant teardown).
func (h *History) DropSID(sid mem.SID) {
	if int(sid) < len(h.n) {
		h.n[sid] = 0
	}
}

// Tenants reports how many SIDs hold at least one page; for tests.
func (h *History) Tenants() int {
	t := 0
	for _, n := range h.n {
		if n > 0 {
			t++
		}
	}
	return t
}

package core

import (
	"sync/atomic"

	"lci/internal/spin"
)

// Token layout: the low 16 bits index a slab slot, the high 16 bits carry
// the slot's generation. The generation bumps on every release, so a
// duplicate or stale wire token (a retransmitted RTR, a write-imm for a
// receive that already timed out) fails the generation compare and is
// suppressed instead of resolving to whatever now occupies the slot. A
// message would have to stay in flight across 65536 release/alloc cycles
// of one slot to alias — the same discipline as handler-slot epochs.
// State that outlives a message (the receiver's seen-set tombstones) is
// not keyed on tokens: one slot can cycle that often while a tombstone
// is still held.
const (
	tokenIndexBits = 16
	tokenIndexMask = 1<<tokenIndexBits - 1
)

type tokenSlot struct {
	v   any
	gen uint16
}

// tokenRef is one live table entry captured by scan.
type tokenRef struct {
	tok uint32
	v   any
}

// tokenTable is a spinlocked slab translating small integer tokens to
// in-flight rendezvous state. Tokens ride in wire headers and RMA
// immediates. Rendezvous rates are orders of magnitude below eager rates,
// so a single lock per device is not a bottleneck; the table exists so
// wire messages never carry Go pointers.
type tokenTable struct {
	mu    spin.Mutex
	slots []tokenSlot
	free  []uint32
	// nlive mirrors the live-entry count outside the lock so the progress
	// fast path can ask "any rendezvous outstanding?" with one load.
	nlive atomic.Int64
}

// alloc stores v and returns its token.
func (t *tokenTable) alloc(v any) uint32 {
	t.mu.Lock()
	var idx uint32
	if n := len(t.free); n > 0 {
		idx = t.free[n-1]
		t.free = t.free[:n-1]
		t.slots[idx].v = v
	} else {
		t.slots = append(t.slots, tokenSlot{v: v})
		idx = uint32(len(t.slots) - 1)
		if idx > tokenIndexMask {
			panic("lci: token table overflow (>65536 concurrent rendezvous on one device)")
		}
	}
	tok := uint32(t.slots[idx].gen)<<tokenIndexBits | idx
	t.mu.Unlock()
	t.nlive.Add(1)
	return tok
}

// get returns the value stored under tok, or nil when the token is stale
// (generation mismatch) or free.
func (t *tokenTable) get(tok uint32) any {
	idx := tok & tokenIndexMask
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(idx) >= len(t.slots) || t.slots[idx].gen != uint16(tok>>tokenIndexBits) {
		return nil
	}
	return t.slots[idx].v
}

// release frees tok and returns its former value; nil when the token is
// stale or already free (duplicate-suppression path).
func (t *tokenTable) release(tok uint32) any {
	idx := tok & tokenIndexMask
	t.mu.Lock()
	if int(idx) >= len(t.slots) || t.slots[idx].gen != uint16(tok>>tokenIndexBits) || t.slots[idx].v == nil {
		t.mu.Unlock()
		return nil
	}
	v := t.slots[idx].v
	t.slots[idx].v = nil
	t.slots[idx].gen++
	t.free = append(t.free, idx)
	t.mu.Unlock()
	t.nlive.Add(-1)
	return v
}

// releaseIf frees tok only if it still holds exactly v, reporting whether
// it did. The timeout scanner and failure paths race with the normal
// completion path; whoever wins this compare owns the error/completion
// fire.
func (t *tokenTable) releaseIf(tok uint32, v any) bool {
	idx := tok & tokenIndexMask
	t.mu.Lock()
	if int(idx) >= len(t.slots) || t.slots[idx].gen != uint16(tok>>tokenIndexBits) || t.slots[idx].v != v {
		t.mu.Unlock()
		return false
	}
	t.slots[idx].v = nil
	t.slots[idx].gen++
	t.free = append(t.free, idx)
	t.mu.Unlock()
	t.nlive.Add(-1)
	return true
}

// live counts live tokens without taking the lock (progress fast path).
func (t *tokenTable) live() int64 { return t.nlive.Load() }

// scan appends every live (token, value) pair to buf and returns it.
// Callers act on the copies outside the lock and must re-validate with
// releaseIf before consuming an entry.
func (t *tokenTable) scan(buf []tokenRef) []tokenRef {
	t.mu.Lock()
	for i := range t.slots {
		if t.slots[i].v != nil {
			buf = append(buf, tokenRef{uint32(t.slots[i].gen)<<tokenIndexBits | uint32(i), t.slots[i].v})
		}
	}
	t.mu.Unlock()
	return buf
}

// inUse counts live tokens (diagnostics).
func (t *tokenTable) inUse() int { return int(t.nlive.Load()) }

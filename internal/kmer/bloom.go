package kmer

import "sync/atomic"

// Bloom is the hand-written atomic two-layer Bloom filter of §6.3. The
// first layer records "seen at least once", the second "seen at least
// twice". Inserting consults layer one: if the k-mer was already present
// there, it is promoted to layer two. Querying asks layer two, filtering
// out the (likely erroneous) single-occurrence k-mers so they never reach
// the hash map.
//
// The filter is blocked: every probe of one k-mer lands in the same
// 64-bit word of a layer, so one compare-and-swap sets all of a k-mer's
// layer-one bits at once and decides promotion. Of two concurrent inserts
// of the same k-mer exactly one sets the bits; the other sees them all
// set and promotes — with per-probe updates both could set some fresh bit
// and neither would promote, losing a count-2 k-mer.
type Bloom struct {
	bits1  []atomic.Uint64
	bits2  []atomic.Uint64
	mask   uint64 // word-index mask
	hashes int
}

// NewBloom sizes each layer at nextpow2(bits) bits with k probes per
// k-mer (at most 64, all in one word). A standard sizing for ~n elements
// at ~3% false positives is bits = 8n, k = 4.
func NewBloom(bits uint64, hashes int) *Bloom {
	if hashes < 1 {
		hashes = 4
	}
	hashes = min(hashes, 64)
	words := uint64(64)
	for words*64 < bits {
		words <<= 1
	}
	return &Bloom{
		bits1:  make([]atomic.Uint64, words),
		bits2:  make([]atomic.Uint64, words),
		mask:   words - 1,
		hashes: hashes,
	}
}

// block returns the k-mer's word index (low hash bits; Owner uses the
// high ones) and its probe bits within that word, each probe an
// independent 6-bit draw from the top of an LCG stream seeded by the
// hash. Independent draws matter: structured positions (one start plus
// a stride) leave so few distinct probe patterns that single-occurrence
// k-mers collide into layer two.
func (b *Bloom) block(k Kmer) (word, bits uint64) {
	h := k.Hash()
	x := h
	for i := 0; i < b.hashes; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		bits |= 1 << (x >> 58)
	}
	return h & b.mask, bits
}

// orWord sets mask bits in *p and returns the previous value. Implemented
// as a CAS loop: the atomic.Uint64.Or intrinsic miscompiles under
// optimization on this toolchain (go1.24.0 linux/amd64), observed as a
// nil-pointer fault in Insert.
func orWord(p *atomic.Uint64, mask uint64) uint64 {
	for {
		old := p.Load()
		if old&mask == mask {
			return old
		}
		if p.CompareAndSwap(old, old|mask) {
			return old
		}
	}
}

// Insert records one occurrence. It reports whether the k-mer was
// (probably) seen before this insert — i.e. whether it was promoted to or
// already in layer two.
func (b *Bloom) Insert(k Kmer) bool {
	w, bits := b.block(k)
	if orWord(&b.bits1[w], bits)&bits != bits {
		return false // this insert set the k-mer's layer-one bits
	}
	orWord(&b.bits2[w], bits)
	return true
}

// SeenTwice reports whether the k-mer has (probably) been inserted at
// least twice.
func (b *Bloom) SeenTwice(k Kmer) bool {
	w, bits := b.block(k)
	return b.bits2[w].Load()&bits == bits
}

// SeenOnce reports whether the k-mer has (probably) been inserted at
// least once (layer-one query; used by tests).
func (b *Bloom) SeenOnce(k Kmer) bool {
	w, bits := b.block(k)
	return b.bits1[w].Load()&bits == bits
}

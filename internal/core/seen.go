package core

// The receiver's rendezvous seen-set (DESIGN.md §9): it recognises a
// retransmitted or duplicated RTS. A duplicate of a parked RTS is dropped
// (the original is still queued in the matching engine); a duplicate of
// an invited one gets the stored RTR re-sent verbatim (the first may have
// been lost); a duplicate of a done one hits a tombstone and is absorbed.
// Tombstones are kept for the device's last seenTombstones completions.

// rdvSeenKey names one sender-side rendezvous as the receiver sees it.
// It is keyed on the sender device's RTS sequence, not on the sender
// token: a token slot's 16-bit generation wraps after 65536 reuses, well
// within the lifetime of a tombstone.
type rdvSeenKey struct {
	src, sdev int32
	seq       uint64
}

// seenKey reads the seen-set key off an RTS header: the posting device's
// index rides in the token's upper half, its RTS sequence in rkey.
func seenKey(src int, h header) rdvSeenKey {
	return rdvSeenKey{src: int32(src), sdev: int32(rtsTokenDevice(h.token)), seq: h.rkey}
}

const (
	seenParked  uint8 = iota + 1 // RTS parked in the matching engine, no RTR yet
	seenInvited                  // RTR sent; duplicates re-send the stored header
	seenDone                     // payload landed (or the rendezvous was failed)
)

// seenTombstones is how many completed handshakes a device remembers.
const seenTombstones = 1024

// seenInitSlots sizes the table at first use: every tombstone plus 512
// live handshakes fit at a load of at most three quarters, so a device in
// steady traffic never grows it.
const seenInitSlots = 2 * seenTombstones

// seenSet maps handshake keys to their state in an open-addressed,
// linear-probing table, and keeps the keys of done entries in a ring
// whose oldest key is evicted when a new one would overflow it. Removal
// shifts the following run back instead of leaving a deleted marker, so
// a steady stream of inserts and evictions never rehashes: the table
// grows only when live handshakes raise the high-water mark, and steady
// traffic allocates nothing (a Go map under the same churn does).
// Callers hold the device's seenMu.
type seenSet struct {
	slots []seenSlot // length a power of two; state 0 marks an empty slot
	shift uint       // 64 - log2(len(slots))
	n     int        // occupied slots
	done  []rdvSeenKey
	head  int // oldest key in done once it is full
}

type seenSlot struct {
	key   rdvSeenKey
	state uint8
	hdr   header // seenInvited: the RTR a duplicate gets back
}

func (s *seenSet) home(k rdvSeenKey) int {
	x := k.seq ^ uint64(uint32(k.src))<<32 ^ uint64(uint32(k.sdev))<<48
	return int((x * 0x9E3779B97F4A7C15) >> s.shift)
}

// find returns the slot holding k, or the empty slot where k would go
// and false.
func (s *seenSet) find(k rdvSeenKey) (int, bool) {
	mask := len(s.slots) - 1
	for i := s.home(k); ; i = (i + 1) & mask {
		switch {
		case s.slots[i].state == 0:
			return i, false
		case s.slots[i].key == k:
			return i, true
		}
	}
}

// lookup returns k's slot, inserting an entry in state for it when k is
// absent (and then reporting false).
func (s *seenSet) lookup(k rdvSeenKey, state uint8) (*seenSlot, bool) {
	if s.slots == nil {
		s.resize(seenInitSlots)
		s.done = make([]rdvSeenKey, 0, seenTombstones)
	}
	i, ok := s.find(k)
	if ok {
		return &s.slots[i], true
	}
	if 4*(s.n+1) > 3*len(s.slots) {
		s.resize(2 * len(s.slots))
		i, _ = s.find(k)
	}
	s.slots[i] = seenSlot{key: k, state: state}
	s.n++
	return &s.slots[i], false
}

func (s *seenSet) resize(n int) {
	old := s.slots
	s.slots = make([]seenSlot, n)
	s.shift = 64
	for ; n > 1; n >>= 1 {
		s.shift--
	}
	for i := range old {
		if old[i].state != 0 {
			j, _ := s.find(old[i].key)
			s.slots[j] = old[i]
		}
	}
}

// remove deletes k, closing the gap by moving back every entry of the
// following run that may legally sit in it.
func (s *seenSet) remove(k rdvSeenKey) {
	i, ok := s.find(k)
	if !ok {
		return
	}
	mask := len(s.slots) - 1
	for j := (i + 1) & mask; s.slots[j].state != 0; j = (j + 1) & mask {
		// slots[j] may fill the hole at i unless its home lies
		// cyclically in (i, j].
		if (j-s.home(s.slots[j].key))&mask >= (j-i)&mask {
			s.slots[i] = s.slots[j]
			i = j
		}
	}
	s.slots[i] = seenSlot{}
	s.n--
}

// admit records k's arrival. The first arrival parks k and returns 0; a
// duplicate returns the state k is in and, for seenInvited, the RTR
// header to re-send.
func (s *seenSet) admit(k rdvSeenKey) (uint8, header) {
	e, dup := s.lookup(k, seenParked)
	if !dup {
		return 0, header{}
	}
	return e.state, e.hdr
}

// invite records that parked handshake k was answered with hdr. Only a
// parked entry moves: a handshake already done (failed by a death sweep
// or Close between its token allocation and this call) stays done.
func (s *seenSet) invite(k rdvSeenKey, hdr header) {
	if s.slots == nil {
		return
	}
	if i, ok := s.find(k); ok && s.slots[i].state == seenParked {
		s.slots[i].state, s.slots[i].hdr = seenInvited, hdr
	}
}

// finish tombstones k, evicting the oldest tombstone when the ring is
// full. A handshake already done keeps its place in the ring.
func (s *seenSet) finish(k rdvSeenKey) {
	e, ok := s.lookup(k, seenDone)
	if ok && e.state == seenDone {
		return
	}
	e.state, e.hdr = seenDone, header{}
	if len(s.done) < seenTombstones {
		s.done = append(s.done, k)
		return
	}
	old := s.done[s.head]
	s.done[s.head] = k
	s.head = (s.head + 1) % seenTombstones
	s.remove(old)
}

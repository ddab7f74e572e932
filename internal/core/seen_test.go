package core

import (
	"math/rand/v2"
	"testing"
)

// seenModel is the seen-set's reference semantics: a map from key to
// state plus a FIFO of done keys, of which the oldest is forgotten once
// more than seenTombstones are held.
type seenModel struct {
	m    map[rdvSeenKey]seenSlot
	fifo []rdvSeenKey
}

func (r *seenModel) admit(k rdvSeenKey) (uint8, header) {
	e, ok := r.m[k]
	if !ok {
		r.m[k] = seenSlot{key: k, state: seenParked}
		return 0, header{}
	}
	return e.state, e.hdr
}

func (r *seenModel) invite(k rdvSeenKey, hdr header) {
	if e, ok := r.m[k]; ok && e.state == seenParked {
		r.m[k] = seenSlot{key: k, state: seenInvited, hdr: hdr}
	}
}

func (r *seenModel) finish(k rdvSeenKey) {
	if r.m[k].state == seenDone {
		return
	}
	r.m[k] = seenSlot{key: k, state: seenDone}
	r.fifo = append(r.fifo, k)
	if len(r.fifo) > seenTombstones {
		delete(r.m, r.fifo[0])
		r.fifo = r.fifo[1:]
	}
}

// TestSeenSetModel drives the seen-set and its reference through seeded
// random handshake histories and requires the same verdict, and for an
// invited duplicate the same RTR header, on every RTS arrival. The
// histories number RTSs per sender device with numbers that never arrive
// here (burned by a Retry, or sent to another rank), deliver first
// arrivals and duplicates out of order, finish handshakes out of arrival
// order, fail some before their RTR is recorded, finish some twice,
// complete far more than seenTombstones handshakes, and let the live
// count rise well past the table's initial room and fall back.
func TestSeenSetModel(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x5eed))
		var s seenSet
		ref := seenModel{m: map[rdvSeenKey]seenSlot{}}
		var nextSeq [4][3]uint64 // per (src, sender device)
		var inFlight, parked, invited, history []rdvSeenKey
		take := func(keys *[]rdvSeenKey) rdvSeenKey {
			i := rng.IntN(len(*keys))
			k := (*keys)[i]
			(*keys)[i] = (*keys)[len(*keys)-1]
			*keys = (*keys)[:len(*keys)-1]
			return k
		}
		arrive := func(step int, k rdvSeenKey) bool {
			gotState, gotHdr := s.admit(k)
			wantState, wantHdr := ref.admit(k)
			if gotState != wantState || gotHdr != wantHdr {
				t.Fatalf("seed %d step %d: arrival of %+v: got state %d hdr %+v, want state %d hdr %+v",
					seed, step, k, gotState, gotHdr, wantState, wantHdr)
			}
			return gotState == 0
		}
		finished := 0
		for step := 0; step < 40_000; step++ {
			// The live target swings between a few and ~1500 handshakes.
			target := 8
			if (step/8000)%2 == 1 {
				target = 1500
			}
			live := len(parked) + len(invited)
			switch r := rng.IntN(100); {
			case r < 30 && live+len(inFlight) < target+16:
				src, sdev := rng.IntN(4), rng.IntN(3)
				nextSeq[src][sdev] += 1 + uint64(rng.IntN(3)) // skipped numbers never arrive here
				inFlight = append(inFlight, rdvSeenKey{src: int32(src), sdev: int32(sdev), seq: nextSeq[src][sdev]})
			case r < 50 && len(inFlight) > 0:
				k := take(&inFlight)
				if arrive(step, k) {
					parked = append(parked, k)
					history = append(history, k)
				}
			case r < 62 && len(history) > 0:
				// A duplicate of any earlier arrival, recent or long
				// evicted.
				k := history[len(history)-1-rng.IntN(min(len(history), 3000))]
				if arrive(step, k) {
					parked = append(parked, k)
				}
			case r < 78 && len(parked) > 0:
				k := take(&parked)
				if rng.IntN(20) == 0 {
					// Failed by a sweep before its RTR was recorded:
					// the late invite must not revive it.
					s.finish(k)
					ref.finish(k)
					finished++
				} else {
					invited = append(invited, k)
				}
				hdr := header{kind: kRTR, rcomp: 7, size: uint32(k.sdev), token: uint64(k.sdev)<<32 | uint64(step), rkey: uint64(step) * 3}
				s.invite(k, hdr)
				ref.invite(k, hdr)
			case r < 80 && len(history) > 0:
				// A finish of whatever state a recent key is in: a done
				// key must keep its place in the tombstone order.
				k := history[len(history)-1-rng.IntN(min(len(history), 1500))]
				s.finish(k)
				ref.finish(k)
			case len(invited) > 0 && live > target/2:
				k := take(&invited)
				s.finish(k)
				ref.finish(k)
				finished++
			}
		}
		if finished <= 2*seenTombstones {
			t.Fatalf("seed %d: only %d handshakes finished; the history must evict tombstones", seed, finished)
		}
		if s.n != len(ref.m) {
			t.Fatalf("seed %d: seen-set holds %d entries, reference %d", seed, s.n, len(ref.m))
		}
		for k, want := range ref.m {
			i, ok := s.find(k)
			if !ok || s.slots[i] != want {
				t.Fatalf("seed %d: entry %+v: got %+v (present %v), want %+v", seed, k, s.slots[i], ok, want)
			}
		}
	}
}

// TestSeenSetSteadyAllocatesNothing: once the table and the tombstone
// ring exist, a steady stream of handshakes — admit, invite, finish,
// evict — allocates nothing and never grows the table.
func TestSeenSetSteadyAllocatesNothing(t *testing.T) {
	var s seenSet
	seq := uint64(0)
	cycle := func() {
		seq++
		k := rdvSeenKey{src: 1, sdev: 2, seq: seq}
		s.admit(k)
		s.invite(k, header{kind: kRTR, token: seq})
		s.admit(k) // a duplicate
		s.finish(k)
	}
	for i := 0; i < 2*seenTombstones; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(4*seenTombstones, cycle); n != 0 {
		t.Fatalf("%.1f allocations per handshake, want 0", n)
	}
	if len(s.slots) != seenInitSlots || s.n != seenTombstones {
		t.Fatalf("table of %d slots holds %d entries, want %d slots holding the %d tombstones",
			len(s.slots), s.n, seenInitSlots, seenTombstones)
	}
}

package coll_test

import (
	"errors"
	"testing"
	"time"

	"lci/internal/coll"
	"lci/internal/comp"
	"lci/internal/core"
	"lci/internal/fault"
	"lci/internal/netsim/fabric"
	"lci/internal/netsim/nic"
)

// newFaultComms builds n in-process ranks over one fabric with a fault
// injector installed before any runtime exists (each device reads the
// injector at construction), plus one Comm per rank.
func newFaultComms(t *testing.T, n int, inj *fault.Injector) ([]*core.Runtime, []*coll.Comm) {
	t.Helper()
	fab := fabric.New(fabric.Config{NumRanks: n})
	fab.SetInjector(inj)
	provider := nic.Config{SendOverheadNs: 1, RecvOverheadNs: 1}
	rts := make([]*core.Runtime, n)
	comms := make([]*coll.Comm, n)
	for r := 0; r < n; r++ {
		rt, err := core.NewRuntime(provider, fab, r, core.Config{PacketsPerWorker: 64, PreRecvs: 16})
		if err != nil {
			t.Fatal(err)
		}
		rts[r] = rt
		comms[r] = coll.New(rt)
		t.Cleanup(func() { rt.Close() })
	}
	return rts, comms
}

// watchdog runs f and fails the test if it does not return: the one
// thing a collective over a dead member must never do is hang.
func watchdog(t *testing.T, what string, f func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(60 * time.Second):
		t.Fatalf("%s hung (dead member must produce an error, not a wedge)", what)
		return nil
	}
}

// TestCollectiveDeadMemberFailsFast runs an allreduce whose only peer is
// already dead: the collective must return ErrPeerDead, not hang.
func TestCollectiveDeadMemberFailsFast(t *testing.T) {
	inj := fault.New(21, 2)
	_, comms := newFaultComms(t, 2, inj)
	inj.KillRank(1)

	err := watchdog(t, "Allreduce", func() error {
		var in, out [8]byte
		return comms[0].Allreduce(in[:], out[:], coll.Int64, coll.Sum, core.Options{})
	})
	if !errors.Is(err, core.ErrPeerDead) {
		t.Fatalf("Allreduce over dead member: err = %v, want ErrPeerDead", err)
	}
}

// TestBarrierDeadMember: the blocking barrier's posts to a dead peer are
// refused and the error surfaces instead of spinning forever.
func TestBarrierDeadMember(t *testing.T) {
	inj := fault.New(22, 2)
	_, comms := newFaultComms(t, 2, inj)
	inj.KillRank(1)

	err := watchdog(t, "Barrier", func() error {
		return comms[0].Barrier(core.Options{})
	})
	if !errors.Is(err, core.ErrPeerDead) {
		t.Fatalf("Barrier over dead member: err = %v, want ErrPeerDead", err)
	}
}

// TestCollectiveStrandedSurvivor is the three-rank scenario the
// dead-rank sweep alone cannot terminate: rank 2 dies, rank 0's graph
// fails on its direct contact with the dead rank and abort-cascades its
// send to rank 1 — stranding rank 1, whose only parked receive is from
// the still-alive rank 0. The comm poisoning (checkDead) must cancel it
// so BOTH survivors return typed errors instead of rank 1 hanging.
func TestCollectiveStrandedSurvivor(t *testing.T) {
	inj := fault.New(24, 3)
	_, comms := newFaultComms(t, 3, inj)
	inj.KillRank(2)

	errs := make([]error, 2)
	_ = watchdog(t, "Allreduce pair", func() error {
		done := make(chan struct{})
		go func() {
			var in, out [8]byte
			errs[1] = comms[1].Allreduce(in[:], out[:], coll.Int64, coll.Sum, core.Options{})
			close(done)
		}()
		var in, out [8]byte
		errs[0] = comms[0].Allreduce(in[:], out[:], coll.Int64, coll.Sum, core.Options{})
		<-done
		return nil
	})
	for r, werr := range errs {
		if werr == nil {
			t.Fatalf("rank %d: allreduce over dead member returned nil", r)
		}
		if !errors.Is(werr, core.ErrPeerDead) && !errors.Is(werr, comp.ErrAborted) {
			t.Fatalf("rank %d: allreduce err = %v, want ErrPeerDead or ErrAborted", r, werr)
		}
	}
}

// TestCollectiveMemberDiesMidFlight starts the collective while the peer
// is alive and kills it afterwards: the parked receive is swept with
// ErrPeerDead (or refused at deferred post time), the graph aborts its
// dependents, and Wait completes with a typed error.
func TestCollectiveMemberDiesMidFlight(t *testing.T) {
	inj := fault.New(23, 2)
	_, comms := newFaultComms(t, 2, inj)

	var in, out [8]byte
	h, err := comms[0].IAllreduce(in[:], out[:], coll.Int64, coll.Sum, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	inj.KillRank(1)

	werr := watchdog(t, "IAllreduce.Wait", func() error { return h.Wait() })
	if werr == nil {
		t.Fatal("Wait returned nil after peer death")
	}
	if !errors.Is(werr, core.ErrPeerDead) && !errors.Is(werr, core.ErrTimeout) {
		t.Fatalf("Wait err = %v, want ErrPeerDead (swept/refused) or ErrTimeout", werr)
	}
}

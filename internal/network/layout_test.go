package network

import (
	"testing"

	"lci/internal/netsim/fabric"
	"lci/internal/netsim/nic"
)

// TestThreadDomainStrategies checks that the try-lock wrappers mirror the
// provider's lock layout: posts to peers that share a provider send lock
// share a wrapper lock, and under the endpoint layout one wrapper lock
// guards sends, receive posting and CQ polls alike.
func TestThreadDomainStrategies(t *testing.T) {
	for _, tc := range []struct {
		layout     nic.LockLayout
		sameSend   bool // posts to ranks 1 and 5 share a wrapper lock
		sharedWith bool // send, receive and CQ share one wrapper lock
	}{
		{nic.LockPerQP, false, false},
		{nic.LockAllQP, true, false},
		{nic.LockUUARPool, true, false}, // 4 uUARs: ranks 1 and 5 map to uUAR 1
		{nic.LockEndpoint, true, true},
	} {
		fab := fabric.New(fabric.Config{NumRanks: 8})
		cfg := nic.Config{Layout: tc.layout}
		d := NewDevice(nic.NewDomain(fab, 0, cfg))
		NewDevice(nic.NewDomain(fab, 1, cfg)).PostRecv(make([]byte, 8), nil)
		s1, s5 := d.lock(d.SendLock(1)), d.lock(d.SendLock(5))
		if (s1 == s5) != tc.sameSend {
			t.Errorf("%v: ranks 1 and 5 share a send wrapper = %v, want %v", tc.layout, s1 == s5, tc.sameSend)
		}
		if got := s1 == d.rx && d.rx == d.cq; got != tc.sharedWith {
			t.Errorf("%v: one wrapper for send/recv/cq = %v, want %v", tc.layout, got, tc.sharedWith)
		}
		if !tc.sharedWith && (d.rx == d.cq || s1 == d.rx || s1 == d.cq) {
			t.Errorf("%v: send, receive and CQ wrappers must be distinct", tc.layout)
		}
		// A held CQ wrapper bounces a post exactly when the layout shares it.
		d.cq.Lock()
		err := d.PostSend(1, 0, 0, []byte("x"), nil)
		d.cq.Unlock()
		if (err == ErrRetry) != tc.sharedWith {
			t.Errorf("%v: post under a held CQ wrapper returned %v", tc.layout, err)
		}
	}
}

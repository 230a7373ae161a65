package replica

import (
	"testing"
	"time"

	"fmi/internal/cluster"
	"fmi/internal/trace"
	"fmi/internal/transport"
)

func TestRegistryLifecycle(t *testing.T) {
	r := NewRegistry(2)
	if _, _, ok := r.Lookup(0); ok {
		t.Fatal("Lookup ok before any registration")
	}
	r.SetPrimary(0, "p0")
	r.SetShadow(0, "s0", false)
	r.SetPrimary(1, "p1")
	r.SetShadow(1, "s1", false)
	if err := r.Ready(nil); err != nil {
		t.Fatalf("Ready: %v", err)
	}
	prim, shad, ok := r.Lookup(0)
	if !ok || prim != "p0" || shad != "s0" {
		t.Fatalf("Lookup(0) = %q %q %v", prim, shad, ok)
	}

	// Promotion flips routing in place and leaves the rank unprotected.
	if !r.Promote(0) {
		t.Fatal("Promote(0) failed")
	}
	prim, shad, ok = r.Lookup(0)
	if !ok || prim != "s0" || shad != transport.NilAddr {
		t.Fatalf("after promote: Lookup(0) = %q %q %v", prim, shad, ok)
	}
	if !r.Promoted(0) || r.Promoted(1) {
		t.Fatalf("Promoted = %v %v", r.Promoted(0), r.Promoted(1))
	}
	if r.Promote(0) {
		t.Fatal("second Promote(0) succeeded with no shadow")
	}

	// A re-provisioned shadow is not promotable until synced.
	r.SetShadow(0, "s0b", true)
	if r.Promote(0) {
		t.Fatal("Promote of an unsynced shadow succeeded")
	}
	addr, ok := r.TakeSyncRequest(0)
	if !ok || addr != "s0b" {
		t.Fatalf("TakeSyncRequest = %q %v", addr, ok)
	}
	if _, ok := r.TakeSyncRequest(0); ok {
		t.Fatal("TakeSyncRequest not cleared")
	}
	r.MarkSynced(0, 0)
	if !r.Promote(0) {
		t.Fatal("Promote of a synced replacement failed")
	}

	// Deactivation drops routing but preserves promotion history.
	r.Deactivate()
	if _, _, ok := r.Lookup(1); ok {
		t.Fatal("Lookup ok after Deactivate")
	}
	if !r.Promoted(0) {
		t.Fatal("Promoted(0) lost after Deactivate")
	}
	if err := r.Ready(nil); err != ErrInactive {
		t.Fatalf("Ready after Deactivate: %v", err)
	}
}

func TestRegistryReadyCancel(t *testing.T) {
	r := NewRegistry(1)
	cancel := make(chan struct{})
	close(cancel)
	if err := r.Ready(cancel); err != ErrCancelled {
		t.Fatalf("Ready with fired cancel: %v", err)
	}
}

func TestRegistryDropShadow(t *testing.T) {
	r := NewRegistry(1)
	r.SetPrimary(0, "p")
	r.SetShadow(0, "s", false)
	r.DropShadow(0)
	prim, shad, ok := r.Lookup(0)
	if !ok || prim != "p" || shad != transport.NilAddr {
		t.Fatalf("after DropShadow: %q %q %v", prim, shad, ok)
	}
	if r.Promote(0) {
		t.Fatal("Promote succeeded with no shadow")
	}
}

func TestStoreSubmitLoadRebuild(t *testing.T) {
	clu := cluster.New(4)
	rec := trace.New()
	s := NewStore(clu, rec)
	if err := s.Submit("grid", []byte("payload")); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if got := s.Copies("grid"); got != StoreReplicas {
		t.Fatalf("copies = %d, want %d", got, StoreReplicas)
	}
	got, err := s.Load("grid")
	if err != nil || string(got) != "payload" {
		t.Fatalf("Load = %q, %v", got, err)
	}

	// Killing a holder node prunes its copy and re-replicates
	// synchronously from the survivor.
	clu.Node(0).Fail()
	if got := s.Copies("grid"); got != StoreReplicas {
		t.Fatalf("copies after failure = %d, want %d", got, StoreReplicas)
	}
	if rec.Count(trace.KindStoreRebuild) == 0 {
		t.Fatal("no store-rebuild event recorded")
	}
	got, err = s.Load("grid")
	if err != nil || string(got) != "payload" {
		t.Fatalf("Load after failure = %q, %v", got, err)
	}

	// Both holders lost in one sweep: the object is gone and says so.
	for _, nd := range clu.Alive() {
		nd.Fail()
	}
	if _, err := s.Load("grid"); err == nil {
		t.Fatal("Load succeeded with every node dead")
	}
	if _, err := s.Load("missing"); err == nil {
		t.Fatal("Load of an absent key succeeded")
	}
}

func TestAwaitPartnerCheckpointPacesThePair(t *testing.T) {
	r := NewRegistry(1)
	r.SetPrimary(0, "p0")
	r.SetShadow(0, "s0", false)
	// The primary committed ordinal 1 and is about to start the next
	// checkpoint: it waits for the shadow to commit 1 as well.
	r.CommitCheckpoint(0, false, 1)
	done := make(chan error, 1)
	go func() { done <- r.AwaitPartnerCheckpoint(0, false, 1, nil) }()
	select {
	case err := <-done:
		t.Fatalf("returned (%v) before the shadow committed", err)
	case <-time.After(20 * time.Millisecond):
	}
	r.CommitCheckpoint(0, true, 1)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("still waiting after the shadow committed")
	}
	// A copy never waits for a partner that is ahead of it.
	if err := r.AwaitPartnerCheckpoint(0, true, 1, nil); err != nil {
		t.Fatal(err)
	}
	r.CommitCheckpoint(0, false, 2)
	cancel := make(chan struct{})
	close(cancel)
	if err := r.AwaitPartnerCheckpoint(0, false, 2, cancel); err != ErrCancelled {
		t.Fatalf("cancelled wait returned %v", err)
	}
	// A dead partner releases the wait.
	r.DropShadow(0)
	if err := r.AwaitPartnerCheckpoint(0, false, 2, nil); err != nil {
		t.Fatal(err)
	}
}

package main

import (
	"testing"

	"seqtx/internal/channel"
	"seqtx/internal/mc"
	"seqtx/internal/registry"
	"seqtx/internal/seq"
)

// TestReferenceBFSAgreesWithExplore holds the benchmark's reference
// search to mc.Explore on small instances, safe and unsafe, on several
// channel kinds and worker counts.
func TestReferenceBFSAgreesWithExplore(t *testing.T) {
	cases := []struct {
		proto  string
		m      int
		input  seq.Seq
		kind   channel.Kind
		depth  int
		unsafe bool
	}{
		{"alpha", 2, seq.FromInts(0, 1), channel.KindDel, 12, false},
		{"alpha", 3, seq.FromInts(2, 0, 1), channel.KindDel, 12, false},
		{"alpha", 2, seq.FromInts(1, 0), channel.KindDup, 10, false},
		{"abp", 2, seq.FromInts(0, 1, 0), channel.KindFIFO, 10, false},
		{"naive", 2, seq.FromInts(0, 1, 0), channel.KindDup, 10, true},
	}
	for _, c := range cases {
		spec, err := registry.Protocol(c.proto, registry.Params{M: c.m})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := referenceBFS(spec, c.input, c.kind, c.depth)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Violation != c.unsafe {
			t.Errorf("%s on %s: reference violation=%v, want %v", c.proto, c.kind, ref.Violation, c.unsafe)
		}
		for _, workers := range []int{1, 2} {
			got, err := mc.Explore(spec, c.input, c.kind, mc.ExploreConfig{
				MaxDepth:     c.depth,
				EngineConfig: mc.EngineConfig{Workers: workers},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.agree(got); err != nil {
				t.Errorf("%s m=%d %s on %s, %d workers: %v", c.proto, c.m, c.input, c.kind, workers, err)
			}
		}
	}
}

// TestReferenceBFSCountsTransitions checks the transition count on an
// instance small enough to count by hand: at depth 1 the root's enabled
// actions are exactly the two ticks.
func TestReferenceBFSCountsTransitions(t *testing.T) {
	spec, err := registry.Protocol("alpha", registry.Params{M: 2})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := referenceBFS(spec, seq.FromInts(0, 1), channel.KindDel, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Transitions != 2 || ref.Depth != 1 || !ref.Truncated {
		t.Fatalf("got %+v, want 2 transitions to depth 1, truncated", ref)
	}
}

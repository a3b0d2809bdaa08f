package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"predtop/internal/cluster"
	"predtop/internal/ir"
)

// TestOpTimeMonotoneInWork: a dot with strictly more work never costs less.
func TestOpTimeMonotoneInWork(t *testing.T) {
	e := singleGPU()
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 16 + rng.Intn(512)
		k := 16 + rng.Intn(512)
		n := 16 + rng.Intn(512)
		small := dotNode(m, k, n)
		big := dotNode(2*m, 2*k, 2*n)
		// Allow jitter headroom: 8× the flops with ±10% jitter must still
		// cost strictly more.
		return e.Cost(big).Time(1, false) > e.Cost(small).Time(1, false)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestAllReduceMonotoneInBytes: more payload, more time, for any fabric.
func TestAllReduceMonotoneInBytes(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(2))}
	fabrics := []cluster.Interconnect{cluster.Platform2().IntraNode, cluster.Platform2().InterNode}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := 1e3 + rng.Float64()*1e8
		dev := 2 + rng.Intn(7)
		fab := fabrics[rng.Intn(2)]
		return AllReduceTime(2*b, dev, fab) > AllReduceTime(b, dev, fab) &&
			AllGatherTime(2*b, dev, fab) > AllGatherTime(b, dev, fab)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestShardingNeverSlower: dividing an op over more devices never increases
// its compute time.
func TestShardingNeverSlower(t *testing.T) {
	e := NewExec(scenario(cluster.Platform2(), 3, 3))
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(3))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := dotNode(64+rng.Intn(1024), 64+rng.Intn(1024), 64+rng.Intn(1024))
		t1 := e.Cost(n).Time(1, false)
		t2 := e.Cost(n).Time(2, false)
		t4 := e.Cost(n).Time(4, false)
		return t4 <= t2 && t2 <= t1
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestJitterBoundedForAllKinds: the efficiency perturbation stays within its
// amplitude for every operator kind.
func TestJitterBoundedForAllKinds(t *testing.T) {
	e := singleGPU()
	b := ir.NewBuilder()
	x := b.Input("x", []int{64, 64}, ir.F32)
	for k := ir.KindDot; k < ir.Kind(ir.NumKinds); k++ {
		n := &ir.Node{Kind: k, Class: ir.ClassOperator, Shape: []int{64, 64}, DType: ir.F32, Ins: []*ir.Node{x}}
		j := e.jitter(n, 0.1)
		if j < 0.9 || j > 1.1 {
			t.Fatalf("kind %v jitter %v", k, j)
		}
	}
}

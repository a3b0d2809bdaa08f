package tensor

import "testing"

func TestArenaReusesBuffers(t *testing.T) {
	a := NewArena()
	// Different shapes in the same power-of-two class share buffers.
	x := a.GetUninit(4, 8) // 32 → class 64
	p0 := &x.Data[0]
	a.Reset()
	y := a.GetUninit(7, 9) // 63 → class 64
	if y.R != 7 || y.C != 9 || len(y.Data) != 63 {
		t.Fatalf("bad reshape on reuse: %dx%d len %d", y.R, y.C, len(y.Data))
	}
	if &y.Data[0] != p0 {
		t.Fatal("same-class request did not reuse the recycled buffer")
	}
	// A second request in the same generation must NOT alias the first.
	z := a.GetUninit(4, 8)
	if &z.Data[0] == &y.Data[0] {
		t.Fatal("two live tensors share a buffer")
	}
}

func TestArenaNilFallsBackToHeap(t *testing.T) {
	var a *Arena
	x := a.GetUninit(2, 3)
	if x.R != 2 || x.C != 3 {
		t.Fatalf("nil-arena GetUninit shape %dx%d", x.R, x.C)
	}
	y := a.GetUninit(2, 3)
	if &x.Data[0] == &y.Data[0] {
		t.Fatal("nil arena must never share buffers")
	}
	a.Reset()
}

func TestArenaZeroSizedShapes(t *testing.T) {
	a := NewArena()
	for _, d := range [][2]int{{0, 5}, {5, 0}, {0, 0}} {
		x := a.GetUninit(d[0], d[1])
		if x.R != d[0] || x.C != d[1] || len(x.Data) != 0 {
			t.Fatalf("bad empty tensor %dx%d len %d", x.R, x.C, len(x.Data))
		}
	}
	a.Reset()
}

// TestArenaSteadyStateZeroAlloc pins the tentpole property: once an arena
// has seen its working set, a get/use/reset cycle allocates nothing.
func TestArenaSteadyStateZeroAlloc(t *testing.T) {
	a := NewArena()
	step := func() {
		x := a.GetUninit(16, 16)
		y := a.GetUninit(4, 4)
		x.Data[0] = 1
		y.Data[0] = 1
		a.Reset()
	}
	step() // warm the free lists
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("steady-state arena cycle allocated %.1f per run", allocs)
	}
}

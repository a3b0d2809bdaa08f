// Package tensor implements dense row-major float64 matrices with the
// operations needed to train the neural predictors in this repository.
//
// Tensors are two-dimensional; vectors are represented as 1×C (row) or R×1
// (column) matrices. Every arithmetic kernel writes a caller-provided
// destination (into.go, edges.go); nothing here allocates its result.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Tensor is a dense row-major matrix of float64 values.
type Tensor struct {
	R, C int
	Data []float64
}

// New returns a zero-filled r×c tensor.
func New(r, c int) *Tensor {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("tensor: negative shape %dx%d", r, c))
	}
	return &Tensor{R: r, C: c, Data: make([]float64, r*c)}
}

// FromSlice builds an r×c tensor from row-major data. The slice is copied.
func FromSlice(r, c int, data []float64) *Tensor {
	if len(data) != r*c {
		panic(fmt.Sprintf("tensor: FromSlice %dx%d needs %d values, got %d", r, c, r*c, len(data)))
	}
	t := New(r, c)
	copy(t.Data, data)
	return t
}

// Full returns an r×c tensor with every element set to v.
func Full(r, c int, v float64) *Tensor {
	t := New(r, c)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// Randn fills a new r×c tensor with N(0, std²) samples from rng.
func Randn(rng *rand.Rand, r, c int, std float64) *Tensor {
	t := New(r, c)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * std
	}
	return t
}

// RandUniform fills a new r×c tensor with U(lo, hi) samples from rng.
func RandUniform(rng *rand.Rand, r, c int, lo, hi float64) *Tensor {
	t := New(r, c)
	for i := range t.Data {
		t.Data[i] = lo + rng.Float64()*(hi-lo)
	}
	return t
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.R, t.C)
	copy(c.Data, t.Data)
	return c
}

// At returns element (i, j).
func (t *Tensor) At(i, j int) float64 { return t.Data[i*t.C+j] }

// Set assigns element (i, j).
func (t *Tensor) Set(i, j int, v float64) { t.Data[i*t.C+j] = v }

// Row returns a mutable view of row i.
func (t *Tensor) Row(i int) []float64 { return t.Data[i*t.C : (i+1)*t.C] }

// Size returns the number of elements.
func (t *Tensor) Size() int { return t.R * t.C }

// SameShape reports whether t and o have identical dimensions.
func (t *Tensor) SameShape(o *Tensor) bool { return t.R == o.R && t.C == o.C }

// Zero resets every element to 0 in place.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// String renders a small tensor for debugging.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor %dx%d", t.R, t.C)
	if t.Size() <= 64 {
		for i := 0; i < t.R; i++ {
			b.WriteString("\n  ")
			for j := 0; j < t.C; j++ {
				fmt.Fprintf(&b, "% .4g ", t.At(i, j))
			}
		}
	}
	return b.String()
}

// axpy computes y += a*x over equal-length slices, unrolled by eight.
func axpy(a float64, x, y []float64) {
	if simdKernels {
		axpyAVX2(a, x, y[:len(x)])
		return
	}
	n := len(x)
	y = y[:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		x8 := x[i : i+8 : i+8]
		y8 := y[i : i+8 : i+8]
		y8[0] += a * x8[0]
		y8[1] += a * x8[1]
		y8[2] += a * x8[2]
		y8[3] += a * x8[3]
		y8[4] += a * x8[4]
		y8[5] += a * x8[5]
		y8[6] += a * x8[6]
		y8[7] += a * x8[7]
	}
	for ; i < n; i++ {
		y[i] += a * x[i]
	}
}

// dot computes the inner product of two equal-length slices, unrolled by four.
func dot(x, y []float64) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	y = y[:n]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		x4 := x[i : i+4 : i+4]
		y4 := y[i : i+4 : i+4]
		s0 += x4[0] * y4[0]
		s1 += x4[1] * y4[1]
		s2 += x4[2] * y4[2]
		s3 += x4[3] * y4[3]
	}
	s := s0 + s1 + s2 + s3
	for ; i < n; i++ {
		s += x[i] * y[i]
	}
	return s
}

// AddInPlace accumulates b into a.
func AddInPlace(a, b *Tensor) {
	if !a.SameShape(b) {
		shapePanic("AddInPlace shape mismatch %dx%d vs %dx%d", a.R, a.C, b.R, b.C)
	}
	addRow(a.Data, b.Data)
}

// addRow computes a[i] += b[i] over len(a).
func addRow(a, b []float64) {
	if simdKernels {
		addInPlaceAVX2(a, b[:len(a)])
		return
	}
	b = b[:len(a)]
	for i := range a {
		a[i] += b[i]
	}
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v
	}
	return s
}

// MaxAbs returns the largest absolute element, or 0 for an empty tensor.
func (t *Tensor) MaxAbs() float64 {
	m := 0.0
	for _, v := range t.Data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// AllClose reports whether a and b agree elementwise within tol.
func AllClose(a, b *Tensor, tol float64) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

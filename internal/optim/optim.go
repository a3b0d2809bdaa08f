// Package optim implements the Adam optimizer and the cosine learning-rate
// decay schedule used to train the latency predictors (paper §IV-B6).
package optim

import (
	"math"

	"predtop/internal/ag"
	"predtop/internal/tensor"
)

// Adam implements the Adam optimizer with the paper's defaults
// (β1 = 0.9, β2 = 0.999, ε = 1e-8).
type Adam struct {
	Params []*ag.Param
	Beta1  float64
	Beta2  float64
	Eps    float64

	step int
	m, v []*tensor.Tensor
}

// NewAdam builds an Adam optimizer over params.
func NewAdam(params []*ag.Param) *Adam {
	a := &Adam{Params: params, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
	a.m = make([]*tensor.Tensor, len(params))
	a.v = make([]*tensor.Tensor, len(params))
	for i, p := range params {
		a.m[i] = tensor.New(p.V.R, p.V.C)
		a.v[i] = tensor.New(p.V.R, p.V.C)
	}
	return a
}

// Step applies one Adam update with learning rate lr using the gradients
// accumulated in each parameter, then zeroes them.
func (a *Adam) Step(lr float64) {
	a.step++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for i, p := range a.Params {
		m, v, g := a.m[i], a.v[i], p.Grad
		for j := range p.V.Data {
			gj := g.Data[j]
			m.Data[j] = a.Beta1*m.Data[j] + (1-a.Beta1)*gj
			v.Data[j] = a.Beta2*v.Data[j] + (1-a.Beta2)*gj*gj
			mhat := m.Data[j] / bc1
			vhat := v.Data[j] / bc2
			p.V.Data[j] -= lr * mhat / (math.Sqrt(vhat) + a.Eps)
		}
		p.ZeroGrad()
	}
}

// ClipGradNorm scales all gradients so their global L2 norm is at most max.
// It returns the pre-clip norm.
func ClipGradNorm(params []*ag.Param, max float64) float64 {
	total := 0.0
	for _, p := range params {
		for _, g := range p.Grad.Data {
			total += g * g
		}
	}
	norm := math.Sqrt(total)
	if norm > max && norm > 0 {
		s := max / norm
		for _, p := range params {
			for j := range p.Grad.Data {
				p.Grad.Data[j] *= s
			}
		}
	}
	return norm
}

// ScaleGrads multiplies every gradient by s (e.g. 1/batchSize after
// accumulating per-example gradients).
func ScaleGrads(params []*ag.Param, s float64) {
	for _, p := range params {
		for j := range p.Grad.Data {
			p.Grad.Data[j] *= s
		}
	}
}

// CosineDecay returns the learning rate for the given epoch under cosine
// annealing from base at epoch 0 to 0 at totalEpochs (paper §IV-B6: base
// 0.001 decaying to 0 over 500 epochs).
func CosineDecay(base float64, epoch, totalEpochs int) float64 {
	if totalEpochs <= 1 {
		return base
	}
	if epoch >= totalEpochs {
		return 0
	}
	frac := float64(epoch) / float64(totalEpochs-1)
	return base * 0.5 * (1 + math.Cos(math.Pi*frac))
}

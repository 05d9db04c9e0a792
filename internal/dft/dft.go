// Package dft implements the DFT-feature similarity search of the prior
// art the paper compares against (Agrawal, Faloutsos & Swami 1993 "F-index";
// Faloutsos, Ranganathan & Manolopoulos 1994 subsequence matching). It is
// the baseline for the experiments showing that proximity in the frequency
// domain cannot detect similarity under dilation or contraction (§3), which
// is what motivates the paper's feature-based representation.
//
// The transform is orthonormal (1/√n scaling), so by Parseval's theorem the
// Euclidean distance between two sequences equals the Euclidean distance
// between their full DFTs, and distance over the first k coefficients lower
// bounds it — guaranteeing no false dismissals when filtering by features.
//
// Features computes only those first k coefficients, in O(n·k) with one
// Sincos per coefficient, and the sliding-window tracker reseeds with the
// same kernel; DFT, FFT and Transform remain as test oracles and for
// MainFrequency. The two computations round differently: their
// coefficients differ by up to about 1e-13·‖x‖₂ (measured up to
// n=65536), an amount that scales with the sequence's norm, not with any
// query radius. Filters that compare a kernel vector against a stored
// vector from the full transform must therefore widen their threshold by
// a norm-proportional pad built from CoeffDrift.
package dft

import (
	"fmt"
	"math"
	"math/cmplx"
)

// DFT returns the orthonormal discrete Fourier transform of vals,
// X[k] = (1/√n) Σ_j x[j]·e^(-2πi·jk/n), computed directly in O(n²).
// Kept as the reference implementation the first-k kernel is tested
// against; Features never runs it.
func DFT(vals []float64) []complex128 {
	n := len(vals)
	out := make([]complex128, n)
	if n == 0 {
		return out
	}
	scale := 1 / math.Sqrt(float64(n))
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			angle := -2 * math.Pi * float64(j) * float64(k) / float64(n)
			sum += complex(vals[j], 0) * cmplx.Exp(complex(0, angle))
		}
		out[k] = sum * complex(scale, 0)
	}
	return out
}

// FFT returns the orthonormal DFT of vals via the radix-2 Cooley–Tukey
// algorithm. len(vals) must be a power of two.
func FFT(vals []float64) ([]complex128, error) {
	n := len(vals)
	if n == 0 {
		return nil, fmt.Errorf("dft: empty input")
	}
	if n&(n-1) != 0 {
		return nil, fmt.Errorf("dft: FFT length %d is not a power of two", n)
	}
	buf := make([]complex128, n)
	for i, v := range vals {
		buf[i] = complex(v, 0)
	}
	fftInPlace(buf, false)
	scale := complex(1/math.Sqrt(float64(n)), 0)
	for i := range buf {
		buf[i] *= scale
	}
	return buf, nil
}

// InverseFFT inverts an orthonormal transform produced by FFT.
func InverseFFT(coeffs []complex128) ([]float64, error) {
	n := len(coeffs)
	if n == 0 {
		return nil, fmt.Errorf("dft: empty input")
	}
	if n&(n-1) != 0 {
		return nil, fmt.Errorf("dft: inverse FFT length %d is not a power of two", n)
	}
	buf := make([]complex128, n)
	copy(buf, coeffs)
	fftInPlace(buf, true)
	scale := 1 / math.Sqrt(float64(n))
	out := make([]float64, n)
	for i := range buf {
		out[i] = real(buf[i]) * scale
	}
	return out, nil
}

// fftInPlace is an iterative radix-2 FFT (bit-reversal permutation then
// butterfly passes). inverse selects the conjugate transform.
func fftInPlace(buf []complex128, inverse bool) {
	n := len(buf)
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			buf[i], buf[j] = buf[j], buf[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		angle := 2 * math.Pi / float64(length)
		if !inverse {
			angle = -angle
		}
		wl := cmplx.Exp(complex(0, angle))
		for start := 0; start < n; start += length {
			w := complex(1, 0)
			half := length / 2
			for i := 0; i < half; i++ {
				a := buf[start+i]
				b := buf[start+i+half] * w
				buf[start+i] = a + b
				buf[start+i+half] = a - b
				w *= wl
			}
		}
	}
}

// Transform computes the orthonormal DFT choosing FFT when the length is a
// power of two and the direct transform otherwise.
func Transform(vals []float64) []complex128 {
	if n := len(vals); n > 0 && n&(n-1) == 0 {
		out, err := FFT(vals)
		if err == nil {
			return out
		}
	}
	return DFT(vals)
}

// CoeffDrift bounds, relative to ‖x‖₂ (Parseval gives |X_k| ≤ ‖x‖₂),
// how far one coefficient from Features may sit from the same coefficient
// of the full transform. The tests hold the kernel to it against DFT and
// FFT; the measured gap is about 100× smaller.
const CoeffDrift = 1e-11

// Features returns the 2k-dimensional feature vector of the first k DFT
// coefficients (real and imaginary parts interleaved), the mapping the
// F-index uses. Coefficients past the sequence length are zero; k must be
// >= 1. Only those k coefficients are computed, in O(n·k).
func Features(vals []float64, k int) ([]float64, error) {
	if k < 1 {
		return nil, fmt.Errorf("dft: feature count %d must be >= 1", k)
	}
	out := make([]float64, 2*k)
	for i := range min(k, len(vals)) {
		c := coefficient(vals, i)
		out[2*i], out[2*i+1] = real(c), imag(c)
	}
	return out, nil
}

// coefficient returns the k-th orthonormal DFT coefficient of vals
// (len(vals) > 0) in O(n): the powers of the root e^(-2πik/n) come from
// one Sincos and a running complex product instead of a Sincos per term;
// the product's rounding drifts by a few ulps per sample (the package
// comment gives the measured bound). A NaN sample makes the result NaN.
func coefficient(vals []float64, k int) complex128 {
	n := float64(len(vals))
	sin, cos := math.Sincos(-2 * math.Pi * float64(k) / n)
	step, cur := complex(cos, sin), complex(1, 0)
	var sum complex128
	for _, v := range vals {
		sum += complex(v, 0) * cur
		cur *= step
	}
	return sum * complex(1/math.Sqrt(n), 0)
}

// FeatureDistance returns the Euclidean distance between two feature
// vectors. By Parseval this lower-bounds the true Euclidean distance
// between the underlying sequences (no false dismissals).
func FeatureDistance(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("dft: feature vectors differ in length: %d vs %d", len(a), len(b))
	}
	sum := 0.0
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum), nil
}

// FeatureDist returns the Euclidean distance between two feature vectors
// of pre-validated equal width — the hot-loop form of FeatureDistance for
// columnar stores whose row stride is fixed by construction, so the
// per-comparison length check is hoisted out of the scan entirely. It
// shares FeatureDistance's accumulation order exactly (pruning decisions
// agree bit-for-bit).
func FeatureDist(a, b []float64) float64 { return pointDist(a, b) }

// MainFrequency returns the dominant non-DC frequency bin of vals and its
// magnitude. The paper's §3 argument: under dilation (frequency reduction)
// or contraction the dominant frequency moves, so frequency-domain
// comparison misses sequences that are feature-identical. Only bins up to
// n/2 (the Nyquist limit) are considered.
func MainFrequency(vals []float64) (bin int, magnitude float64) {
	coeffs := Transform(vals)
	n := len(coeffs)
	for k := 1; k <= n/2; k++ {
		if m := cmplx.Abs(coeffs[k]); m > magnitude {
			bin, magnitude = k, m
		}
	}
	return bin, magnitude
}

package dft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"seqrep/internal/seq"
	"seqrep/internal/synth"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDFTKnownValues(t *testing.T) {
	// Constant signal: all energy in the DC bin.
	c := DFT([]float64{2, 2, 2, 2})
	if !almostEq(real(c[0]), 4, 1e-12) || !almostEq(imag(c[0]), 0, 1e-12) {
		t.Errorf("DC = %v, want 4 (2*sqrt(4))", c[0])
	}
	for k := 1; k < 4; k++ {
		if cmplx.Abs(c[k]) > 1e-12 {
			t.Errorf("bin %d = %v, want 0", k, c[k])
		}
	}
	// Empty input.
	if out := DFT(nil); len(out) != 0 {
		t.Errorf("DFT(nil) = %v", out)
	}
}

func TestFFTMatchesDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{1, 2, 4, 8, 64, 256} {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		slow := DFT(vals)
		fast, err := FFT(vals)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for k := range slow {
			if cmplx.Abs(slow[k]-fast[k]) > 1e-9 {
				t.Fatalf("n=%d bin %d: DFT %v vs FFT %v", n, k, slow[k], fast[k])
			}
		}
	}
}

func TestFFTErrors(t *testing.T) {
	if _, err := FFT(nil); err == nil {
		t.Error("empty accepted")
	}
	if _, err := FFT(make([]float64, 3)); err == nil {
		t.Error("non power-of-two accepted")
	}
	if _, err := InverseFFT(nil); err == nil {
		t.Error("inverse empty accepted")
	}
	if _, err := InverseFFT(make([]complex128, 5)); err == nil {
		t.Error("inverse non power-of-two accepted")
	}
}

func TestFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	vals := make([]float64, 128)
	for i := range vals {
		vals[i] = rng.NormFloat64() * 10
	}
	coeffs, err := FFT(vals)
	if err != nil {
		t.Fatal(err)
	}
	back, err := InverseFFT(coeffs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if !almostEq(back[i], vals[i], 1e-9) {
			t.Fatalf("round trip[%d] = %g, want %g", i, back[i], vals[i])
		}
	}
}

// Parseval: orthonormal transform preserves energy.
func TestParsevalProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		n := len(raw)
		if n > 64 {
			n = 64
		}
		vals := make([]float64, n)
		for i := 0; i < n; i++ {
			v := raw[i]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			vals[i] = math.Mod(v, 1e5)
		}
		coeffs := DFT(vals)
		var e1, e2 float64
		for i := range vals {
			e1 += vals[i] * vals[i]
			e2 += real(coeffs[i])*real(coeffs[i]) + imag(coeffs[i])*imag(coeffs[i])
		}
		return almostEq(e1, e2, 1e-6*(1+e1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTransformDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{7, 8} { // odd takes DFT path, power of two takes FFT
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		got := Transform(vals)
		want := DFT(vals)
		for k := range want {
			if cmplx.Abs(got[k]-want[k]) > 1e-9 {
				t.Fatalf("n=%d bin %d mismatch", n, k)
			}
		}
	}
}

func TestFeatures(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	f, err := Features(vals, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != 6 {
		t.Fatalf("feature length %d, want 6", len(f))
	}
	coeffs := Transform(vals)
	for i := 0; i < 3; i++ {
		if !almostEq(f[2*i], real(coeffs[i]), 1e-12) || !almostEq(f[2*i+1], imag(coeffs[i]), 1e-12) {
			t.Errorf("feature %d mismatch", i)
		}
	}
	if _, err := Features(vals, 0); err == nil {
		t.Error("k=0 accepted")
	}
	// k beyond length pads with zeros.
	long, err := Features([]float64{1, 2}, 5)
	if err != nil || len(long) != 10 {
		t.Fatalf("padded features: %v %v", long, err)
	}
	for i := 4; i < 10; i++ {
		if long[i] != 0 {
			t.Errorf("pad feature[%d] = %g", i, long[i])
		}
	}
}

// TestFeaturesMatchTransform pins the first-k kernel to the full
// transforms: the direct DFT for arbitrary lengths, the FFT for powers of
// two. Parseval gives |X_k| ≤ ‖x‖₂, so the drift bound is relative to it.
// At n=65536 all n+3 features would cost 4·10⁹ terms, so that length
// takes k up to 1024 plus the kernel evaluated at bins spread over the
// whole spectrum, where the root's angle — and its rounding — is largest.
func TestFeaturesMatchTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{1, 2, 3, 5, 7, 97, 540, 1000, 1024, 4096, 65536} {
		vals := make([]float64, n)
		norm := 0.0
		for i := range vals {
			vals[i] = 10 * rng.NormFloat64()
			norm += vals[i] * vals[i]
		}
		norm = math.Sqrt(norm)
		var want []complex128
		if n&(n-1) == 0 && n >= 1024 {
			var err error
			if want, err = FFT(vals); err != nil {
				t.Fatal(err)
			}
		} else {
			want = DFT(vals)
		}
		ks := []int{1, 8, n + 3}
		if n == 65536 {
			ks[2] = 1024
			worst := 0.0
			for i := n - 1; i >= 0; i -= 1021 {
				worst = max(worst, cmplxAbs(coefficient(vals, i)-want[i]))
			}
			if worst > CoeffDrift*norm {
				t.Errorf("n=%d: spread bins drift %g exceeds CoeffDrift·‖x‖₂ = %g", n, worst, CoeffDrift*norm)
			}
		}
		for _, k := range ks {
			got, err := Features(vals, k)
			if err != nil {
				t.Fatalf("n=%d k=%d: %v", n, k, err)
			}
			if len(got) != 2*k {
				t.Fatalf("n=%d k=%d: %d features, want %d", n, k, len(got), 2*k)
			}
			worst := 0.0
			for i := range min(k, n) {
				worst = max(worst, cmplxAbs(complex(got[2*i], got[2*i+1])-want[i]))
			}
			if worst > CoeffDrift*norm {
				t.Errorf("n=%d k=%d: max |Δ| %g exceeds CoeffDrift·‖x‖₂ = %g", n, k, worst, CoeffDrift*norm)
			}
			for i := 2 * min(k, n); i < len(got); i++ {
				if got[i] != 0 {
					t.Fatalf("n=%d k=%d: feature[%d] = %g past the length, want 0", n, k, i, got[i])
				}
			}
		}
	}
	for _, k := range []int{0, -1} {
		if _, err := Features([]float64{1, 2, 3}, k); err == nil {
			t.Errorf("k=%d accepted", k)
		}
	}
}

// TestFeaturesNaN: a NaN sample poisons every coefficient it feeds, so
// callers that prune only on a provably-greater distance fall through to
// exact verification instead of dismissing the record.
func TestFeaturesNaN(t *testing.T) {
	vals := []float64{1, 2, math.NaN(), 4, 5}
	f, err := Features(vals, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range f {
		if !math.IsNaN(v) {
			t.Errorf("feature[%d] = %g, want NaN", i, v)
		}
	}
}

func TestFeatureDistanceLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 50; trial++ {
		n := 64
		a := make([]float64, n)
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			a[i] = rng.NormFloat64() * 5
			b[i] = rng.NormFloat64() * 5
		}
		var trueD float64
		for i := range a {
			d := a[i] - b[i]
			trueD += d * d
		}
		trueD = math.Sqrt(trueD)
		for _, k := range []int{1, 2, 4, 8} {
			fa, _ := Features(a, k)
			fb, _ := Features(b, k)
			fd, err := FeatureDistance(fa, fb)
			if err != nil {
				t.Fatal(err)
			}
			if fd > trueD+1e-9 {
				t.Fatalf("k=%d: feature distance %g exceeds true distance %g (false dismissal possible)", k, fd, trueD)
			}
		}
	}
	if _, err := FeatureDistance([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestMainFrequency(t *testing.T) {
	// Pure sine of period 16 over 128 samples lands in bin 128/16 = 8.
	s := synth.Sine(128, 3, 16, 0)
	bin, mag := MainFrequency(s.Values())
	if bin != 8 {
		t.Errorf("main frequency bin = %d, want 8", bin)
	}
	if mag <= 0 {
		t.Errorf("magnitude = %g", mag)
	}
	// Dilating the sine (doubling the period) halves the bin — the §3
	// argument that frequency comparison misses dilation similarity.
	s2 := synth.Sine(128, 3, 32, 0)
	bin2, _ := MainFrequency(s2.Values())
	if bin2 != 4 {
		t.Errorf("dilated main frequency bin = %d, want 4", bin2)
	}
}

func TestFIndexBasics(t *testing.T) {
	ix, err := NewFIndex(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFIndex(0); err == nil {
		t.Error("k=0 accepted")
	}
	base := synth.Sine(64, 10, 16, 0)
	near := base.ShiftValue(0.1)
	far := base.ShiftValue(50)
	for id, s := range map[string]seq.Sequence{"base": base, "near": near, "far": far} {
		if err := ix.Add(id, s); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Len() != 3 {
		t.Errorf("Len = %d", ix.Len())
	}
	if err := ix.Add("base", base); err == nil {
		t.Error("duplicate id accepted")
	}
	if err := ix.Add("short", synth.Sine(32, 1, 8, 0)); err == nil {
		t.Error("length mismatch accepted")
	}

	matches, candidates, err := ix.Query(base, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 2 {
		t.Fatalf("matches = %v", matches)
	}
	if matches[0].ID != "base" || matches[1].ID != "near" {
		t.Errorf("order: %v", matches)
	}
	if matches[0].Distance != 0 {
		t.Errorf("self distance %g", matches[0].Distance)
	}
	if candidates < 2 {
		t.Errorf("candidates = %d", candidates)
	}
	if _, _, err := ix.Query(synth.Sine(32, 1, 8, 0), 5); err == nil {
		t.Error("bad query length accepted")
	}
	if _, _, err := ix.Query(base, -1); err == nil {
		t.Error("negative eps accepted")
	}
}

// The F-index may produce false candidates but never false dismissals:
// query results equal brute-force results.
func TestFIndexNoFalseDismissals(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	ix, _ := NewFIndex(2)
	n := 32
	stored := make(map[string][]float64)
	for i := 0; i < 40; i++ {
		vals := make([]float64, n)
		for j := range vals {
			vals[j] = rng.NormFloat64() * 10
		}
		id := string(rune('a'+i%26)) + string(rune('0'+i/26))
		if err := ix.Add(id, seq.New(vals)); err != nil {
			t.Fatal(err)
		}
		stored[id] = vals
	}
	q := make([]float64, n)
	for j := range q {
		q[j] = rng.NormFloat64() * 10
	}
	qs := seq.New(q)
	for _, eps := range []float64{5, 20, 50, 80} {
		matches, _, err := ix.Query(qs, eps)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[string]bool)
		for _, m := range matches {
			got[m.ID] = true
		}
		for id, vals := range stored {
			var d float64
			for j := range vals {
				diff := vals[j] - q[j]
				d += diff * diff
			}
			want := math.Sqrt(d) <= eps
			if got[id] != want {
				t.Errorf("eps=%g id=%s: index says %v, brute force says %v", eps, id, got[id], want)
			}
		}
	}
}

func TestSubsequenceMatch(t *testing.T) {
	// Plant the query inside a longer sequence at a known offset.
	q := synth.Sine(32, 5, 8, 0)
	long := make(seq.Sequence, 0, 200)
	flat := synth.Const(80, 0)
	long = append(long, flat...)
	for _, p := range q {
		long = append(long, seq.Point{T: float64(len(long)), V: p.V})
	}
	tail := synth.Const(88, 0)
	for _, p := range tail {
		long = append(long, seq.Point{T: float64(len(long)), V: p.V})
	}

	hits, err := SubsequenceMatch("ecg1", long, q, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, h := range hits {
		if h.Offset == 80 {
			found = true
			if h.Distance > 1e-9 {
				t.Errorf("planted window distance %g", h.Distance)
			}
		}
	}
	if !found {
		t.Fatalf("planted occurrence at offset 80 not found; hits = %v", hits)
	}

	if _, err := SubsequenceMatch("x", long, nil, 4, 1); err == nil {
		t.Error("empty query accepted")
	}
	if _, err := SubsequenceMatch("x", long, q, 4, -1); err == nil {
		t.Error("negative eps accepted")
	}
	if hits, err := SubsequenceMatch("x", q[:10], q, 4, 1); err != nil || hits != nil {
		t.Errorf("stored shorter than query: %v %v", hits, err)
	}
}

package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical draws out of 100", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("split children produced identical first draws")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64RangeProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		r := New(seed)
		for i := 0; i < 100; i++ {
			f := r.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(11)
	for n := 1; n < 50; n++ {
		for i := 0; i < 100; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(5)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for k, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Errorf("bucket %d: got %d, want ~%.0f", k, c, want)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(13)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(17)
	for i := 0; i < 10000; i++ {
		if v := r.LogNormal(0, 1); v <= 0 {
			t.Fatalf("LogNormal produced non-positive %v", v)
		}
	}
}

func TestPoissonMean(t *testing.T) {
	for _, lambda := range []float64{0.5, 3, 12, 50} {
		r := New(19)
		const n = 50000
		sum := 0
		for i := 0; i < n; i++ {
			sum += r.Poisson(lambda)
		}
		mean := float64(sum) / n
		if math.Abs(mean-lambda) > 0.05*lambda+0.05 {
			t.Errorf("Poisson(%v) mean = %v", lambda, mean)
		}
	}
}

func TestPoissonNonNegative(t *testing.T) {
	r := New(23)
	for i := 0; i < 10000; i++ {
		if r.Poisson(100) < 0 {
			t.Fatal("negative Poisson draw")
		}
	}
	if r.Poisson(0) != 0 {
		t.Fatal("Poisson(0) != 0")
	}
	if r.Poisson(-5) != 0 {
		t.Fatal("Poisson(-5) != 0")
	}
}

func TestPermIsPermutation(t *testing.T) {
	prop := func(seed uint64) bool {
		r := New(seed)
		n := 1 + r.Intn(64)
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedProportions(t *testing.T) {
	r := New(31)
	w := NewWeighted(r, []float64{1, 2, 7})
	counts := make([]int, 3)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[w.Draw()]++
	}
	for i, want := range []float64{0.1, 0.2, 0.7} {
		got := float64(counts[i]) / draws
		if math.Abs(got-want) > 0.02 {
			t.Errorf("outcome %d: got %.3f want %.3f", i, got, want)
		}
	}
}

func TestWeightedZeroWeightNeverDrawn(t *testing.T) {
	r := New(37)
	w := NewWeighted(r, []float64{0, 1, 0, 1})
	for i := 0; i < 10000; i++ {
		v := w.Draw()
		if v == 0 || v == 2 {
			t.Fatalf("drew zero-weight outcome %d", v)
		}
	}
}

func TestWeightedPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"empty":    func() { NewWeighted(New(1), nil) },
		"negative": func() { NewWeighted(New(1), []float64{1, -1}) },
		"zero sum": func() { NewWeighted(New(1), []float64{0, 0}) },
		"NaN":      func() { NewWeighted(New(1), []float64{math.NaN()}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestSampleDistinct(t *testing.T) {
	r := New(41)
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	got := Sample(r, items, 10)
	if len(got) != 10 {
		t.Fatalf("Sample returned %d items, want 10", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if seen[v] {
			t.Fatalf("duplicate %d in sample", v)
		}
		seen[v] = true
	}
}

func TestSampleAllWhenKTooLarge(t *testing.T) {
	r := New(43)
	items := []string{"a", "b", "c"}
	got := Sample(r, items, 10)
	if len(got) != 3 {
		t.Fatalf("got %d items, want all 3", len(got))
	}
	seen := map[string]bool{}
	for _, v := range got {
		seen[v] = true
	}
	if !seen["a"] || !seen["b"] || !seen["c"] {
		t.Fatalf("sample missing elements: %v", got)
	}
}

func TestPick(t *testing.T) {
	r := New(47)
	items := []int{10, 20, 30}
	for i := 0; i < 100; i++ {
		v := Pick(r, items)
		if v != 10 && v != 20 && v != 30 {
			t.Fatalf("Pick returned %d not in slice", v)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

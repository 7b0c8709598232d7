package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if !approx(Mean([]float64{1, 2, 3, 4}), 2.5) {
		t.Fatal("mean")
	}
	if Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
}

func TestStdDev(t *testing.T) {
	if !approx(StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}), math.Sqrt(32.0/7.0)) {
		t.Fatal("stddev")
	}
	if StdDev([]float64{5}) != 0 {
		t.Fatal("single-sample stddev")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	tests := []struct {
		q, want float64
	}{
		{0, 15}, {1, 50}, {0.5, 35}, {0.25, 20}, {0.75, 40},
	}
	for _, tt := range tests {
		if got := Quantile(xs, tt.q); !approx(got, tt.want) {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("empty quantile")
	}
	// Interpolation between order statistics.
	if got := Quantile([]float64{0, 10}, 0.5); !approx(got, 5) {
		t.Fatalf("interp = %v", got)
	}
}

// TestQuartiles pins the exclusive method against Python's
// statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	tests := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{50, 15, 40, 20, 35}, [3]float64{17.5, 35, 45}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1}, [3]float64{0.25, 2.5, 4.75}}, // extrapolated, as Python does
		{[]float64{7}, [3]float64{7, 7, 7}},
		{nil, [3]float64{}},
	}
	for _, tt := range tests {
		got := Quartiles(tt.xs)
		for i := range got {
			if !approx(got[i], tt.want[i]) {
				t.Errorf("Quartiles(%v) = %v, want %v", tt.xs, got, tt.want)
				break
			}
		}
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("input mutated")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		qa, qb := math.Abs(math.Mod(a, 1)), math.Abs(math.Mod(b, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		return Quantile(xs, qa) <= Quantile(xs, qb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCDF(t *testing.T) {
	pts := CDF([]float64{1, 2, 2, 3})
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	if !approx(pts[0].P, 0.25) || !approx(pts[1].P, 0.75) || !approx(pts[2].P, 1.0) {
		t.Fatalf("cdf = %+v", pts)
	}
	if CDF(nil) != nil {
		t.Fatal("empty cdf")
	}
}

func TestCDFReachesOneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) {
				xs = append(xs, x)
			}
		}
		pts := CDF(xs)
		if len(xs) == 0 {
			return pts == nil
		}
		last := pts[len(pts)-1]
		for i := 1; i < len(pts); i++ {
			if pts[i].P < pts[i-1].P || pts[i].X < pts[i-1].X {
				return false
			}
		}
		return approx(last.P, 1.0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProportion(t *testing.T) {
	p := NewProportion(8, 10)
	if !approx(p.P, 0.8) || p.N != 10 || p.Positive != 8 {
		t.Fatalf("%+v", p)
	}
	if p.Lo >= p.P || p.Hi <= p.P {
		t.Fatalf("interval does not bracket the estimate: %+v", p)
	}
	if p.Lo < 0 || p.Hi > 1 {
		t.Fatalf("interval escapes [0,1]: %+v", p)
	}
	zero := NewProportion(0, 0)
	if zero.P != 0 || zero.Hi != 0 {
		t.Fatalf("empty proportion: %+v", zero)
	}
	// Extremes stay in range.
	all := NewProportion(10, 10)
	if all.Hi > 1 || all.Lo <= 0.5 {
		t.Fatalf("all-success interval: %+v", all)
	}
}

// TestSignTest checks hand-computed exact binomial tails.
func TestSignTest(t *testing.T) {
	for _, tc := range []struct {
		name     string
		diffs    []float64
		pos, neg int
		p        float64
	}{
		{"10 of 10 better", []float64{-1, -2, -3, -4, -5, -6, -7, -8, -9, -10}, 0, 10, 2.0 / 1024},
		{"9 of 10", []float64{1, -2, -3, -4, -5, -6, -7, -8, -9, -10}, 1, 9, 22.0 / 1024}, // 2·(1+10)/2¹⁰
		{"5 of 10", []float64{1, 1, 1, 1, 1, -1, -1, -1, -1, -1}, 5, 5, 1},
		{"ties dropped", []float64{0, 1, 1}, 2, 0, 0.5},     // 2·(1/4)
		{"3 of 4", []float64{3, 1, -2, 5}, 3, 1, 10.0 / 16}, // 2·(1+4)/2⁴
		{"all ties", []float64{0, 0}, 0, 0, 1},
		{"empty", nil, 0, 0, 1},
	} {
		pos, neg, p := SignTest(tc.diffs)
		if pos != tc.pos || neg != tc.neg || !approx(p, tc.p) {
			t.Errorf("%s: SignTest = (%d, %d, %v), want (%d, %d, %v)", tc.name, pos, neg, p, tc.pos, tc.neg, tc.p)
		}
	}
}

// TestWilcoxonSignedRank checks hand-enumerated exact null distributions.
func TestWilcoxonSignedRank(t *testing.T) {
	for _, tc := range []struct {
		name  string
		diffs []float64
		wplus float64
		p     float64
	}{
		// All ten negative: W+ = 0, reached by one of 2¹⁰ sign patterns.
		{"10 of 10 better", []float64{-1, -2, -3, -4, -5, -6, -7, -8, -9, -10}, 0, 2.0 / 1024},
		// Ranks 1..5, W+ = 1+2+3+5 = 11; W- = 4, and 7 of the 32 subsets
		// of {1..5} sum to at most 4: {}, 1, 2, 3, 4, 1+2, 1+3.
		{"n=5", []float64{1, 2, 3, -4, 5}, 11, 14.0 / 32},
		// |d| = 1,1,2,2 take ranks 1.5,1.5,3.5,3.5; W+ = 8.5. Doubled,
		// the ranks are 3,3,7,7 and 3 of 16 subsets reach a sum ≥ 17.
		{"tied ranks", []float64{1, -1, 2, 2}, 8.5, 6.0 / 16},
		// Zeros are dropped: ranks 1, 2, both positive, W+ = 3, 1 of 4.
		{"zeros dropped", []float64{0, 0.5, 0, 4}, 3, 0.5},
		// A symmetric split cannot exceed p = 1.
		{"symmetric", []float64{1, -1}, 1.5, 1},
		{"empty", nil, 0, 1},
	} {
		w, p := WilcoxonSignedRank(tc.diffs)
		if !approx(w, tc.wplus) || !approx(p, tc.p) {
			t.Errorf("%s: WilcoxonSignedRank = (%v, %v), want (%v, %v)", tc.name, w, p, tc.wplus, tc.p)
		}
	}
}

package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
)

func TestVecOps(t *testing.T) {
	v := Vec{1, 2, 3}
	w := Vec{4, 5, 6}
	if got := v.Dot(w); got != 32 {
		t.Errorf("Dot = %v", got)
	}
	if got := v.Sub(w); got[0] != -3 || got[1] != -3 || got[2] != -3 {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Add(w); got[0] != 5 || got[2] != 9 {
		t.Errorf("Add = %v", got)
	}
	u := v.Clone()
	u.AddScaled(2, w)
	if u[0] != 9 || u[2] != 15 {
		t.Errorf("AddScaled = %v", u)
	}
	if v[0] != 1 {
		t.Error("Clone aliases receiver")
	}
	u.Scale(0)
	if u.Norm() != 0 {
		t.Errorf("Scale(0) then Norm = %v", u.Norm())
	}
	if got := (Vec{3, 4}).Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
}

func TestVecMismatchPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"Dot":       func() { Vec{1}.Dot(Vec{1, 2}) },
		"Sub":       func() { Vec{1}.Sub(Vec{1, 2}) },
		"Add":       func() { Vec{1}.Add(Vec{1, 2}) },
		"AddScaled": func() { Vec{1}.AddScaled(1, Vec{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic on mismatch", name)
				}
			}()
			f()
		}()
	}
}

func TestMatBasics(t *testing.T) {
	m := NewMat(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 || m.At(0, 1) != 0 {
		t.Error("At/Set broken")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Error("Clone aliases")
	}
	if m.MaxAbs() != 5 {
		t.Errorf("MaxAbs = %v", m.MaxAbs())
	}
}

func TestMulVec(t *testing.T) {
	m := NewMat(2, 3)
	// [1 2 3; 4 5 6]
	for i, v := range []float64{1, 2, 3, 4, 5, 6} {
		m.A[i] = v
	}
	got := m.MulVec(Vec{1, 1, 1})
	if got[0] != 6 || got[1] != 15 {
		t.Errorf("MulVec = %v", got)
	}
}

func TestMul(t *testing.T) {
	a := NewMat(2, 2)
	copy(a.A, []float64{1, 2, 3, 4})
	b := NewMat(2, 2)
	copy(b.A, []float64{5, 6, 7, 8})
	got := a.Mul(b)
	want := []float64{19, 22, 43, 50}
	for i := range want {
		if got.A[i] != want[i] {
			t.Errorf("Mul[%d] = %v, want %v", i, got.A[i], want[i])
		}
	}
}

func TestIdentityInvert(t *testing.T) {
	id := Identity(4)
	inv, err := Invert(id)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if inv.At(i, j) != want {
				t.Errorf("inv identity [%d,%d] = %v", i, j, inv.At(i, j))
			}
		}
	}
}

func TestInvertKnown(t *testing.T) {
	m := NewMat(2, 2)
	copy(m.A, []float64{4, 7, 2, 6})
	inv, err := Invert(m)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.6, -0.7, -0.2, 0.4}
	for i := range want {
		if !mathx.ApproxEqual(inv.A[i], want[i], 1e-12) {
			t.Errorf("inv[%d] = %v, want %v", i, inv.A[i], want[i])
		}
	}
	// Invert must not modify its argument.
	if m.A[0] != 4 {
		t.Error("Invert mutated input")
	}
}

func TestInvertSingular(t *testing.T) {
	m := NewMat(2, 2)
	copy(m.A, []float64{1, 2, 2, 4})
	if _, err := Invert(m); !errors.Is(err, ErrSingular) {
		t.Errorf("expected ErrSingular, got %v", err)
	}
	z := NewMat(3, 3)
	if _, err := Invert(z); !errors.Is(err, ErrSingular) {
		t.Errorf("zero matrix: expected ErrSingular, got %v", err)
	}
}

func TestInvertNonSquare(t *testing.T) {
	if _, err := Invert(NewMat(2, 3)); err == nil {
		t.Error("expected error for non-square matrix")
	}
}

func TestInvertNeedsPivoting(t *testing.T) {
	// Zero on the diagonal forces a row swap.
	m := NewMat(2, 2)
	copy(m.A, []float64{0, 1, 1, 0})
	inv, err := Invert(m)
	if err != nil {
		t.Fatal(err)
	}
	prod := m.Mul(inv)
	assertIdentity(t, prod, 1e-12)
}

func assertIdentity(t *testing.T, m *Mat, tol float64) {
	t.Helper()
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !mathx.ApproxEqual(m.At(i, j), want, tol) {
				t.Fatalf("product[%d,%d] = %v, want %v", i, j, m.At(i, j), want)
			}
		}
	}
}

// randomSPD builds a random symmetric positive-definite matrix A = B'B + I.
func randomSPD(rng *rand.Rand, n int) *Mat {
	b := NewMat(n, n)
	for i := range b.A {
		b.A[i] = rng.NormFloat64()
	}
	// A = B' * B
	a := NewMat(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += b.At(k, i) * b.At(k, j)
			}
			a.Set(i, j, s)
		}
	}
	a.AddDiag(1)
	return a
}

func TestInvertRandomSPDProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(dim uint8) bool {
		n := int(dim)%12 + 1
		a := randomSPD(rng, n)
		inv, err := Invert(a)
		if err != nil {
			return false
		}
		prod := a.Mul(inv)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if !mathx.ApproxEqual(prod.At(i, j), want, 1e-7) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestInvertRegularized(t *testing.T) {
	// Singular matrix: rank 1.
	m := NewMat(2, 2)
	copy(m.A, []float64{1, 2, 2, 4})
	inv, ridge, err := InvertRegularized(m)
	if err != nil {
		t.Fatal(err)
	}
	if ridge <= 0 {
		t.Errorf("ridge = %v, want > 0", ridge)
	}
	if inv == nil {
		t.Fatal("nil inverse")
	}
	// Non-singular input must pass through with no ridge.
	good := Identity(3)
	_, ridge, err = InvertRegularized(good)
	if err != nil || ridge != 0 {
		t.Errorf("identity: ridge=%v err=%v", ridge, err)
	}
	// All-zero matrix regularizes to (lambda I)^-1.
	z := NewMat(2, 2)
	inv, ridge, err = InvertRegularized(z)
	if err != nil {
		t.Fatal(err)
	}
	if ridge <= 0 || !mathx.ApproxEqual(inv.At(0, 0), 1/ridge, 1e-9) {
		t.Errorf("zero matrix: ridge=%v inv00=%v", ridge, inv.At(0, 0))
	}
}

func TestQuadForm(t *testing.T) {
	m := Identity(3)
	if got := QuadForm(m, Vec{1, 2, 3}); got != 14 {
		t.Errorf("QuadForm identity = %v", got)
	}
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	// d'Md for d = (1,1,0): 1 + 1 + 1 + 1 = 4
	if got := QuadForm(m, Vec{1, 1, 0}); got != 4 {
		t.Errorf("QuadForm = %v", got)
	}
}

func TestMahalanobis(t *testing.T) {
	inv := Identity(2)
	got := Mahalanobis(inv, Vec{3, 4}, Vec{0, 0})
	if got != 5 {
		t.Errorf("Mahalanobis identity metric = %v, want 5", got)
	}
	// Distance to self is zero.
	if got := Mahalanobis(inv, Vec{1, 2}, Vec{1, 2}); got != 0 {
		t.Errorf("self distance = %v", got)
	}
}

func TestMahalanobisSymmetryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inv := randomSPD(rng, 5)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := NewVec(5), NewVec(5)
		for i := range a {
			a[i], b[i] = r.NormFloat64(), r.NormFloat64()
		}
		d1 := Mahalanobis(inv, a, b)
		d2 := Mahalanobis(inv, b, a)
		return mathx.ApproxEqual(d1, d2, 1e-9) && d1 >= 0 && !math.IsNaN(d1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// quadFormRowByRow is QuadForm's defining loop, one row at a time: the
// reference its paired-row loop must match bit for bit.
func quadFormRowByRow(m *Mat, d Vec) float64 {
	s := 0.0
	for r := 0; r < m.Rows; r++ {
		if d[r] == 0 {
			continue
		}
		inner := 0.0
		for c, rv := range m.A[r*m.Cols : (r+1)*m.Cols] {
			inner += rv * d[c]
		}
		s += d[r] * inner
	}
	return s
}

// TestQuadFormMatchesRowByRow checks QuadForm against the one-row loop
// on odd and even sizes, with zero entries in d (whose rows are skipped,
// even when they hold an infinity) and widely scaled values, where any
// change of summation order would show in the low bits.
func TestQuadFormMatchesRowByRow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 1; n <= 16; n++ {
		for trial := 0; trial < 50; trial++ {
			m, d := NewMat(n, n), NewVec(n)
			for i := range m.A {
				m.A[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(16)-8))
			}
			for i := range d {
				d[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(8)-4))
				if rng.Intn(4) == 0 {
					d[i] = 0
					m.A[i*n] = math.Inf(1)
				}
			}
			got, want := QuadForm(m, d), quadFormRowByRow(m, d)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d trial %d: QuadForm = %v, row by row = %v", n, trial, got, want)
			}
		}
	}
}

// TestMahalanobisStackDifference pins Mahalanobis to its definition over
// Sub, bit for bit, on both sides of the 32-element stack buffer, and
// checks that the buffered side does not allocate.
func TestMahalanobisStackDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 13, 31, 32, 33, 40} {
		inv := randomSPD(rng, n)
		a, b := NewVec(n), NewVec(n)
		for trial := 0; trial < 20; trial++ {
			for i := range a {
				a[i], b[i] = rng.NormFloat64()*3, rng.NormFloat64()
			}
			want := math.Sqrt(math.Max(0, QuadForm(inv, a.Sub(b))))
			if got := Mahalanobis(inv, a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d: Mahalanobis = %v, want %v (bitwise)", n, got, want)
			}
		}
		allocs := testing.AllocsPerRun(20, func() { Mahalanobis(inv, a, b) })
		if n <= 32 && allocs != 0 {
			t.Errorf("n=%d: Mahalanobis allocated %.0f times per call, want 0", n, allocs)
		}
	}
}

func TestMahalanobisTriangleOnIdentity(t *testing.T) {
	// Under the identity metric, Mahalanobis is Euclidean and must satisfy
	// the triangle inequality.
	inv := Identity(3)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := func() Vec {
			return Vec{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
		}
		a, b, c := v(), v(), v()
		return Mahalanobis(inv, a, c) <= Mahalanobis(inv, a, b)+Mahalanobis(inv, b, c)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestShapePanics(t *testing.T) {
	defer func() { recover() }()
	for name, f := range map[string]func(){
		"MulVec":   func() { NewMat(2, 3).MulVec(Vec{1, 2}) },
		"Mul":      func() { NewMat(2, 3).Mul(NewMat(2, 3)) },
		"QuadForm": func() { QuadForm(NewMat(2, 2), Vec{1, 2, 3}) },
		"NewMat":   func() { NewMat(0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic on shape mismatch", name)
				}
			}()
			f()
		}()
	}
}
